package endpoint

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"alex/internal/obs"
)

// blockingHandler parks every request until released, so tests can hold a
// known number of requests in flight.
type blockingHandler struct {
	entered chan struct{} // one tick per request that started executing
	release chan struct{} // closed to let all requests finish
}

func newBlockingHandler(n int) *blockingHandler {
	return &blockingHandler{entered: make(chan struct{}, n), release: make(chan struct{})}
}

func (h *blockingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.entered <- struct{}{}
	<-h.release
	w.WriteHeader(http.StatusOK)
}

// TestAdmissionShedsAboveQueueDepth saturates MaxConcurrent, fills the
// queue, and checks the next arrival is shed with 503 + Retry-After while
// everything admitted completes once released — rejections happen only
// above the configured queue depth.
func TestAdmissionShedsAboveQueueDepth(t *testing.T) {
	const maxConc, maxQueue = 2, 2
	inner := newBlockingHandler(maxConc + maxQueue + 1)
	reg := obs.NewRegistry()
	adm := NewAdmission(inner, AdmissionConfig{
		MaxConcurrent: maxConc,
		MaxQueue:      maxQueue,
		RetryAfter:    3 * time.Second,
	})
	adm.SetObserver(reg)
	srv := httptest.NewServer(adm)
	defer srv.Close()

	codes := make(chan int, maxConc+maxQueue)
	var wg sync.WaitGroup
	for i := 0; i < maxConc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Wait until both executors are actually inside the handler.
	for i := 0; i < maxConc; i++ {
		<-inner.entered
	}
	// Fill the queue. Queued requests do not reach the handler, so poll
	// the gauge to know they are parked.
	for i := 0; i < maxQueue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	waitFor(t, func() bool {
		return reg.Snapshot().Gauges[obs.EndpointAdmissionQueueDepth] == int64(maxQueue)
	}, "queue depth to reach the bound")

	// Capacity exhausted: this request must be shed immediately.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity request = %d, want 503", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry != 3 {
		t.Errorf("Retry-After = %q, want 3 whole seconds", resp.Header.Get("Retry-After"))
	}
	if got := adm.Rejected(); got != 1 {
		t.Errorf("Rejected() = %d, want 1", got)
	}

	close(inner.release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted request = %d, want 200", code)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.EndpointAdmissionRejected] != 1 {
		t.Errorf("rejected counter = %d, want 1", snap.Counters[obs.EndpointAdmissionRejected])
	}
	if snap.Counters[obs.EndpointAdmissionQueued] != maxQueue {
		t.Errorf("queued counter = %d, want %d", snap.Counters[obs.EndpointAdmissionQueued], maxQueue)
	}
	if g := snap.Gauges[obs.EndpointAdmissionActive]; g != 0 {
		t.Errorf("active gauge = %d after completion, want 0", g)
	}
	if g := snap.Gauges[obs.EndpointAdmissionQueueDepth]; g != 0 {
		t.Errorf("queue-depth gauge = %d after completion, want 0", g)
	}
}

// TestAdmissionPerClientLimit pins the per-client discipline: one client
// at its limit is shed while another client sails through.
func TestAdmissionPerClientLimit(t *testing.T) {
	inner := newBlockingHandler(4)
	adm := NewAdmission(inner, AdmissionConfig{PerClient: 1})
	adm.SetObserver(obs.NewRegistry())
	srv := httptest.NewServer(adm)
	defer srv.Close()

	get := func(client string) (*http.Response, error) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		req.Header.Set("X-Client-ID", client)
		return http.DefaultClient.Do(req)
	}
	done := make(chan int, 1)
	go func() {
		resp, err := get("greedy")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-inner.entered // greedy's first request is executing

	resp, err := get("greedy")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second concurrent request of one client = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}

	go func() {
		resp, err := get("polite")
		if err != nil {
			return
		}
		resp.Body.Close()
	}()
	select {
	case <-inner.entered: // polite client admitted while greedy is parked
	case <-time.After(5 * time.Second):
		t.Fatal("other client was not admitted")
	}

	close(inner.release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("greedy's first request = %d, want 200", code)
	}
	// The per-client map must drain back to empty (no leaked counts).
	waitFor(t, func() bool {
		adm.mu.Lock()
		defer adm.mu.Unlock()
		return len(adm.perClient) == 0
	}, "per-client counts to drain")
}

// TestAdmissionDisabled: the zero config is a transparent pass-through.
func TestAdmissionDisabled(t *testing.T) {
	adm := NewAdmission(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}), AdmissionConfig{})
	adm.SetObserver(obs.NewRegistry())
	srv := httptest.NewServer(adm)
	defer srv.Close()
	for i := 0; i < 10; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTeapot {
			t.Fatalf("request %d = %d, want pass-through 418", i, resp.StatusCode)
		}
	}
	if adm.Rejected() != 0 {
		t.Errorf("Rejected() = %d with no limits", adm.Rejected())
	}
}

// TestAdmissionRetryAfterRounding: sub-second hints round up to 1.
func TestAdmissionRetryAfterRounding(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{200 * time.Millisecond, "1"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
	} {
		adm := NewAdmission(http.NotFoundHandler(), AdmissionConfig{PerClient: 1, RetryAfter: tc.d})
		adm.SetObserver(obs.NewRegistry())
		rec := httptest.NewRecorder()
		adm.reject(rec)
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("RetryAfter=%v: header %q, want %q", tc.d, got, tc.want)
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("RetryAfter=%v: code %d, want 503", tc.d, rec.Code)
		}
	}
}

// TestAdmissionQueueAdmitsWhenSlotFrees: a queued request executes once a
// slot frees, rather than being shed.
func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	first := newBlockingHandler(1)
	var mux http.ServeMux
	mux.Handle("/block", first)
	mux.HandleFunc("/fast", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	reg := obs.NewRegistry()
	adm := NewAdmission(&mux, AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
	adm.SetObserver(reg)
	srv := httptest.NewServer(adm)
	defer srv.Close()

	blocked := make(chan struct{})
	go func() {
		resp, err := http.Get(srv.URL + "/block")
		if err == nil {
			resp.Body.Close()
		}
		close(blocked)
	}()
	<-first.entered

	fast := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/fast")
		if err != nil {
			fast <- -1
			return
		}
		resp.Body.Close()
		fast <- resp.StatusCode
	}()
	waitFor(t, func() bool {
		return reg.Snapshot().Counters[obs.EndpointAdmissionQueued] == 1
	}, "the second request to queue")
	close(first.release)
	if code := <-fast; code != http.StatusOK {
		t.Fatalf("queued request = %d, want 200 after slot freed", code)
	}
	<-blocked
}

// TestAdmissionShedsWhileBodyArrives: a shed request whose body is still
// arriving gets its 503 at once, not after the rest of the body. A POST
// declares 100 body bytes and sends 6 while a handler holds the only slot;
// the status line must arrive within 2 s.
func TestAdmissionShedsWhileBodyArrives(t *testing.T) {
	inner := newBlockingHandler(1)
	srv := httptest.NewServer(NewAdmission(inner, AdmissionConfig{MaxConcurrent: 1}))
	defer srv.Close()
	defer close(inner.release)
	go func() {
		if resp, err := http.Get(srv.URL); err == nil {
			resp.Body.Close()
		}
	}()
	<-inner.entered

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: test\r\nContent-Length: 100\r\n\r\nquery="); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no status line within 2 s of a shed request with its body unfinished: %v", err)
	}
	if !strings.HasPrefix(status, "HTTP/1.1 503 ") {
		t.Fatalf("status line %q, want 503", status)
	}
}

// waitFor polls cond until true or a generous deadline, failing the test
// on timeout. Used where the observable state transition happens inside
// the server goroutines.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
