package endpoint

import (
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"alex/internal/obs"
)

// This file is the endpoint's ingress discipline: a middleware that
// bounds concurrent query execution, queues a bounded backlog, sheds
// load beyond it with 503 + Retry-After, and enforces per-client
// concurrency limits so one chatty client cannot monopolize the server.

// AdmissionConfig tunes the admission controller. Zero values disable
// the corresponding limit.
type AdmissionConfig struct {
	// MaxConcurrent bounds requests executing simultaneously.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot; arrivals
	// beyond MaxConcurrent+MaxQueue are shed with 503.
	MaxQueue int
	// PerClient bounds concurrent requests per client (X-Client-ID
	// header, else the remote address host); the limit counts queued and
	// executing requests alike, and arrivals over it are shed with 503.
	PerClient int
	// RetryAfter is the Retry-After hint attached to 503 responses
	// (rounded up to whole seconds; zero means 1s).
	RetryAfter time.Duration
}

// Admission is an http.Handler wrapper applying AdmissionConfig to every
// request. It is safe for concurrent use.
type Admission struct {
	next http.Handler
	cfg  AdmissionConfig
	sem  chan struct{}

	mu        sync.Mutex
	queueLen  int
	perClient map[string]int
	rejected  atomic.Int64

	cRejected   *obs.Counter
	cQueued     *obs.Counter
	gActive     *obs.Gauge
	gQueueDepth *obs.Gauge
}

// NewAdmission wraps next with the admission controller.
func NewAdmission(next http.Handler, cfg AdmissionConfig) *Admission {
	a := &Admission{next: next, cfg: cfg}
	if cfg.MaxConcurrent > 0 {
		a.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	if cfg.PerClient > 0 {
		a.perClient = make(map[string]int)
	}
	return a
}

// SetObserver attaches a metrics registry: endpoint.admission.rejected,
// endpoint.admission.queued, endpoint.admission.active and
// endpoint.admission.queue_depth. Call before serving.
func (a *Admission) SetObserver(reg *obs.Registry) {
	a.cRejected = reg.Counter(obs.EndpointAdmissionRejected)
	a.cQueued = reg.Counter(obs.EndpointAdmissionQueued)
	a.gActive = reg.Gauge(obs.EndpointAdmissionActive)
	a.gQueueDepth = reg.Gauge(obs.EndpointAdmissionQueueDepth)
}

// clientKey identifies the requester: the X-Client-ID header when set
// (how the simulator and tests pin identities), else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// ServeHTTP implements http.Handler: admit, queue, or shed.
func (a *Admission) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	client := ""
	if a.perClient != nil {
		client = clientKey(r)
		a.mu.Lock()
		if a.perClient[client] >= a.cfg.PerClient {
			a.mu.Unlock()
			a.reject(w)
			return
		}
		a.perClient[client]++
		a.mu.Unlock()
		defer func() {
			a.mu.Lock()
			if a.perClient[client]--; a.perClient[client] == 0 {
				delete(a.perClient, client)
			}
			a.mu.Unlock()
		}()
	}
	if a.sem == nil {
		a.gActive.Add(1)
		defer a.gActive.Add(-1)
		a.next.ServeHTTP(w, r)
		return
	}
	select {
	case a.sem <- struct{}{}: // free slot, no queueing
	default:
		a.mu.Lock()
		if a.queueLen >= a.cfg.MaxQueue {
			a.mu.Unlock()
			a.reject(w)
			return
		}
		a.queueLen++
		a.mu.Unlock()
		a.cQueued.Inc()
		a.gQueueDepth.Add(1)
		select {
		case a.sem <- struct{}{}:
			a.leaveQueue()
		case <-r.Context().Done():
			a.leaveQueue()
			// The client is gone; any status is invisible to it.
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
	}
	a.gActive.Add(1)
	defer func() {
		a.gActive.Add(-1)
		<-a.sem
	}()
	a.next.ServeHTTP(w, r)
}

// Rejected reports how many requests have been shed, independent of any
// metrics registry — harnesses assert on it directly (the traffic
// simulator's invariant is zero rejections while offered concurrency stays
// within the configured capacity).
func (a *Admission) Rejected() int64 { return a.rejected.Load() }

func (a *Admission) leaveQueue() {
	a.mu.Lock()
	a.queueLen--
	a.mu.Unlock()
	a.gQueueDepth.Add(-1)
}

// reject sheds one request: 503 with a Retry-After hint, per RFC 9110.
// The reply closes the connection, so net/http sends it at once instead
// of first reading whatever of the request body is still to arrive.
func (a *Admission) reject(w http.ResponseWriter) {
	retry := a.cfg.RetryAfter
	if retry <= 0 {
		retry = time.Second
	}
	secs := int((retry + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("Connection", "close")
	a.rejected.Add(1)
	a.cRejected.Inc()
	http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
}
