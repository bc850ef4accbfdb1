package endpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"alex/internal/core"
	"alex/internal/datagen"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
)

// feedbackWorld wires a small engine + stream behind a handler.
type feedbackWorld struct {
	pair    *datagen.Pair
	engine  *core.Engine
	stream  *core.FeedbackStream
	handler *Handler
	applied int
}

func newFeedbackWorld(t testing.TB, batchSize int) *feedbackWorld {
	p := datagen.GeneratePair(datagen.NBADBpediaNYTimes(0.3, 51))
	cfg := core.Defaults()
	cfg.Partitions = 2
	cfg.EpisodeSize = 40
	cfg.Seed = 51
	w := &feedbackWorld{pair: p}
	w.engine = core.New(p.DS1, p.DS2, cfg)
	w.engine.SetInitialLinks(p.Truth.Links())
	w.stream = w.engine.FeedbackStream(core.StreamConfig{Capacity: 256, BatchSize: batchSize})
	w.handler = NewQueryHandler(
		func(context.Context, string) (*Result, error) { return &Result{}, nil }, nil)
	w.handler.SetFeedbackFunc(EngineFeedbackFunc(w.engine, w.stream, p.Dict,
		func(core.EpisodeStats) { w.applied++ }))
	return w
}

// post sends one /feedback request through the handler.
func (w *feedbackWorld) post(t testing.TB, body []byte) (*httptest.ResponseRecorder, *FeedbackResponse) {
	req := httptest.NewRequest(http.MethodPost, "/feedback", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	w.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp FeedbackResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v (%s)", err, rec.Body.String())
	}
	return rec, &resp
}

// requestFor renders truth links into a wire request.
func (w *feedbackWorld) requestFor(links []linkset.Link, flush bool) []byte {
	req := FeedbackRequest{Flush: flush}
	for _, l := range links {
		req.Items = append(req.Items, FeedbackItem{
			Left:     w.pair.Dict.Term(l.Left).Value,
			Right:    w.pair.Dict.Term(l.Right).Value,
			Approved: true,
		})
	}
	b, _ := json.Marshal(req)
	return b
}

func TestFeedbackRoute(t *testing.T) {
	w := newFeedbackWorld(t, 4)
	reg := obs.NewRegistry()
	w.handler.SetObserver(reg)
	links := w.pair.Truth.Links()
	if len(links) < 6 {
		t.Fatalf("only %d truth links", len(links))
	}

	// Below batch size: buffered, nothing applied.
	rec, resp := w.post(t, w.requestFor(links[:3], false))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Accepted != 3 || resp.Batches != 0 || resp.Pending != 3 {
		t.Fatalf("buffered submit = %+v, want 3 accepted, 0 batches, 3 pending", resp)
	}

	// Flush: everything applies, onApplied fires per batch, candidates
	// are reported.
	_, resp = w.post(t, w.requestFor(links[3:6], true))
	if resp.Accepted != 3 || resp.Pending != 0 {
		t.Fatalf("flush submit = %+v, want 3 accepted, 0 pending", resp)
	}
	if resp.Batches == 0 || w.applied != resp.Batches {
		t.Fatalf("onApplied fired %d times for %d batches", w.applied, resp.Batches)
	}
	if resp.Candidates == 0 {
		t.Error("response reports zero candidates after approvals")
	}
	if got := reg.Counter(obs.EndpointFeedbackRequests).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", obs.EndpointFeedbackRequests, got)
	}
}

func TestFeedbackUnknownIRIs(t *testing.T) {
	w := newFeedbackWorld(t, 4)
	body, _ := json.Marshal(FeedbackRequest{
		Items: []FeedbackItem{
			{Left: "http://nowhere.test/a", Right: "http://nowhere.test/b", Approved: true},
		},
		Flush: true,
	})
	_, resp := w.post(t, body)
	if resp.Unknown != 1 || resp.Accepted != 0 {
		t.Fatalf("unknown-IRI submit = %+v, want 1 unknown, 0 accepted", resp)
	}
}

// TestFeedbackSwappedLinkIsUnknown: a link given right-to-left names two
// IRIs the dictionary knows, but its left entity is a ds2 entity that no
// partition owns, so an episode would drop it. The response must say so
// (unknown, not accepted), and nothing may be submitted.
func TestFeedbackSwappedLinkIsUnknown(t *testing.T) {
	w := newFeedbackWorld(t, 4)
	l := w.pair.Truth.Links()[0]
	before := w.engine.Candidates().Links()
	body, _ := json.Marshal(FeedbackRequest{
		Items: []FeedbackItem{{
			Left:     w.pair.Dict.Term(l.Right).Value,
			Right:    w.pair.Dict.Term(l.Left).Value,
			Approved: false,
		}},
		Flush: true,
	})
	_, resp := w.post(t, body)
	if resp == nil {
		t.Fatal("request failed")
	}
	if resp.Accepted != 0 || resp.Unknown != 1 || resp.Batches != 0 {
		t.Errorf("swapped-link submit = %+v, want 0 accepted, 1 unknown, 0 batches", resp)
	}
	if got := w.stream.Stats(); got.Submitted != 0 {
		t.Errorf("stream took %d items, want 0", got.Submitted)
	}
	if after := w.engine.Candidates().Links(); !slices.Equal(after, before) {
		t.Errorf("candidate set changed: %d -> %d links", len(before), len(after))
	}
}

// TestFeedbackRightNotDS2IsUnknown: a link whose right IRI the dictionary
// knows but that is no ds2 subject — another ds1 subject, or a predicate —
// is counted unknown, and nothing is submitted: accepted, it would intern
// a link id in its partition for good.
func TestFeedbackRightNotDS2IsUnknown(t *testing.T) {
	w := newFeedbackWorld(t, 4)
	links := w.pair.Truth.Links()
	if _, ok := w.pair.Dict.Lookup(rdf.NewIRI(rdf.RDFSLabel)); !ok {
		t.Fatal("rdfs:label is not in the dictionary")
	}
	body, _ := json.Marshal(FeedbackRequest{
		Items: []FeedbackItem{
			{Left: w.pair.Dict.Term(links[0].Left).Value, Right: w.pair.Dict.Term(links[1].Left).Value, Approved: true},
			{Left: w.pair.Dict.Term(links[0].Left).Value, Right: rdf.RDFSLabel, Approved: true},
		},
		Flush: true,
	})
	_, resp := w.post(t, body)
	if resp == nil {
		t.Fatal("request failed")
	}
	if resp.Accepted != 0 || resp.Unknown != 2 || resp.Batches != 0 {
		t.Errorf("right-not-DS2 submit = %+v, want 0 accepted, 2 unknown, 0 batches", resp)
	}
	if got := w.stream.Stats(); got.Submitted != 0 {
		t.Errorf("stream took %d items, want 0", got.Submitted)
	}
}

// TestFeedbackCandidatesIsTheCount: resp.Candidates comes from the
// engine's count accessor, and must equal the size of the set a caller
// would get from Candidates() whether the request applied a batch (here
// with rejections, so the set shrinks as well as grows), only buffered, or
// named nothing the engine knows.
func TestFeedbackCandidatesIsTheCount(t *testing.T) {
	w := newFeedbackWorld(t, 4)
	links := w.pair.Truth.Links()
	check := func(name string, resp *FeedbackResponse) {
		t.Helper()
		if resp == nil {
			t.Fatalf("%s: request failed", name)
		}
		if want := w.engine.Candidates().Len(); resp.Candidates != want || w.engine.CandidateCount() != want {
			t.Errorf("%s: response reports %d candidates, CandidateCount %d, Candidates().Len() %d",
				name, resp.Candidates, w.engine.CandidateCount(), want)
		}
	}
	before := w.engine.CandidateCount()

	var applied FeedbackRequest
	if err := json.Unmarshal(w.requestFor(links[:8], true), &applied); err != nil {
		t.Fatal(err)
	}
	for i := range applied.Items {
		applied.Items[i].Approved = i%2 == 0
	}
	body, _ := json.Marshal(applied)
	_, resp := w.post(t, body)
	check("applied", resp)
	if resp.Batches == 0 || resp.Candidates == before {
		t.Errorf("applied request left the count at %d after %d batches; the test needs it to move", before, resp.Batches)
	}

	_, resp = w.post(t, w.requestFor(links[8:10], false))
	check("unapplied", resp)
	if resp.Batches != 0 || resp.Pending != 2 {
		t.Errorf("unapplied request = %+v, want 0 batches, 2 pending", resp)
	}

	body, _ = json.Marshal(FeedbackRequest{Items: []FeedbackItem{
		{Left: "http://nowhere.test/a", Right: "http://nowhere.test/b"},
	}})
	_, resp = w.post(t, body)
	check("unknown-only", resp)
	if resp.Unknown != 1 || resp.Accepted != 0 {
		t.Errorf("unknown-only request = %+v, want 1 unknown, 0 accepted", resp)
	}
}

func TestFeedbackRouteErrors(t *testing.T) {
	w := newFeedbackWorld(t, 4)

	rec := httptest.NewRecorder()
	w.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/feedback", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /feedback = %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	w.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader("{not json")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON = %d, want 400", rec.Code)
	}

	bare := NewQueryHandler(func(context.Context, string) (*Result, error) { return &Result{}, nil }, nil)
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader("{}")))
	if rec.Code != http.StatusNotImplemented {
		t.Errorf("unset feedback func = %d, want 501", rec.Code)
	}
}

// TestFeedbackShedReported drives the buffer past capacity and checks
// the response owns up to it.
func TestFeedbackShedReported(t *testing.T) {
	w := newFeedbackWorld(t, 4)
	w.stream = w.engine.FeedbackStream(core.StreamConfig{Capacity: 2, BatchSize: 64})
	w.handler.SetFeedbackFunc(EngineFeedbackFunc(w.engine, w.stream, w.pair.Dict, nil))
	links := w.pair.Truth.Links()
	if len(links) < 5 {
		t.Fatalf("only %d truth links", len(links))
	}
	_, resp := w.post(t, w.requestFor(links[:5], false))
	if resp.Accepted != 2 || resp.Shed != 3 {
		t.Fatalf("overflow submit = %+v, want 2 accepted, 3 shed", resp)
	}
}

// TestFeedbackBodyTooLarge: a /feedback body over 1 MiB is answered 413,
// not decoded cut short.
func TestFeedbackBodyTooLarge(t *testing.T) {
	w := newFeedbackWorld(t, 4)
	rec, _ := w.post(t, append([]byte(`{"items": []}`), bytes.Repeat([]byte(" "), 1<<20)...))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", rec.Code)
	}
}

// TestFeedbackUnsyncedNewcomerIsAccepted: a judgement on a ds1 subject
// added after the engine last synced its stores is accepted, not counted
// unknown — even when the request does not flush, so nothing has routed
// the subject yet — and the batch that applies it routes the subject.
func TestFeedbackUnsyncedNewcomerIsAccepted(t *testing.T) {
	w := newFeedbackWorld(t, 4)
	l := w.pair.Truth.Links()[0]
	e, _ := w.pair.DS1.Entity(l.Left)
	newcomer := w.pair.Dict.InternIRI("http://newcomer.test/e")
	for i := range e.Preds {
		w.pair.DS1.AddID(rdf.TripleID{S: newcomer, P: e.Preds[i], O: e.Objs[i]})
	}
	_, resp := w.post(t, w.requestFor([]linkset.Link{{Left: newcomer, Right: l.Right}}, false))
	if resp == nil {
		t.Fatal("request failed")
	}
	if resp.Accepted != 1 || resp.Unknown != 0 || resp.Batches != 0 {
		t.Fatalf("unflushed submit on a newcomer = %+v, want 1 accepted, 0 unknown, 0 batches", resp)
	}
	if _, resp = w.post(t, w.requestFor(nil, true)); resp == nil || resp.Batches != 1 {
		t.Fatalf("flush = %+v, want 1 batch", resp)
	}
	if _, ok := w.engine.PartitionOf(newcomer); !ok {
		t.Error("the applied batch did not route the newcomer")
	}
}
