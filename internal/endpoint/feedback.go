package endpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"alex/internal/core"
	"alex/internal/linkset"
	"alex/internal/rdf"
)

// Streaming feedback ingestion: POST /feedback accepts user verdicts on
// links (the paper's Figure 1 interactive loop, over the wire) and
// hands them to a FeedbackFunc, normally backed by a core.FeedbackStream.
// The route shares the handler's admission controller with /sparql, and
// applied batches run engine episodes that change the candidate set;
// internal/serve republishes it as the federation's links (bumping the
// data generation), which invalidates the result cache.

// FeedbackItem is one user verdict on a link, by IRI.
type FeedbackItem struct {
	Left     string `json:"left"`
	Right    string `json:"right"`
	Approved bool   `json:"approved"`
}

// FeedbackRequest is the POST /feedback body.
type FeedbackRequest struct {
	Items []FeedbackItem `json:"items"`
	// Flush forces the stream to apply everything buffered (including
	// these items) before responding, so the response reflects a fully
	// applied state. Without it the stream applies on its batch cadence.
	Flush bool `json:"flush,omitempty"`
}

// FeedbackResponse reports what happened to a feedback submission.
type FeedbackResponse struct {
	// Accepted items entered the stream buffer; Shed were rejected at
	// capacity; Unknown named IRIs the dictionary does not know, a left
	// entity that is no ds1 subject, or a right entity that is no ds2
	// subject in a link that is no candidate.
	Accepted int `json:"accepted"`
	Shed     int `json:"shed"`
	Unknown  int `json:"unknown"`
	// Pending is the stream's buffered depth after this request;
	// Batches counts episodes this request applied.
	Pending int `json:"pending"`
	Batches int `json:"batches"`
	// Candidates is the engine's candidate count after this request
	// (unchanged when no batch applied).
	Candidates int `json:"candidates"`
}

// FeedbackFunc ingests one feedback request.
type FeedbackFunc func(ctx context.Context, req FeedbackRequest) (*FeedbackResponse, error)

// SetFeedbackFunc enables POST /feedback. Call before serving.
func (h *Handler) SetFeedbackFunc(fn FeedbackFunc) { h.feedback = fn }

func (h *Handler) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if h.feedback == nil {
		http.Error(w, "feedback ingestion not enabled", http.StatusNotImplemented)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "feedback requires POST", http.StatusMethodNotAllowed)
		return
	}
	h.cFeedback.Inc()
	body, err := readBody(r)
	if err != nil {
		http.Error(w, fmt.Sprintf("reading feedback body: %v", err), requestStatus(err))
		return
	}
	var req FeedbackRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("decoding feedback body: %v", err), http.StatusBadRequest)
		return
	}
	resp, err := h.feedback(r.Context(), req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, resp)
}

// EngineFeedbackFunc adapts a core engine + feedback stream to the
// /feedback route. IRIs are resolved through dict without interning —
// feedback on unknown entities is counted, not minted into the
// dictionary — and so is an item that names no ds1 subject on the left,
// or on the right no ds2 subject in a link that is no candidate
// (core.Engine.Judgeable): an episode would drop it, or intern its link
// for good. The request does not sync the stores; the batch that applies
// the items does. onApplied (optional) observes every applied episode;
// internal/serve's node uses it to republish the candidate set as the
// federation's links, which bumps the data generation and invalidates
// cached results.
func EngineFeedbackFunc(eng *core.Engine, stream *core.FeedbackStream, dict *rdf.Dict, onApplied func(core.EpisodeStats)) FeedbackFunc {
	return func(_ context.Context, req FeedbackRequest) (*FeedbackResponse, error) {
		items := make([]core.Feedback, 0, len(req.Items))
		unknown := 0
		for _, it := range req.Items {
			left, okL := dict.Lookup(rdf.NewIRI(it.Left))
			right, okR := dict.Lookup(rdf.NewIRI(it.Right))
			l := linkset.Link{Left: left, Right: right}
			if !okL || !okR || !eng.Judgeable(l) {
				unknown++
				continue
			}
			items = append(items, core.Feedback{Link: l, Approved: it.Approved})
		}
		accepted, applied := stream.Submit(items...)
		if req.Flush {
			applied = append(applied, stream.Flush()...)
		}
		resp := &FeedbackResponse{
			Accepted: accepted,
			Shed:     len(items) - accepted,
			Unknown:  unknown,
			Pending:  stream.Pending(),
			Batches:  len(applied),
		}
		if onApplied != nil {
			for _, st := range applied {
				onApplied(st)
			}
		}
		resp.Candidates = eng.CandidateCount()
		return resp, nil
	}
}
