// Package serve assembles the served feedback loop of the paper's Figure 1
// once: federated answers, feedback, link exploration, new candidate links,
// and the next query sees them. A Node owns the loop's one decision: the
// federation's sameAs links are the engine's candidates, every applied
// episode republishes them, and the result cache is keyed on the
// federation's data generation, which each republish moves.
package serve

import (
	"net/http"

	"alex/internal/core"
	"alex/internal/endpoint"
	"alex/internal/fed"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/store"
)

// Config is what the callers of New set differently. Links are the initial
// candidates of an engine over New's left and right stores; with a nil
// Engine, New serves the static links the caller set on the federation.
type Config struct {
	Engine    *core.Config
	Links     []linkset.Link
	Stream    core.StreamConfig
	Cache     endpoint.CacheConfig
	Admission endpoint.AdmissionConfig
	Obs       *obs.Registry
}

// Node is one served loop. Engine and Stream are nil when the links are
// static.
type Node struct {
	Fed    *fed.Federation
	Engine *core.Engine
	Stream *core.FeedbackStream
	cfg    Config
}

// New builds the loop over f, whose members (and, without an engine,
// links) the caller has set, as its resilience and parallelism, and
// publishes an engine's initial links.
func New(f *fed.Federation, left, right *store.Store, cfg Config) *Node {
	n := &Node{Fed: f, cfg: cfg}
	f.SetObserver(cfg.Obs)
	if cfg.Engine == nil {
		return n
	}
	n.Engine = core.New(left, right, *cfg.Engine)
	n.Engine.SetObserver(cfg.Obs)
	n.Engine.SetInitialLinks(cfg.Links)
	n.Stream = n.Engine.FeedbackStream(cfg.Stream)
	n.Republish()
	return n
}

// Republish makes the engine's candidates the federation's links, which
// moves the data generation and so invalidates cached results. Call it
// after changing the engine's candidates outside Apply and FeedbackFunc.
func (n *Node) Republish() {
	if n.Engine != nil {
		n.Fed.SetLinks(n.Engine.Candidates())
	}
}

// Apply runs items as one episode and republishes.
func (n *Node) Apply(items []core.Feedback) core.EpisodeStats {
	st := n.Engine.ApplyEpisode(items)
	n.Republish()
	return st
}

// Judge expands a verdict on one federated answer into the same verdict
// on every link the answer used (fed.Answer.Used): feedback on answers is
// feedback on their links.
func (n *Node) Judge(used []linkset.Link, approved bool) (items []core.Feedback) {
	for _, l := range used {
		items = append(items, core.Feedback{Link: l, Approved: approved})
	}
	return items
}

// FeedbackFunc backs POST /feedback with the node's stream; every episode
// the stream applies republishes.
func (n *Node) FeedbackFunc() endpoint.FeedbackFunc {
	return endpoint.EngineFeedbackFunc(n.Engine, n.Stream, n.Fed.Dict(), func(core.EpisodeStats) { n.Republish() })
}

// Handler serves the federation: /sparql behind the prepared-query and
// result caches, /debug/trace, /feedback when there is an engine, and
// admission when any limit is set. stats may be nil.
func (n *Node) Handler(stats func() map[string]any) http.Handler {
	cache := endpoint.NewQueryCache(n.cfg.Cache, n.Fed.DataGeneration)
	cache.SetObserver(n.cfg.Obs)
	h := endpoint.NewQueryHandler(fed.CachedEndpointQueryFunc(n.Fed, cache), stats)
	if n.Engine != nil {
		h.SetFeedbackFunc(n.FeedbackFunc())
	}
	h.SetObserver(n.cfg.Obs)
	return Admit(h, n.cfg.Admission, n.cfg.Obs)
}

// Admit puts h behind an admission controller, or returns it as it is
// when cfg sets no limit.
func Admit(h http.Handler, cfg endpoint.AdmissionConfig, reg *obs.Registry) http.Handler {
	if cfg.MaxConcurrent <= 0 && cfg.MaxQueue <= 0 && cfg.PerClient <= 0 {
		return h
	}
	adm := endpoint.NewAdmission(h, cfg)
	adm.SetObserver(reg)
	return adm
}
