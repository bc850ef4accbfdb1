// Package alex is the public API of the ALEX reproduction: a system that
// improves the quality of owl:sameAs links between RDF data sets by
// learning from user feedback on the answers to federated queries
// (El-Roby & Aboulnaga, "ALEX: Automatic Link Exploration in Linked Data").
//
// The typical workflow mirrors the paper's Figure 1:
//
//	ws := alex.NewWorkspace()
//	dbpedia, _ := ws.LoadDataset("dbpedia", file1)   // N-Triples
//	nytimes, _ := ws.LoadDataset("nytimes", file2)
//
//	sess := ws.NewSession(dbpedia, nytimes, alex.Options{})
//	sess.SeedFromPARIS()                              // automatic linking
//
//	res, _ := sess.Query(ctx, `SELECT ?article WHERE { ... }`) // federated
//	sess.Approve(res.Answers[0])                      // feedback on answers
//	sess.Reject(res.Answers[1])
//	sess.EndEpisode()                                 // policy improvement
//
//	links := sess.Links()                             // improved sameAs links
//
// Everything is implemented from scratch on the Go standard library: the
// RDF store and N-Triples parser (internal/rdf, internal/store), a SPARQL
// subset with a FedX-style federated executor that tracks per-answer link
// provenance (internal/sparql, internal/fed), the PARIS baseline linker
// (internal/paris), the feature space with θ-filtering and partitioning
// (internal/feature), and the Monte-Carlo reinforcement-learning engine
// itself (internal/rl, internal/core).
package alex

import (
	"context"
	"fmt"
	"io"
	"slices"

	"alex/internal/core"
	"alex/internal/fed"
	"alex/internal/linkset"
	"alex/internal/paris"
	"alex/internal/rdf"
	"alex/internal/serve"
	"alex/internal/store"
)

// Term is an RDF term (IRI, literal or blank node).
type Term = rdf.Term

// Triple is an RDF statement.
type Triple = rdf.Triple

// Convenience term constructors re-exported from the RDF core.
var (
	IRI        = rdf.NewIRI
	String     = rdf.NewString
	LangString = rdf.NewLangString
	Typed      = rdf.NewTyped
	Int        = rdf.NewInt
	Float      = rdf.NewFloat
	Date       = rdf.NewDate
)

// Workspace owns the term dictionary shared by a group of data sets that
// will be linked and queried together.
type Workspace struct {
	dict *rdf.Dict
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{dict: rdf.NewDict()}
}

// Dataset is one RDF data set in a workspace.
type Dataset struct {
	st *store.Store
}

// NewDataset creates an empty data set named name.
func (w *Workspace) NewDataset(name string) *Dataset {
	return &Dataset{st: store.New(name, w.dict)}
}

// LoadDataset reads N-Triples from r into a new data set. Large inputs are
// parsed on all available cores (see store.LoadNTriples); the result is
// identical to a serial load.
func (w *Workspace) LoadDataset(name string, r io.Reader) (*Dataset, error) {
	ds := w.NewDataset(name)
	if _, err := store.LoadNTriples(ds.st, r, store.LoadOptions{}); err != nil {
		return nil, fmt.Errorf("alex: loading %s: %w", name, err)
	}
	return ds, nil
}

// LoadDatasetTurtle reads Turtle from r into a new data set.
func (w *Workspace) LoadDatasetTurtle(name string, r io.Reader) (*Dataset, error) {
	ds := w.NewDataset(name)
	if _, err := store.LoadTurtle(ds.st, r, store.LoadOptions{}); err != nil {
		return nil, fmt.Errorf("alex: loading %s: %w", name, err)
	}
	return ds, nil
}

// Name returns the data-set name.
func (d *Dataset) Name() string { return d.st.Name() }

// Add inserts one triple.
func (d *Dataset) Add(t Triple) { d.st.Add(t) }

// Len returns the number of triples.
func (d *Dataset) Len() int { return d.st.Len() }

// Stats summarizes the data set.
func (d *Dataset) Stats() string { return d.st.Stats().String() }

// Link is one owl:sameAs candidate between an entity of the first data set
// and one of the second, materialized as IRIs.
type Link struct {
	Left, Right Term
}

// Options configures a session. The zero value uses the paper's defaults
// (step size 0.05, episode size 1000, ε = 0.1, θ = 0.3, blacklist and
// rollback enabled).
type Options struct {
	// StepSize is the exploration offset around an approved feature value.
	StepSize float64
	// EpisodeSize is the number of feedback items per learning episode.
	EpisodeSize int
	// Epsilon is the ε-greedy exploration rate.
	Epsilon float64
	// Partitions is the number of parallel search-space partitions.
	Partitions int
	// Seed makes runs reproducible.
	Seed int64
	// ParisThreshold is the minimum PARIS score for seed links (paper: 0.95).
	ParisThreshold float64
}

// Session links two data sets end-to-end: federated querying, feedback on
// answers, and ALEX's link exploration. It corresponds to the full system
// of the paper's Figure 1.
type Session struct {
	ws       *Workspace
	ds1, ds2 *Dataset
	node     *serve.Node
	opt      Options

	pendingFeedback []core.Feedback
}

// NewSession builds the linking session. The first data set should be the
// larger one (it is the partitioned side). Construction precomputes the
// feature space and may take time proportional to the candidate pair count.
func (w *Workspace) NewSession(ds1, ds2 *Dataset, opt Options) *Session {
	cfg := core.Defaults()
	if opt.StepSize != 0 {
		cfg.StepSize = opt.StepSize
	}
	if opt.EpisodeSize != 0 {
		cfg.EpisodeSize = opt.EpisodeSize
	}
	if opt.Epsilon != 0 {
		cfg.Epsilon = opt.Epsilon
	}
	if opt.Partitions != 0 {
		cfg.Partitions = opt.Partitions
	}
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	return &Session{
		ws:   w,
		ds1:  ds1,
		ds2:  ds2,
		node: serve.New(fed.New(w.dict, ds1.st, ds2.st), ds1.st, ds2.st, serve.Config{Engine: &cfg}),
		opt:  opt,
	}
}

// SeedFromPARIS runs the PARIS automatic linker over the two data sets and
// installs every link scoring above the threshold (default 0.95) as the
// initial candidate set, as in the paper's evaluation setup.
func (s *Session) SeedFromPARIS() int {
	cfg := paris.DefaultConfig()
	if s.opt.ParisThreshold != 0 {
		cfg.Threshold = s.opt.ParisThreshold
	}
	scored := paris.Link(s.ds1.st, s.ds2.st, cfg)
	links := make([]linkset.Link, len(scored))
	for i, sc := range scored {
		links[i] = sc.Link
	}
	s.node.Engine.SetInitialLinks(links)
	s.node.Republish()
	return len(links)
}

// SeedLinks installs an explicit initial candidate link set (from any
// automatic linking algorithm, per the paper's design).
func (s *Session) SeedLinks(links []Link) int {
	ids := make([]linkset.Link, 0, len(links))
	for _, l := range links {
		left, ok1 := s.ws.dict.Lookup(l.Left)
		right, ok2 := s.ws.dict.Lookup(l.Right)
		if !ok1 || !ok2 {
			continue
		}
		ids = append(ids, linkset.Link{Left: left, Right: right})
	}
	s.node.Engine.SetInitialLinks(ids)
	s.node.Republish()
	return len(ids)
}

// Answer is one federated query answer with its variable bindings and the
// sameAs links used to produce it.
type Answer struct {
	Bindings map[string]Term
	links    []linkset.Link
}

// UsedLinks reports how many sameAs links produced this answer. Answers
// with zero used links came from a single data set and carry no feedback
// signal for ALEX.
func (a Answer) UsedLinks() int { return len(a.links) }

// QueryResult is a federated query result. Skipped is non-empty only when
// a Resilience policy with PartialResults is installed and a source was
// unavailable: the answers may then be incomplete.
type QueryResult struct {
	Vars    []string
	Answers []Answer
	Skipped []fed.SourceSkip
}

// Partial reports whether any source was skipped producing this result.
func (r *QueryResult) Partial() bool { return len(r.Skipped) > 0 }

// Resilience is the federation fault-tolerance configuration (timeouts,
// retries, circuit breakers, partial results); see fed.Resilience and
// DefaultResilience.
type Resilience = fed.Resilience

// DefaultResilience returns production-shaped fault-tolerance settings.
func DefaultResilience() Resilience { return fed.DefaultResilience() }

// SetResilience installs a fault-tolerance policy on the session's
// federation. Mostly relevant when remote sources are added; the default
// in-process session never fails.
func (s *Session) SetResilience(r Resilience) { s.node.Fed.SetResilience(r) }

// Query runs a SPARQL SELECT query over both data sets, bridging entities
// through the current candidate links and recording per-answer provenance.
// Cancellation and deadlines on ctx are propagated into every source call.
func (s *Session) Query(ctx context.Context, query string) (*QueryResult, error) {
	res, err := s.node.Fed.ExecuteContext(ctx, query)
	if err != nil {
		return nil, err
	}
	out := &QueryResult{Vars: res.Vars, Skipped: res.Skipped}
	for _, a := range res.Answers {
		ans := Answer{Bindings: map[string]Term{}, links: a.Used}
		for v, t := range a.Binding {
			ans.Bindings[v] = t
		}
		out.Answers = append(out.Answers, ans)
	}
	return out, nil
}

// Approve marks a query answer correct. ALEX interprets this as positive
// feedback on every link used to produce the answer.
func (s *Session) Approve(a Answer) {
	s.pendingFeedback = append(s.pendingFeedback, s.node.Judge(a.links, true)...)
}

// Reject marks a query answer incorrect: negative feedback on its links.
func (s *Session) Reject(a Answer) {
	s.pendingFeedback = append(s.pendingFeedback, s.node.Judge(a.links, false)...)
}

// EndEpisode feeds the collected feedback to the engine as one episode
// (policy evaluation + policy improvement), refreshes the federation's
// links, and reports how many candidate links changed. Only links the user
// actually judged reach the engine; answers without feedback trigger no
// action, exactly as in the paper (§4, "if no feedback is provided on an
// answer, this answer will simply not trigger an action").
func (s *Session) EndEpisode() (changed int) {
	st := s.node.Apply(s.pendingFeedback)
	s.pendingFeedback = nil
	return st.Changed
}

// RunSimulated drives the engine with a programmatic judge until
// convergence, for batch usage without interactive queries. The judge
// receives materialized links.
func (s *Session) RunSimulated(judge func(Link) bool, maxEpisodes int) int {
	episodes := 0
	for !s.node.Engine.Converged() && episodes < maxEpisodes {
		s.node.Engine.RunEpisode(func(l linkset.Link) bool {
			return judge(s.materialize(l))
		})
		episodes++
	}
	s.node.Republish()
	return episodes
}

// Links returns the current candidate sameAs links, materialized.
func (s *Session) Links() []Link {
	ids := s.node.Engine.Candidates().Links()
	out := make([]Link, len(ids))
	for i, l := range ids {
		out[i] = s.materialize(l)
	}
	return out
}

// Converged reports whether the engine has converged.
func (s *Session) Converged() bool { return s.node.Engine.Converged() }

// SaveState checkpoints everything the session has learned — candidate
// links, blacklist, value estimates and policy — so a restarted process can
// resume with LoadState instead of relearning from scratch.
func (s *Session) SaveState(w io.Writer) error { return s.node.Engine.SaveState(w) }

// LoadState restores a checkpoint written by SaveState. The session must
// have been built over the same data sets with the same partition count.
func (s *Session) LoadState(r io.Reader) error {
	if err := s.node.Engine.LoadState(r); err != nil {
		return err
	}
	s.node.Republish()
	return nil
}

// FeatureQuality re-exports the engine's explainability record: what one
// partition learned about a (predicate, predicate) feature in one
// similarity band.
type FeatureQuality = core.FeatureQuality

// LearnedFeatures reports what the session has learned about which
// attribute pairs identify equivalent entities, across all partitions, in
// core.CompareFeatures order: by mean return, then evidence, then
// predicates and band. Only entries with at least minVisits supporting
// returns are included.
func (s *Session) LearnedFeatures(minVisits int) []FeatureQuality {
	var out []FeatureQuality
	for i := 0; i < s.node.Engine.Partitions(); i++ {
		out = append(out, s.node.Engine.FeatureReport(i, minVisits)...)
	}
	slices.SortFunc(out, core.CompareFeatures)
	return out
}

func (s *Session) materialize(l linkset.Link) Link {
	return Link{Left: s.ws.dict.Term(l.Left), Right: s.ws.dict.Term(l.Right)}
}

// Conflict reports one entity currently linked to several counterparts —
// a functional violation worth reviewing first, since owl:sameAs between
// deduplicated data sets should be one-to-one.
type Conflict struct {
	// Entity is the shared endpoint; Side is "left" or "right".
	Entity Term
	Side   string
	// Partners are the conflicting counterparts.
	Partners []Term
}

// Conflicts audits the current candidate links for functional violations.
// A link is one hop: a query crosses it and never a second link from its
// far end. So two entities of one data set linked to one counterpart form
// a chain that is reported here as a conflict and is never composed into
// one class of three.
func (s *Session) Conflicts() []Conflict {
	var out []Conflict
	for _, c := range linkset.Conflicts(s.node.Engine.Candidates()) {
		conflict := Conflict{Entity: s.ws.dict.Term(c.Entity), Side: c.Side}
		for _, p := range c.Partners {
			conflict.Partners = append(conflict.Partners, s.ws.dict.Term(p))
		}
		out = append(out, conflict)
	}
	return out
}
