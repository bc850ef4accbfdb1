package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"alex/internal/core"
	"alex/internal/endpoint"
	"alex/internal/feature"
	"alex/internal/fed"
	"alex/internal/feedback"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

const (
	judgementsPerOp = 16
	oracleErrorRate = 0.10
	feedbackParts   = 4
)

// cycle is one pre-generated feedback_loop op: the new DS1 subject's
// triples and the random draws that pick judgements from whatever the
// candidate set is when the op runs.
type cycle struct {
	subject rdf.Term
	triples []rdf.Triple
	picks   [judgementsPerOp]uint32
}

// feedbackLoop is the feedback_loop workload: the paper's loop as
// `sparqld -data a.nt -data b.nt -links l.nt -feedback -feedback-batch 16`
// serves it — a core.Engine whose candidates back the federation's
// sameAs links, a FeedbackStream behind POST /feedback, and a cached
// federated handler — with the engine sized as internal/traffic sizes it.
type feedbackLoop struct {
	e      *env
	c      *corpus
	cycles [][]cycle // [round][op]
	round  int

	ds1, ds2 *store.Store
	dict     *rdf.Dict
	truth    *linkset.Set
	engine   *core.Engine
	stream   *core.FeedbackStream
	f        *fed.Federation
	srv      *endpoint.Server
	oracle   *feedback.Oracle
	reg      *obs.Registry
	dropped  int // judgements this round's applied batches discarded as converged
}

func (w *feedbackLoop) prepare(e *env) error {
	w.e, w.c = e, newCorpus(e.sz.scale)
	rng := rand.New(rand.NewSource(e.seed))
	ds2 := w.c.pair.DS2
	rights := ds2.Subjects()
	w.cycles = make([][]cycle, e.sz.rounds)
	for r := range w.cycles {
		w.cycles[r] = make([]cycle, e.sz.warm()+e.sz.opsPerRound)
		for i := range w.cycles[r] {
			// The newcomer copies a DS2 entity's name, so it genuinely
			// scores against the right side (as internal/traffic's
			// live_upsert does); five triples, like a generated entity.
			label, ok := object(ds2, rights[rng.Intn(len(rights))], nyt+"prefLabel")
			if !ok {
				label = rdf.NewString(fmt.Sprintf("newcomer %d", i))
			}
			subj := rdf.NewIRI(fmt.Sprintf("%snew/r%d/e%d", benchNS, r, i))
			c := cycle{subject: subj, triples: []rdf.Triple{
				{S: subj, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("http://dbpedia.sim/class/Person")},
				{S: subj, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(rdf.OWLThing)},
				{S: subj, P: rdf.NewIRI(dbo + "label"), O: label},
				{S: subj, P: rdf.NewIRI(rdf.RDFSLabel), O: label},
				{S: subj, P: rdf.NewIRI(dbo + "position"), O: rdf.NewString([]string{"PG", "SG", "SF", "PF", "C"}[rng.Intn(5)])},
			}}
			for j := range c.picks {
				c.picks[j] = rng.Uint32()
			}
			w.cycles[r][i] = c
		}
	}
	return nil
}

func (w *feedbackLoop) schedule() []byte {
	var b bytes.Buffer
	for r, cycles := range w.cycles {
		for i, c := range cycles {
			fmt.Fprintf(&b, "round %d op %d %v\n", r, i, c.picks)
			for _, t := range c.triples {
				fmt.Fprintln(&b, t)
			}
		}
	}
	return b.Bytes()
}

func (w *feedbackLoop) setup(round int, reg *obs.Registry) error {
	w.round, w.reg, w.dropped = round, reg, 0
	st, err := w.e.loadStores(reg, []string{"DBpedia", "NYTimes"}, [][]byte{w.c.nt1, w.c.nt2})
	if err != nil {
		return err
	}
	w.ds1, w.ds2, w.dict = st[0], st[1], st[0].Dict()
	w.truth = linkset.FromLinks(internLinks(w.dict, w.c.truth))
	w.f = newFederation(w.ds1, w.ds2, linkset.New(), reg)

	cfg := core.Defaults()
	cfg.Seed = w.e.seed
	cfg.Partitions = feedbackParts
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.EpisodeSize = judgementsPerOp
	cfg.MaxEpisodes = 1 << 20
	if reg == nil {
		w.engine = core.New(w.ds1, w.ds2, cfg)
	} else {
		w.e.tr.stage(0, 0, "core.new", func() { w.engine = core.New(w.ds1, w.ds2, cfg) })
		w.engine.SetObserver(reg)
		sampleFeatureBuild(w.e.tr, w.ds1, w.ds2, cfg)
	}
	w.engine.SetInitialLinks(internLinks(w.dict, w.c.links))
	w.f.SetLinks(w.engine.Candidates())
	w.stream = w.engine.FeedbackStream(core.StreamConfig{BatchSize: judgementsPerOp})

	cache := endpoint.NewQueryCache(endpoint.DefaultCacheConfig(), w.f.DataGeneration)
	handler := endpoint.NewQueryHandler(fed.CachedEndpointQueryFunc(w.f, cache), nil)
	apply := endpoint.EngineFeedbackFunc(w.engine, w.stream, w.dict, w.republish)
	handler.SetFeedbackFunc(apply)
	if reg != nil {
		cache.SetObserver(reg)
		handler.SetObserver(reg)
		handler.SetFeedbackFunc(func(ctx context.Context, req endpoint.FeedbackRequest) (*endpoint.FeedbackResponse, error) {
			t0 := time.Now()
			resp, err := apply(ctx, req)
			w.e.tr.sample("endpoint.feedback.handler", float64(time.Since(t0).Nanoseconds())/1e3)
			return resp, err
		})
	}
	// One oracle per round, so a round's verdicts depend on the seed and
	// the round alone.
	w.oracle = feedback.NewOracle(w.truth, oracleErrorRate, rand.New(rand.NewSource(w.e.seed+int64(round))))
	w.srv, err = startServer(handler)
	return err
}

// republish is sparqld's onApplied: the refreshed candidate set becomes
// the federation's links, which bumps the data generation and so
// invalidates every cached federated answer. Traced rounds time its two
// halves apart.
func (w *feedbackLoop) republish(st core.EpisodeStats) {
	w.dropped += st.DroppedConverged
	if w.reg == nil {
		w.f.SetLinks(w.engine.Candidates())
		return
	}
	var cands *linkset.Set
	w.e.tr.stage(0, 0, "core.candidates", func() { cands = w.engine.Candidates() })
	w.e.tr.stage(0, 0, "fed.setlinks", func() { w.f.SetLinks(cands) })
}

func (w *feedbackLoop) goldens() error   { return nil } // replies depend on live state; do checks each one
func (w *feedbackLoop) endpoint() string { return w.srv.URL() }

// do runs one cycle: add a subject → judge 16 current candidates over
// POST /feedback with flush → re-read over HTTP a link the batch judged.
func (w *feedbackLoop) do(c *client, i int) bool {
	cy := &w.cycles[w.round][i]
	for _, t := range cy.triples {
		w.ds1.Add(t)
	}
	if w.reg != nil {
		// Fold the newcomer in now, around a timer; the stream's own sync
		// inside the POST then finds nothing left to do.
		w.e.tr.stage(0, 0, "feature.upsert", func() { w.engine.SyncStores() })
	}

	cands, allConverged := w.liveCandidates()
	if len(cands) == 0 {
		return false
	}
	req := endpoint.FeedbackRequest{Flush: true, Items: make([]endpoint.FeedbackItem, judgementsPerOp)}
	// The re-read is about the first rejected link, else the first judged.
	// A rejection must take effect unless the link's partition has already
	// converged (only when all have: see liveCandidates).
	var probe linkset.Link
	rejected := false
	for j, pick := range cy.picks {
		l := cands[int(pick)%len(cands)]
		approved := w.oracle.Judge(l)
		req.Items[j] = endpoint.FeedbackItem{Left: w.dict.Term(l.Left).Value, Right: w.dict.Term(l.Right).Value, Approved: approved}
		if j == 0 || (!approved && !rejected) {
			probe = l
		}
		rejected = rejected || !approved
	}
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	status, err := c.post("/feedback", "application/json", string(body))
	if err != nil || status != http.StatusOK {
		return false
	}
	var resp endpoint.FeedbackResponse
	if json.Unmarshal(c.buf.Bytes(), &resp) != nil {
		return false
	}
	if w.reg != nil {
		w.e.tr.sample("endpoint.feedback.unknown", float64(resp.Unknown))
	}
	ok := resp.Accepted == judgementsPerOp && resp.Shed == 0 && resp.Unknown == 0 && resp.Batches >= 1

	// The re-read asks the federation for the right-hand labels reachable
	// from the probe's left entity. What it must return follows from the
	// candidate set now in force: a just-rejected link may no longer
	// contribute its row.
	left := w.dict.Term(probe.Left).String()
	r := newRequest("reread", fmt.Sprintf("SELECT ?pl WHERE { %s %s ?pl }", left, nytLabel))
	status, err = c.post("/sparql", "application/x-www-form-urlencoded", r.form)
	if err != nil || status != http.StatusOK {
		return false
	}
	got, decoded := digestResults(c.buf.Bytes())
	if rejected && !allConverged && w.f.Links().Contains(probe) {
		ok = false
	}
	return ok && decoded && got.rows == w.expectedLabels(probe.Left)
}

// liveCandidates lists the candidate links a judgement can still act on:
// those of partitions that have not converged. A converged partition
// discards its feedback, and a caller who kept judging its links would
// time the discarding, not the loop. When every partition has converged
// the whole candidate set is returned and the judgements are wasted,
// which core.dropped_converged_share then shows.
func (w *feedbackLoop) liveCandidates() (links []linkset.Link, allConverged bool) {
	for pi := 0; pi < w.engine.Partitions(); pi++ {
		if !w.engine.PartitionConverged(pi) {
			links = append(links, w.engine.PartitionCandidates(pi)...)
		}
	}
	if len(links) == 0 {
		return w.engine.Candidates().Links(), true
	}
	return links, false
}

// expectedLabels counts the prefLabel triples of every right entity the
// engine's candidates still tie to left: one answer row each.
func (w *feedbackLoop) expectedLabels(left rdf.TermID) int {
	pred, ok := w.dict.Lookup(rdf.NewIRI(nyt + "prefLabel"))
	if !ok {
		return 0
	}
	pi, ok := w.engine.PartitionOf(left)
	if !ok {
		return 0
	}
	rows := 0
	for _, l := range w.engine.PartitionCandidates(pi) {
		if l.Left == left {
			rows += len(w.ds2.Match(l.Right, pred, rdf.NoTerm))
		}
	}
	return rows
}

func (w *feedbackLoop) replay(round int) {
	tr := w.e.tr
	tr.sample("datagen.generate_s", w.c.generateS)
	if h := w.reg.Histogram(obs.CoreEpisodeNS).Snapshot(); h.Count > 0 {
		tr.sample("core.episode", h.P50/1e3) // bucket-interpolated median of ApplyEpisode
	}
}

// teardown records the round's link quality and wasted-judgement share.
func (w *feedbackLoop) teardown(round int) error {
	q := linkset.Evaluate(w.engine.Candidates(), w.truth)
	judged := float64((w.e.sz.warm() + w.e.sz.opsPerRound) * judgementsPerOp)
	w.e.quality.add(q, float64(w.dropped)/judged)
	return w.srv.Close()
}

// sampleFeatureBuild times feature.Build for the first partition alone
// (one worker), probes the space it built with ExploreN, and reports how
// much of the cross product the θ filter kept.
func sampleFeatureBuild(tr *tracer, ds1, ds2 *store.Store, cfg core.Config) {
	parts := feature.Partition(ds1.Subjects(), cfg.Partitions)
	opt := cfg.SpaceOptions
	opt.Theta, opt.Workers = cfg.Theta, 1
	var sp *feature.Space
	tr.stage(0, 0, "feature.build", func() { sp = feature.Build(ds1, parts[0], ds2, opt) })
	if sp.TotalPairs() > 0 {
		tr.sample("feature.filtered_pair_share", float64(sp.Len())/float64(sp.TotalPairs()))
	}
	links := sp.Links()
	for i := 0; i < len(links) && i < 256; i++ {
		fs, ok := sp.FeatureSet(links[i])
		if !ok || fs.Len() == 0 {
			continue
		}
		f, v := fs.Features[0], fs.Scores[0]
		tr.stage(0, 0, "feature.explore", func() { sp.ExploreN(f, v, cfg.StepSize, cfg.MaxExplored) })
	}
}
