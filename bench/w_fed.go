package main

import (
	"context"
	"fmt"
	"math/rand"

	"alex/internal/endpoint"
	"alex/internal/fed"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

// newFederation assembles what sparqld assembles for two -data files and
// a -links file: a federation over both stores with the default
// resilience policy (sparqld's -timeout and -retries defaults equal
// fed.DefaultResilience's).
func newFederation(ds1, ds2 *store.Store, links *linkset.Set, reg *obs.Registry) *fed.Federation {
	f := fed.New(ds1.Dict(), ds1, ds2)
	f.SetLinks(links)
	f.SetResilience(fed.DefaultResilience())
	if reg != nil {
		f.SetObserver(reg)
	}
	return f
}

// fedSameAs is the fed_sameas workload: the DBpedia–NYTimes pair at scale
// 4 federated with truth ∪ decoy links and served through
// fed.CachedEndpointQueryFunc with a nil cache, so every op runs fed's own
// operators, bound joins and sameAs rewriting.
type fedSameAs struct {
	e     *env
	c     *corpus
	sched querySchedule
	round int

	f       *fed.Federation
	handler *endpoint.Handler
	srv     *endpoint.Server
}

func (w *fedSameAs) prepare(e *env) error {
	w.e, w.c = e, newCorpus(e.sz.scale)
	rng := rand.New(rand.NewSource(e.seed))
	ds1 := w.c.pair.DS1
	linked := map[rdf.TermID]bool{}
	for _, l := range w.c.pair.Truth.Links() {
		linked[l.Left] = true
	}
	pool := persons(ds1, rng, e.sz.pool, func(s rdf.TermID) bool { return linked[s] })
	if len(pool) == 0 {
		return fmt.Errorf("no linked subject with label, team and position at scale %g", e.sz.scale)
	}
	w.sched.build(rng, e.sz, len(pool), func(k int) []request {
		s := ds1.Dict().Term(pool[k]).String()
		team := literal(ds1, pool[k], dbo+"team")
		return []request{
			newRequest("xjoin", fmt.Sprintf("SELECT ?s ?l ?pl WHERE { ?s %s %s . ?s %s ?l . ?s %s ?pl }", dboTeam, team, rdfsLabel, nytLabel)),
			newRequest("const", fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", s)),
			newRequest("ask", fmt.Sprintf("ASK { %s %s ?x }", s, nytLabel)),
			newRequest("agg", fmt.Sprintf("SELECT ?pos (COUNT(?s) AS ?n) WHERE { ?s %s %s . ?s %s ?pos } GROUP BY ?pos", dboTeam, team, nytPos)),
		}
	})
	return nil
}

func (w *fedSameAs) setup(round int, reg *obs.Registry) error {
	w.round = round
	st, err := w.e.loadStores(reg, []string{"DBpedia", "NYTimes"}, [][]byte{w.c.nt1, w.c.nt2})
	if err != nil {
		return err
	}
	links := linkset.FromLinks(internLinks(st[0].Dict(), w.c.links))
	w.f = newFederation(st[0], st[1], links, reg)
	w.handler = endpoint.NewQueryHandler(fed.CachedEndpointQueryFunc(w.f, nil), nil)
	if reg != nil {
		w.handler.SetObserver(reg)
	}
	w.srv, err = startServer(w.handler)
	return err
}

func (w *fedSameAs) goldens() error           { return fillGoldens(w.handler, w.sched.reqs) }
func (w *fedSameAs) do(c *client, i int) bool { return w.sched.run(c, w.round, i) }
func (w *fedSameAs) endpoint() string         { return w.srv.URL() }
func (w *fedSameAs) schedule() []byte         { return w.sched.bytes() }
func (w *fedSameAs) teardown(round int) error { return w.srv.Close() }

// replay times Federation.ExecuteContext per request next to the query
// func and the handler.
func (w *fedSameAs) replay(round int) {
	tr := w.e.tr
	tr.sample("datagen.generate_s", w.c.generateS)
	ctx := context.Background()
	qf := fed.CachedEndpointQueryFunc(w.f, nil)
	replaySessions(w.e, &w.sched, round, w.handler, qf, "fed.tpl.", "fed.answers_per_op", func(parent, op int, r *request) int {
		rows := 0
		tr.stage(parent, op, "fed.execute", func() {
			if res, err := w.f.ExecuteContext(ctx, r.query); err == nil {
				rows = len(res.Answers)
			}
		})
		return rows
	})
	sessions := w.sched.replayed(w.e.sz, round)
	n := 0
	for _, session := range sessions {
		n += len(session)
	}
	tr.sample("fed.allocs_per_execute", allocsPer(n, func() {
		for _, session := range sessions {
			for _, q := range session {
				_, _ = w.f.ExecuteContext(ctx, w.sched.reqs[q].query)
			}
		}
	}))
}
