package main

import (
	"fmt"
	"math/rand"

	"alex/internal/endpoint"
	"alex/internal/obs"
	"alex/internal/sparql"
	"alex/internal/store"
)

// sparqlCold is the sparql_cold workload: DS1 at scale 4 loaded from
// N-Triples and served by endpoint.NewHandler with no cache and no
// admission — the single-store stack `sparqld -data f.nt -prepared-cache 0
// -result-cache 0` serves.
type sparqlCold struct {
	e     *env
	c     *corpus
	sched querySchedule
	round int

	st      *store.Store
	handler *endpoint.Handler
	srv     *endpoint.Server
}

func (w *sparqlCold) prepare(e *env) error {
	w.e, w.c = e, newCorpus(e.sz.scale)
	rng := rand.New(rand.NewSource(e.seed))
	ds1 := w.c.pair.DS1
	pool := persons(ds1, rng, e.sz.pool, nil)
	if len(pool) == 0 {
		return fmt.Errorf("no subject with label, team and position at scale %g", e.sz.scale)
	}
	w.sched.build(rng, e.sz, len(pool), func(k int) []request {
		s := ds1.Dict().Term(pool[k]).String()
		team, pos := literal(ds1, pool[k], dbo+"team"), literal(ds1, pool[k], dbo+"position")
		return []request{
			newRequest("star", fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", s)),
			newRequest("join", fmt.Sprintf("SELECT ?o ?l WHERE { %s %s ?t . ?o %s ?t . ?o %s ?l } ORDER BY ?l ?o LIMIT 10", s, dboTeam, dboTeam, rdfsLabel)),
			newRequest("regex", fmt.Sprintf("SELECT ?s ?l WHERE { ?s %s %s . ?s %s ?l . FILTER regex(?l, \"^[A-M]\") }", dboTeam, team, rdfsLabel)),
			newRequest("optional", fmt.Sprintf("SELECT ?o ?b WHERE { ?o %s %s . ?o %s %s . OPTIONAL { ?o %s ?b } }", dboTeam, team, dboPos, pos, dboBirth)),
			newRequest("group", fmt.Sprintf("SELECT ?pos (COUNT(?o) AS ?n) WHERE { ?o %s %s . ?o %s ?pos } GROUP BY ?pos", dboTeam, team, dboPos)),
		}
	})
	return nil
}

func (w *sparqlCold) setup(round int, reg *obs.Registry) error {
	w.round = round
	st, err := w.e.loadStores(reg, []string{"DBpedia"}, [][]byte{w.c.nt1})
	if err != nil {
		return err
	}
	w.st = st[0]
	w.handler = endpoint.NewHandler(w.st)
	if reg != nil {
		w.handler.SetObserver(reg)
	}
	w.srv, err = startServer(w.handler)
	return err
}

func (w *sparqlCold) goldens() error           { return fillGoldens(w.handler, w.sched.reqs) }
func (w *sparqlCold) do(c *client, i int) bool { return w.sched.run(c, w.round, i) }
func (w *sparqlCold) endpoint() string         { return w.srv.URL() }
func (w *sparqlCold) schedule() []byte         { return w.sched.bytes() }
func (w *sparqlCold) teardown(int) error       { return w.srv.Close() }

// replay times, for the replayed ops, each stage of the single-store
// path: normalise → prepare → evaluate in id space → materialise, then the
// query func and the whole handler. Materialise is not on the handler's
// path (it encodes straight from slots); it is what in-process callers
// and fed pay instead of encoding.
func (w *sparqlCold) replay(round int) {
	tr := w.e.tr
	tr.sample("datagen.generate_s", w.c.generateS)
	qf := endpoint.CachedStoreQueryFunc(w.st, nil)
	replaySessions(w.e, &w.sched, round, w.handler, qf, "sparql.tpl.", "sparql.rows_per_op", func(parent, op int, r *request) int {
		var prep *sparql.Prepared
		var res *sparql.SlotResult
		tr.stage(parent, op, "sparql.normalize", func() { _, _ = sparql.NormalizeQuery(r.query) })
		tr.stage(parent, op, "sparql.prepare", func() { prep, _ = sparql.Prepare(r.query) })
		if prep == nil {
			return 0
		}
		tr.stage(parent, op, "sparql.eval", func() { res, _ = prep.EvalSlots(w.st) })
		if res == nil {
			return 0
		}
		tr.stage(parent, op, "sparql.materialize", func() { res.Materialize() })
		return res.Len()
	})
	// Evaluation's allocations alone: prepare outside the measured window.
	var preps []*sparql.Prepared
	for _, session := range w.sched.replayed(w.e.sz, round) {
		for _, q := range session {
			if prep, err := sparql.Prepare(w.sched.reqs[q].query); err == nil {
				preps = append(preps, prep)
			}
		}
	}
	tr.sample("sparql.allocs_per_eval", allocsPer(len(preps), func() {
		for _, prep := range preps {
			_, _ = prep.EvalSlots(w.st)
		}
	}))
}
