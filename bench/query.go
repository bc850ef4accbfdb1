package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"alex/internal/endpoint"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

// This file is what the HTTP query workloads share: the schedule of
// request sessions, the pool of subjects they are about, loading a
// round's stores, serving a handler, and the traced run's stage replay.

// querySchedule is the pre-generated schedule of an HTTP query workload:
// a table of distinct requests and, per round, each op's requests.
type querySchedule struct {
	reqs []request
	ops  [][][]int32 // [round][op] → indices into reqs
}

// build draws, for every round, warm-up plus timed ops; session(k) names
// the request texts of the op about pool member k.
func (s *querySchedule) build(rng *rand.Rand, sz sizes, pool int, session func(k int) []request) {
	index := map[string]int32{}
	perMember := make([][]int32, pool)
	for k := range perMember {
		for _, r := range session(k) {
			i, ok := index[r.query]
			if !ok {
				i = int32(len(s.reqs))
				index[r.query] = i
				s.reqs = append(s.reqs, r)
			}
			perMember[k] = append(perMember[k], i)
		}
	}
	s.ops = make([][][]int32, sz.rounds)
	for r := range s.ops {
		s.ops[r] = make([][]int32, sz.warm()+sz.opsPerRound)
		for i := range s.ops[r] {
			s.ops[r][i] = perMember[rng.Intn(pool)]
		}
	}
}

func (s *querySchedule) bytes() []byte {
	var b bytes.Buffer
	for r, ops := range s.ops {
		for i, op := range ops {
			fmt.Fprintf(&b, "round %d op %d\n", r, i)
			for _, q := range op {
				b.WriteString(s.reqs[q].query)
				b.WriteByte('\n')
			}
		}
	}
	return b.Bytes()
}

// run executes one op: every request of the session, in order.
func (s *querySchedule) run(c *client, round, i int) bool {
	ok := true
	for _, q := range s.ops[round][i] {
		if !c.query(&s.reqs[q]) {
			ok = false
		}
	}
	return ok
}

// replayed is the slice of a round's timed ops the traced run replays.
func (s *querySchedule) replayed(sz sizes, round int) [][]int32 {
	return s.ops[round][sz.warm():][:min(sz.replayOps, sz.opsPerRound)]
}

// startServer serves h on a loopback port, as sparqld's listener would.
func startServer(h http.Handler) (*endpoint.Server, error) {
	srv := endpoint.NewServer(h)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// persons returns the DS1 subjects that carry a label, a team and a
// position, shuffled by rng and cut to n: the pool every op of
// sparql_cold and fed_sameas is about. One class and one attribute set,
// so every session has the same shape and op latency is unimodal.
func persons(st *store.Store, rng *rand.Rand, n int, keep func(rdf.TermID) bool) []rdf.TermID {
	var out []rdf.TermID
	for _, s := range st.Subjects() {
		if literal(st, s, rdf.RDFSLabel) == "" || literal(st, s, dbo+"team") == "" || literal(st, s, dbo+"position") == "" {
			continue
		}
		if keep == nil || keep(s) {
			out = append(out, s)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// loadStores parses each N-Triples document into a store over one shared
// new dictionary. In a traced round it also reports the store layer's
// load figures: seconds, triples per second and retained heap per triple.
func (e *env) loadStores(reg *obs.Registry, names []string, nts [][]byte) ([]*store.Store, error) {
	dict := rdf.NewDict()
	var m0, m1 runtime.MemStats
	if reg != nil {
		runtime.GC()
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	out := make([]*store.Store, len(names))
	triples := 0
	for i := range names {
		st, err := loadNT(names[i], dict, nts[i], reg)
		if err != nil {
			return nil, err
		}
		out[i] = st
		triples += st.Len()
	}
	if reg != nil {
		d := time.Since(t0).Seconds()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		e.tr.sample("store.load_s", d)
		e.tr.sample("store.load_triples_per_s", float64(triples)/d)
		e.tr.sample("store.bytes_per_triple", (float64(m1.HeapInuse)-float64(m0.HeapInuse))/float64(triples))
	}
	return out, nil
}

// replaySessions is the stage replay of sparql_cold and fed_sameas. Per
// replayed op it opens an "op" span, and per request a "request" span
// under which stages(…) times the workload's own layers and returns the
// rows the evaluator produced; then it times the query func alone and the
// whole handler (no socket). Stage times are summed per op.
func replaySessions(e *env, s *querySchedule, round int, h http.Handler, qf endpoint.QueryFunc,
	tplPrefix, rowsMetric string, stages func(parent, op int, r *request) int) {
	tr := e.tr
	ctx := context.Background()
	for i, session := range s.replayed(e.sz, round) {
		op := round*1_000_000 + i
		root := tr.open(0, op, "op")
		tr.beginOp()
		rows := 0
		for _, q := range session {
			r := &s.reqs[q]
			// Answer once untimed first: the request's data is then as
			// warm for the stages as for the query func and the handler
			// that follow them, or the parts would outweigh the whole.
			_, _ = qf(ctx, r.query)
			reqSpan := tr.open(root, op, "request."+r.tpl)
			rows += stages(reqSpan, op, r)
			t0 := time.Now()
			_, _ = qf(ctx, r.query)
			t1 := time.Now()
			tr.record(reqSpan, op, "endpoint.queryfunc", t0, t1)
			serveInProcess(h, r)
			t2 := time.Now()
			tr.record(reqSpan, op, "endpoint.handler", t1, t2)
			// The template's own figure is per request, not per op.
			tr.sample(tplPrefix+r.tpl, float64(t2.Sub(t1).Nanoseconds())/1e3)
			tr.close(reqSpan)
		}
		tr.endOp()
		tr.close(root)
		tr.sample(rowsMetric, float64(rows))
	}
}
