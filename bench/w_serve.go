package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"alex/internal/endpoint"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/sparql"
	"alex/internal/store"
)

const (
	burstReads = 20 // reads per op
	// Every writeEvery-th op ends with one store.Add, which invalidates
	// every cached result. At 50 (1,000 reads between writes) the result
	// hit ratio is ≈0.6 and the median read is a hit; at 10 it is 0.42 and
	// the workload would time the evaluator, which sparql_cold already does.
	writeEvery    = 50
	servePool     = 2048 // distinct entity queries, 8× the result cache
	walTailWrites = 200  // log records recovery replays on top of the snapshot
	serveStore    = "DBpedia"
)

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1): Zipf with
// exponent exactly 1.0, which math/rand's Zipf (s > 1) cannot produce.
type zipf struct{ cdf []float64 }

func newZipf(n int) zipf {
	cdf := make([]float64, n)
	t := 0.0
	for i := range cdf {
		t += 1 / float64(i+1)
		cdf[i] = t
	}
	for i := range cdf {
		cdf[i] /= t
	}
	return zipf{cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// serveRepeat is the serve_repeat workload: DS1 at scale 1 recovered by
// store.OpenDurable (snapshot + a WAL tail, fsync off) and served as
// `sparqld -data-dir d -wal-fsync off -max-concurrent … -max-queue …`
// serves it: NewCachedHandler with the default cache sizes behind an
// admission controller sized never to shed two callers.
type serveRepeat struct {
	e        *env
	c        *corpus
	sched    querySchedule
	writes   [][]rdf.Triple // [round][op]: the triple an op ends with, zero when none
	round    int
	pristine string // directory holding the snapshot + WAL every round recovers a copy of

	durable *store.Durable
	st      *store.Store
	handler *endpoint.Handler
	adm     *endpoint.Admission
	srv     *endpoint.Server
	reg     *obs.Registry
}

func (w *serveRepeat) prepare(e *env) error {
	w.e, w.c = e, newCorpus(e.sz.scale)
	rng := rand.New(rand.NewSource(e.seed))
	ds1 := w.c.pair.DS1
	subjects := ds1.Subjects()
	rng.Shuffle(len(subjects), func(i, j int) { subjects[i], subjects[j] = subjects[j], subjects[i] })
	if len(subjects) > e.sz.pool {
		subjects = subjects[:e.sz.pool]
	}
	// One template, one request per pool member; an op is a burst of
	// Zipf(1.0)-ranked members, so build the op table directly.
	for _, s := range subjects {
		w.sched.reqs = append(w.sched.reqs, newRequest("entity",
			fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", ds1.Dict().Term(s).String())))
	}
	z := newZipf(len(subjects))
	w.sched.ops = make([][][]int32, e.sz.rounds)
	w.writes = make([][]rdf.Triple, e.sz.rounds)
	for r := range w.sched.ops {
		n := e.sz.warm() + e.sz.opsPerRound
		w.sched.ops[r] = make([][]int32, n)
		w.writes[r] = make([]rdf.Triple, n)
		for i := range w.sched.ops[r] {
			burst := make([]int32, burstReads)
			for j := range burst {
				burst[j] = int32(z.draw(rng))
			}
			w.sched.ops[r][i] = burst
			if i%writeEvery == writeEvery-1 {
				w.writes[r][i] = rdf.Triple{
					S: rdf.NewIRI(fmt.Sprintf("%sfresh/r%d/e%d", benchNS, r, i)),
					P: rdf.NewIRI(rdf.RDFSLabel),
					O: rdf.NewString(fmt.Sprintf("fresh entity %d", rng.Int63())),
				}
			}
		}
	}
	return w.writePristine()
}

// writePristine lays down, once, the on-disk state every round recovers:
// a checkpoint of DS1 plus walTailWrites logged additions left exactly as
// a killed process leaves them.
func (w *serveRepeat) writePristine() error {
	w.pristine = filepath.Join(w.e.tmp, "pristine")
	d, err := store.OpenDurable(serveStore, rdf.NewDict(), w.durableOptions(w.pristine, nil))
	if err != nil {
		return err
	}
	if _, err := store.LoadNTriples(d.Store(), bytes.NewReader(w.c.nt1), store.LoadOptions{}); err != nil {
		return err
	}
	if err := d.Checkpoint(); err != nil {
		return err
	}
	for i := 0; i < walTailWrites; i++ {
		d.Store().Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("%stail/e%d", benchNS, i)),
			P: rdf.NewIRI(rdf.RDFSLabel),
			O: rdf.NewString(fmt.Sprintf("tail entity %d", i)),
		})
	}
	if err := d.Err(); err != nil {
		return err
	}
	d.Kill()
	return nil
}

// durableOptions states the flush policy once: WAL fsync off, checkpoints
// only at shutdown (sparqld's -snapshot 0).
func (w *serveRepeat) durableOptions(dir string, reg *obs.Registry) store.DurableOptions {
	return store.DurableOptions{Dir: dir, Fsync: store.FsyncOff, RotateBytes: math.MaxInt64, Obs: reg}
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (w *serveRepeat) setup(round int, reg *obs.Registry) error {
	w.round, w.reg = round, reg
	dir := filepath.Join(w.e.tmp, fmt.Sprintf("round-%d", round))
	// Laying down the files a killed process left is the harness's work.
	if err := w.e.untimed(func() error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, ext := range []string{".snap", ".wal"} {
			if err := copyFile(filepath.Join(dir, serveStore+ext), filepath.Join(w.pristine, serveStore+ext)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	t0 := time.Now()
	d, err := store.OpenDurable(serveStore, rdf.NewDict(), w.durableOptions(dir, reg))
	if err != nil {
		return err
	}
	if rec := d.RecoveryStats(); !rec.SnapshotLoaded || rec.WALRecords != walTailWrites {
		return fmt.Errorf("recovery found snapshot=%t wal records=%d, want true and %d", rec.SnapshotLoaded, rec.WALRecords, walTailWrites)
	}
	w.durable, w.st = d, d.Store()
	cache := endpoint.NewQueryCache(endpoint.DefaultCacheConfig(), w.st.Generation)
	w.handler = endpoint.NewCachedHandler(w.st, cache)
	w.adm = endpoint.NewAdmission(w.handler, endpoint.AdmissionConfig{
		MaxConcurrent: w.e.clients + 2, MaxQueue: 2 * w.e.clients, RetryAfter: time.Second,
	})
	if reg != nil {
		w.e.tr.sample("store.recover_s", time.Since(t0).Seconds())
		w.st.SetObserver(reg)
		cache.SetObserver(reg)
		w.handler.SetObserver(reg)
		w.adm.SetObserver(reg)
	}
	w.srv, err = startServer(w.adm)
	return err
}

func (w *serveRepeat) goldens() error   { return fillGoldens(w.handler, w.sched.reqs) }
func (w *serveRepeat) endpoint() string { return w.srv.URL() }

func (w *serveRepeat) schedule() []byte {
	b := w.sched.bytes()
	for _, round := range w.writes {
		for i, t := range round {
			if !t.S.IsZero() {
				b = append(b, fmt.Sprintf("write %d %s\n", i, t)...)
			}
		}
	}
	return b
}

// do reads a burst and, on every writeEvery-th op, adds a fresh subject
// in-process (sparqld has no write route): a generation bump that
// invalidates every cached result, and one WAL append.
func (w *serveRepeat) do(c *client, i int) bool {
	ok := w.sched.run(c, w.round, i)
	if t := w.writes[w.round][i]; !t.S.IsZero() {
		t0 := time.Now()
		added := w.st.Add(t)
		if w.reg != nil {
			w.e.tr.sample("store.add", float64(time.Since(t0).Nanoseconds())/1e3)
		}
		ok = ok && added && w.durable.Err() == nil
	}
	return ok
}

// replay serves sampled reads one by one and classifies each as a result
// hit or miss from the cache's own counter, so hit_us is the handler's
// time on a hit and handler_us its time over the real mix.
func (w *serveRepeat) replay(round int) {
	tr := w.e.tr
	tr.sample("datagen.generate_s", w.c.generateS)
	hits := w.reg.Counter(obs.EndpointResultHits)
	for i, burst := range w.sched.replayed(w.e.sz, round) {
		op := round*1_000_000 + i
		root := tr.open(0, op, "op")
		tr.beginOp()
		for _, q := range burst {
			r := &w.sched.reqs[q]
			before := hits.Value()
			t0 := time.Now()
			status, _ := serveInProcess(w.adm, r)
			t1 := time.Now()
			tr.record(root, op, "endpoint.handler", t0, t1)
			us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
			tr.sample("endpoint.request", us)
			if status == http.StatusOK && hits.Value() > before {
				tr.sample("endpoint.cache.hit", us)
			}
		}
		tr.endOp()
		tr.close(root)
	}
	// What a miss costs the evaluator, measured off the cache.
	for i := 0; i < w.e.sz.replayOps && i < len(w.sched.reqs); i++ {
		var prep *sparql.Prepared
		tr.stage(0, 0, "sparql.prepare", func() { prep, _ = sparql.Prepare(w.sched.reqs[i].query) })
		if prep != nil {
			tr.stage(0, 0, "sparql.eval", func() { _, _ = prep.EvalSlots(w.st) })
		}
	}
}

func (w *serveRepeat) teardown(round int) error {
	err := w.srv.Close()
	w.durable.Kill()
	if rerr := os.RemoveAll(filepath.Join(w.e.tmp, fmt.Sprintf("round-%d", round))); err == nil {
		err = rerr
	}
	return err
}
