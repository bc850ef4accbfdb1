// Package traffic is a deterministic weighted-operation traffic simulator
// for the ALEX stack. It drives a live in-process world — a SPARQL
// endpoint over HTTP, a federation with fault-injected members, and an
// ALEX engine — with a seeded, weighted mix of operations (entity
// SELECT/ASK against the endpoint, federated joins with sameAs rewrites,
// feedback episodes, bulk loads, and source outage/recovery flips), while
// continuously checking invariants: no panics, circuit breakers recover
// after outage windows, the engine's blacklist and confirmed links are
// respected, resource usage stays bounded, and a sampled shadow oracle
// re-executes read operations to confirm their results.
//
// Determinism contract: the full operation schedule — kinds and per-op
// seeds — is pre-generated from Config.Seed before execution, each
// operation derives all randomness from its own seed, read-only operations
// run in worker batches whose results are flushed in schedule order, and
// mutations are serial barriers. The same seed therefore reproduces a
// byte-identical operation log and identical invariant outcomes at any
// Workers setting. Wall-clock time enters only through the injected
// Config.Now (latency metrics), which never influences control flow, and
// is nil-safe for fully clock-free runs.
package traffic

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"alex/internal/faultinject"
	"alex/internal/fed"
	"alex/internal/obs"
	"alex/internal/par"
	"alex/internal/store"
)

// Op kinds, in the vocabulary pinned by obs.SimOpNS's documentation.
const (
	OpSelectEntity = "select_entity"
	OpAskEntity    = "ask_entity"
	OpFedJoin      = "fed_join"
	OpFedAsk       = "fed_ask"
	OpFeedback     = "feedback"
	OpBulkLoad     = "bulk_load"
	OpOutageToggle = "outage_toggle"
	// OpRepeatQuery re-issues queries from a small fixed pool against the
	// endpoint, so with Config.Cache the result cache sees repeat traffic.
	OpRepeatQuery = "repeat_query"
	// OpMutateReread adds fresh DS1 triples and immediately re-reads them
	// over HTTP — the cache-coherence probe: a stale cached answer after
	// the mutation (a generation-invalidation bug) is an invariant
	// violation.
	OpMutateReread = "mutate_reread"
	// OpCrashRestart kills the DS1 durability layer mid-run (fd closed, no
	// flush — the simulated kill -9), recovers the data directory into a
	// throwaway store with a fresh dict, and requires the recovered state
	// to be byte-identical (canonical snapshot image) and read-identical
	// (sampled SPARQL digests) to the live store before re-attaching
	// durability. Requires Config.DataDir; a serial barrier.
	OpCrashRestart = "crash_restart"
	// OpLiveUpsert grows DS1 with a brand-new subject mid-run (occasionally
	// also extending a DS2 entity) and folds it into the engine's feature
	// spaces through the incremental delta path — one SyncStores, never a
	// rebuild. Requires Config.Stream; a serial barrier.
	OpLiveUpsert = "live_upsert"
	// OpFeedbackHTTP judges sampled candidate links and submits the
	// verdicts over the wire via POST /feedback with flush, exercising the
	// full streaming ingestion path (JSON, IRI resolution, stream batching,
	// episode apply, federation link refresh). Requires Config.Stream; a
	// serial barrier.
	OpFeedbackHTTP = "feedback_http"
)

// DefaultWeights is the standard operation mix: read-heavy, with enough
// feedback to move the engine and enough churn to exercise recovery.
func DefaultWeights() map[string]int {
	return map[string]int{
		OpSelectEntity: 26,
		OpAskEntity:    12,
		OpFedJoin:      20,
		OpFedAsk:       10,
		OpRepeatQuery:  12,
		OpFeedback:     10,
		OpBulkLoad:     6,
		OpMutateReread: 4,
		OpOutageToggle: 4,
	}
}

// Config parameterizes a simulation run. The zero value is not runnable;
// use at least {Seed, Rounds, OpsPerRound}.
type Config struct {
	// Seed drives the entire run: schedule, per-op randomness, world
	// generation and engine stochastics. Equal seeds reproduce runs.
	Seed int64
	// Rounds is the number of simulation rounds (the logical clock of the
	// outage schedule).
	Rounds int
	// OpsPerRound is how many weighted operations each round executes.
	OpsPerRound int
	// Workers bounds the goroutines executing read-only operations
	// concurrently. 0 means runtime.GOMAXPROCS(0). The op log is
	// byte-identical at any setting.
	Workers int
	// Scale sizes the generated data-set pair (1.0 = the paper benchmarks'
	// DBpedia/NYTimes scenario). 0 means 0.25.
	Scale float64
	// SampleEvery shadow-checks every Nth read-only operation by serial
	// re-execution. 0 disables the shadow oracle.
	SampleEvery int
	// Outages is the scheduled outage plan, in round ticks. Sources are
	// named by data-set name ("NYTimes") or "aux".
	Outages []faultinject.Window
	// Weights overrides DefaultWeights; kinds absent from a non-nil map
	// are disabled. Unknown kinds are an error.
	Weights map[string]int
	// MaxGoroutineGrowth bounds runtime.NumGoroutine growth over the
	// post-setup baseline. 0 means 256.
	MaxGoroutineGrowth int
	// MaxHeapBytes bounds HeapAlloc at round boundaries. 0 means 1 GiB.
	MaxHeapBytes uint64
	// DataDir, when non-empty, runs DS1 durably: the store is attached to
	// a snapshot+WAL pair in this directory at build time, every mutation
	// is write-ahead logged, and the crash_restart op (auto-weighted in
	// when Weights is nil) kill-and-recovers the directory mid-run. The op
	// log never records the path, so runs in different directories stay
	// byte-comparable.
	DataDir string
	// WALSync selects the WAL fsync policy when DataDir is set: "batch"
	// (default), "always" or "off". Recovery equivalence holds under all
	// of them — fsync timing affects what survives a machine crash, not an
	// in-process kill.
	WALSync string
	// Stream runs the streaming loop: the world serves POST /feedback
	// backed by a core.FeedbackStream on the engine, and the live_upsert /
	// feedback_http ops (auto-weighted in when Weights is nil) grow the
	// stores and feed verdicts over the wire. Both ops are serial barriers
	// and always flush, so the op log stays byte-identical at any Workers
	// setting.
	Stream bool
	// Cache serves the endpoint through the prepared-query and result
	// caches behind an admission controller sized above the worker count.
	// Caching is answer-invisible by contract, so the op log of a run is
	// byte-identical with Cache on or off (the header does not record it);
	// only metrics and the admission/cache-coherence invariants differ in
	// what they can observe.
	Cache bool
	// Now supplies wall-clock readings for latency metrics only; control
	// flow never depends on it. nil reports zero durations (clock-free).
	Now func() time.Time
	// Obs receives sim.* metrics; nil disables them.
	Obs *obs.Registry
	// OpLog receives the deterministic operation log; nil discards it.
	OpLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	if c.MaxGoroutineGrowth == 0 {
		c.MaxGoroutineGrowth = 256
	}
	if c.MaxHeapBytes == 0 {
		c.MaxHeapBytes = 1 << 30
	}
	if c.Weights == nil {
		c.Weights = DefaultWeights()
		if c.DataDir != "" {
			// Durable runs crash by default; explicit Weights stay exact.
			c.Weights[OpCrashRestart] = 3
		}
		if c.Stream {
			c.Weights[OpLiveUpsert] = 5
			c.Weights[OpFeedbackHTTP] = 8
		}
	}
	if c.OpLog == nil {
		c.OpLog = io.Discard
	}
	return c
}

func (c Config) validate() error {
	if c.Rounds < 1 {
		return fmt.Errorf("traffic: Rounds must be >= 1, got %d", c.Rounds)
	}
	if c.OpsPerRound < 1 {
		return fmt.Errorf("traffic: OpsPerRound must be >= 1, got %d", c.OpsPerRound)
	}
	if c.Workers < 1 {
		return fmt.Errorf("traffic: Workers must be >= 1, got %d", c.Workers)
	}
	if c.Scale < 0 {
		return fmt.Errorf("traffic: Scale must be positive, got %g", c.Scale)
	}
	if _, err := store.ParseFsyncMode(c.WALSync); err != nil {
		return fmt.Errorf("traffic: %w", err)
	}
	total := 0
	for kind, wgt := range c.Weights {
		if !opKinds[kind] {
			return fmt.Errorf("traffic: unknown op kind %q in Weights", kind)
		}
		if wgt < 0 {
			return fmt.Errorf("traffic: negative weight for op %q", kind)
		}
		if kind == OpCrashRestart && wgt > 0 && c.DataDir == "" {
			return errors.New("traffic: crash_restart weight requires DataDir")
		}
		if (kind == OpLiveUpsert || kind == OpFeedbackHTTP) && wgt > 0 && !c.Stream {
			return fmt.Errorf("traffic: %s weight requires Stream", kind)
		}
		total += wgt
	}
	if total == 0 {
		return errors.New("traffic: all op weights are zero")
	}
	for _, w := range c.Outages {
		if w.Source != "aux" && w.Source != dsName2 {
			return fmt.Errorf("traffic: outage window for unknown source %q", w.Source)
		}
		if w.From < w.To && w.To > c.Rounds {
			return fmt.Errorf("traffic: outage window %v ends after the last round %d, so recovery would never be asserted", w, c.Rounds)
		}
	}
	return nil
}

var opKinds = map[string]bool{
	OpSelectEntity: true,
	OpAskEntity:    true,
	OpFedJoin:      true,
	OpFedAsk:       true,
	OpFeedback:     true,
	OpBulkLoad:     true,
	OpOutageToggle: true,
	OpRepeatQuery:  true,
	OpMutateReread: true,
	OpCrashRestart: true,
	OpLiveUpsert:   true,
	OpFeedbackHTTP: true,
}

// readOnlyKinds may execute concurrently within a batch; everything else
// is a serial barrier.
var readOnlyKinds = map[string]bool{
	OpSelectEntity: true,
	OpAskEntity:    true,
	OpFedJoin:      true,
	OpFedAsk:       true,
	OpRepeatQuery:  true,
}

// schedOp is one pre-scheduled operation: its global sequence number, its
// kind and the seed from which the op derives all of its randomness.
type schedOp struct {
	seq  int
	kind string
	seed int64
}

// buildSchedule pre-generates every operation of the run from one seeded
// stream, so the sequence is fixed before any execution interleaving.
func buildSchedule(cfg Config) [][]schedOp {
	kinds := make([]string, 0, len(cfg.Weights))
	for k, wgt := range cfg.Weights {
		if wgt > 0 {
			kinds = append(kinds, k)
		}
	}
	sort.Strings(kinds)
	total := 0
	cum := make([]int, len(kinds))
	for i, k := range kinds {
		total += cfg.Weights[k]
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rounds := make([][]schedOp, cfg.Rounds)
	seq := 0
	for r := range rounds {
		ops := make([]schedOp, cfg.OpsPerRound)
		for i := range ops {
			n := rng.Intn(total)
			idx := sort.SearchInts(cum, n+1)
			ops[i] = schedOp{seq: seq, kind: kinds[idx], seed: rng.Int63()}
			seq++
		}
		rounds[r] = ops
	}
	return rounds
}

// opOutcome is the result of one executed operation, flushed to the log in
// schedule order.
type opOutcome struct {
	detail   string
	errClass string
	panicked bool
	dur      time.Duration
}

type harness struct {
	cfg     Config
	w       *world
	outages *faultinject.Schedule
	oplog   io.Writer

	violations []Violation
	round      int

	// fedOpsDuring counts federated operations executed while a source is
	// scheduled down, per source; maintained at flush time (serial), so it
	// is deterministic. Reaching fedOpsForOpen guarantees the breaker
	// opened.
	fedOpsDuring map[string]int
	downSources  map[string]bool
	// pendingRecovery is set by an outage_toggle op that brought a source
	// back up; the recovery probe and breaker assertions run after the
	// op's log line is flushed.
	pendingRecovery string

	convergedHigh  int // high-water converged-partition count (monotonicity)
	baseGoroutines int

	samples           map[string][]float64 // op kind -> latency samples (ns)
	opCounts          map[string]int
	errCount          int
	outageTransitions int

	cOps        *obs.Counter
	cErrors     *obs.Counter
	cRounds     *obs.Counter
	cViolations *obs.Counter
	cOutages    *obs.Counter
	cEpisodes   *obs.Counter
}

// fedOpsForOpen is the number of federated operations against a down
// source that guarantees its circuit breaker opened: each op costs the
// source at least MaxRetries+1 = 2 consecutive failures, so two ops meet
// the BreakerFailures = 3 threshold.
const fedOpsForOpen = 2

// Run executes the simulation and returns its report. Setup and usage
// errors are returned as errors; invariant violations are recorded in the
// report (and the op log) instead.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w, err := buildWorld(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()

	h := &harness{
		cfg:          cfg,
		w:            w,
		outages:      faultinject.NewSchedule(cfg.Outages...),
		oplog:        cfg.OpLog,
		fedOpsDuring: make(map[string]int),
		downSources:  make(map[string]bool),
		samples:      make(map[string][]float64),
		opCounts:     make(map[string]int),
		cOps:         cfg.Obs.Counter(obs.SimOps),
		cErrors:      cfg.Obs.Counter(obs.SimOpErrors),
		cRounds:      cfg.Obs.Counter(obs.SimRounds),
		cViolations:  cfg.Obs.Counter(obs.SimViolations),
		cOutages:     cfg.Obs.Counter(obs.SimOutageTransitions),
		cEpisodes:    cfg.Obs.Counter(obs.SimFeedbackEpisodes),
	}
	w.episodeCounter = h.cEpisodes
	h.baseGoroutines = runtime.NumGoroutine()

	schedule := buildSchedule(cfg)
	h.header()
	t0 := h.now()
	for r := range schedule {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("traffic: run canceled at round %d: %w", r, err)
		}
		h.round = r
		h.beginRound(ctx, r)
		h.runRound(ctx, schedule[r])
		h.endRound(r)
	}
	h.finish(ctx)
	wall := h.now().Sub(t0)
	return h.report(wall), nil
}

func (h *harness) now() time.Time {
	if h.cfg.Now == nil {
		return time.Time{}
	}
	return h.cfg.Now()
}

// logf writes one line of the deterministic operation log.
func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.oplog, format+"\n", args...)
}

func (h *harness) header() {
	h.logf("# alexsim oplog v1 seed=%d rounds=%d ops-per-round=%d scale=%g sample-every=%d",
		h.cfg.Seed, h.cfg.Rounds, h.cfg.OpsPerRound, h.cfg.Scale, h.cfg.SampleEvery)
	for _, w := range h.outages.Windows() {
		h.logf("# outage %v", w)
	}
}

// beginRound advances the outage schedule to the new round tick. Down
// transitions reset the per-source fed-op counter; up transitions first
// assert the breaker opened (when enough traffic hit the dead source),
// then restore the source and assert breaker recovery via a probe.
func (h *harness) beginRound(ctx context.Context, round int) {
	h.logf("round %d", round)
	for _, tr := range h.outages.TransitionsAt(round) {
		src := h.w.flaky[tr.Source]
		if src == nil {
			continue
		}
		h.outageTransitions++
		h.cOutages.Inc()
		if tr.Down {
			src.SetDown(true)
			h.downSources[tr.Source] = true
			h.fedOpsDuring[tr.Source] = 0
			h.logf("outage %s down", tr.Source)
			continue
		}
		h.assertBreakerOpened(tr.Source)
		src.SetDown(false)
		delete(h.downSources, tr.Source)
		h.logf("outage %s up", tr.Source)
		h.assertRecovery(ctx, tr.Source)
	}
}

// runRound executes one round's schedule: maximal runs of read-only ops
// as concurrent batches, mutations as serial barriers between them.
func (h *harness) runRound(ctx context.Context, ops []schedOp) {
	i := 0
	for i < len(ops) {
		if readOnlyKinds[ops[i].kind] {
			j := i
			for j < len(ops) && readOnlyKinds[ops[j].kind] {
				j++
			}
			h.runBatch(ctx, ops[i:j])
			i = j
			continue
		}
		h.runSerial(ctx, ops[i])
		i++
	}
}

// runBatch executes read-only ops concurrently under the worker bound,
// then flushes outcomes in schedule order and shadow-checks the sampled
// subset. No mutation runs between batch execution and the shadow
// re-executions, so a correct implementation must reproduce each result.
func (h *harness) runBatch(ctx context.Context, batch []schedOp) {
	outs := make([]opOutcome, len(batch))
	par.Do(len(batch), h.cfg.Workers, func(_, i int) {
		outs[i] = h.execute(ctx, batch[i])
	})
	for i := range batch {
		h.flush(batch[i], outs[i])
	}
	if h.cfg.SampleEvery > 0 {
		for i := range batch {
			if batch[i].seq%h.cfg.SampleEvery == 0 {
				h.shadowCheck(ctx, batch[i], outs[i])
			}
		}
	}
}

func (h *harness) runSerial(ctx context.Context, op schedOp) {
	out := h.execute(ctx, op)
	h.flush(op, out)
	if src := h.pendingRecovery; src != "" {
		h.pendingRecovery = ""
		h.assertBreakerOpened(src)
		h.w.flaky[src].SetDown(false)
		delete(h.downSources, src)
		h.assertRecovery(ctx, src)
	}
}

// execute runs one operation from its own seeded rng, capturing panics as
// outcomes rather than crashing the run (the no_panic invariant).
func (h *harness) execute(ctx context.Context, op schedOp) (out opOutcome) {
	t0 := h.now()
	defer func() {
		if r := recover(); r != nil {
			out.panicked = true
			out.detail = fmt.Sprintf("panic=%v", r)
		}
		out.dur = h.now().Sub(t0)
	}()
	rng := rand.New(rand.NewSource(op.seed))
	var detail string
	var err error
	if op.kind == OpOutageToggle {
		detail, err = h.opOutageToggle(rng)
	} else {
		detail, err = opFuncs[op.kind](ctx, h.w, rng)
	}
	out.detail = detail
	if err != nil {
		out.errClass = errClass(err)
	}
	return out
}

// flush emits one op's log line and accounts it. It runs serially in
// schedule order, so the fed-ops-during-outage counters and all metrics
// derived here are deterministic.
func (h *harness) flush(op schedOp, out opOutcome) {
	suffix := ""
	if out.errClass != "" {
		suffix = " err=" + out.errClass
		h.errCount++
		h.cErrors.Inc()
	}
	h.logf("op %d %s %s%s", op.seq, op.kind, out.detail, suffix)
	if out.panicked {
		h.violate("no_panic", fmt.Sprintf("op %d %s panicked: %s", op.seq, op.kind, out.detail))
	}
	if op.kind == OpMutateReread && strings.Contains(out.detail, "seen=false") {
		h.violate("cache_coherence", fmt.Sprintf("op %d: mutation not visible to the endpoint read-back: %s", op.seq, out.detail))
	}
	if op.kind == OpCrashRestart && strings.Contains(out.detail, "equal=false") {
		h.violate("durability_equiv", fmt.Sprintf("op %d: recovered store diverged from the live store: %s", op.seq, out.detail))
	}
	if op.kind == OpFedJoin || op.kind == OpFedAsk {
		for name := range h.downSources {
			h.fedOpsDuring[name]++
		}
	}
	h.opCounts[op.kind]++
	h.cOps.Inc()
	h.samples[op.kind] = append(h.samples[op.kind], float64(out.dur.Nanoseconds()))
	h.cfg.Obs.Histogram(obs.SimOpNS(op.kind)).Observe(out.dur.Nanoseconds())
}

// shadowCheck re-executes a sampled read-only op serially from the same
// seed and compares results. State has not changed since the batch ran, so
// any divergence is a determinism or isolation bug.
func (h *harness) shadowCheck(ctx context.Context, op schedOp, out opOutcome) {
	re := h.execute(ctx, op)
	if re.detail == out.detail && re.errClass == out.errClass {
		h.logf("inv shadow_oracle op=%d ok", op.seq)
		return
	}
	h.violate("shadow_oracle", fmt.Sprintf("op %d %s: live %q err=%q vs shadow %q err=%q",
		op.seq, op.kind, out.detail, out.errClass, re.detail, re.errClass))
}

// opOutageToggle flips the aux source. Restores are deferred to after the
// op's own log line (pendingRecovery), so probe/assertion lines follow it.
func (h *harness) opOutageToggle(rng *rand.Rand) (string, error) {
	_ = rng.Int63() // consume one value so the op's rng stream is uniform
	if h.downSources["aux"] {
		h.pendingRecovery = "aux"
		h.outageTransitions++
		h.cOutages.Inc()
		return "up=aux", nil
	}
	h.w.flaky["aux"].SetDown(true)
	h.downSources["aux"] = true
	h.fedOpsDuring["aux"] = 0
	h.outageTransitions++
	h.cOutages.Inc()
	return "down=aux", nil
}

func (h *harness) violate(invariant, detail string) {
	h.violations = append(h.violations, Violation{Round: h.round, Invariant: invariant, Detail: detail})
	h.cViolations.Inc()
	h.logf("inv %s VIOLATION %s", invariant, detail)
}

// errClass maps an operation error to a short stable class for the log;
// raw error text can carry addresses and is never logged.
func errClass(err error) string {
	var unavail *fed.SourceUnavailableError
	switch {
	case errors.Is(err, faultinject.ErrInjected):
		return "injected"
	case errors.As(err, &unavail):
		return "source_unavailable"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case strings.Contains(err.Error(), "parse"):
		return "badquery"
	default:
		return "error"
	}
}
