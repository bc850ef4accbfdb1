package fed

// This file is the federation's fault-tolerance layer. Remote sources are
// routinely slow, flaky or down (Umbrich et al., "Improving the Recall of
// Decentralised Linked Data Querying"), so every source call runs under
// bounded retries with exponential backoff and jitter and a per-source
// circuit breaker, and every call to a source that can wait also under a
// per-call timeout. The breaker quarantines a failing endpoint: after
// BreakerFailures consecutive failures it opens and the source is ejected
// from source selection until BreakerCooldown elapses, then a half-open
// trial call decides between closing it again and re-opening. With
// PartialResults enabled a source that stays unavailable past its retry
// budget is skipped instead of failing the query, and the result is
// annotated with the skipped sources. What the policy means for one source
// is resolved into its member (fed.go) when either is installed, so a
// healthy probe pays a branch and two atomic loads for it.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"alex/internal/obs"
)

// Resilience configures the federation's fault-tolerance. The zero value
// disables everything; DefaultResilience returns production-shaped
// settings. Install with Federation.SetResilience.
type Resilience struct {
	// Timeout bounds each individual call to a source that can wait — a
	// remote endpoint, or any Source handed to AddSource: one Count
	// probe, or one match of one row against one source for one pattern (a
	// bound join makes rows × sources of them, plus one per sameAs alias).
	// A call into an in-process store (the sources New builds, LocalSource)
	// cannot block and is not timed: a query over such stores is bounded by
	// the caller's context, checked between rows. Zero means no per-call
	// timeout; the caller's context deadline still applies.
	Timeout time.Duration
	// MaxRetries is how many times a failed source call is retried beyond
	// the first attempt.
	MaxRetries int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it, capped at BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff. Zero means no cap.
	BackoffMax time.Duration
	// Jitter is the fraction (0..1) of each backoff delay that is
	// randomized, de-synchronizing retry storms across workers.
	Jitter float64
	// BreakerFailures is the number of consecutive failures that opens a
	// source's circuit breaker. Zero disables the breaker.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker rejects calls before
	// allowing a half-open trial.
	BreakerCooldown time.Duration
	// PartialResults degrades gracefully: a source that is unavailable
	// past its retry budget (or breaker-open) is skipped and recorded in
	// Result.Skipped instead of failing the whole query.
	PartialResults bool
	// Seed makes the backoff jitter deterministic, for tests. Zero seeds
	// from the default source.
	Seed int64
}

// DefaultResilience returns the recommended production settings: 10s
// per-call timeout, 2 retries starting at 50ms backoff (capped at 2s, 20%
// jitter), breaker opening after 5 consecutive failures with a 10s
// cooldown, partial results off.
func DefaultResilience() Resilience {
	return Resilience{
		Timeout:         10 * time.Second,
		MaxRetries:      2,
		BackoffBase:     50 * time.Millisecond,
		BackoffMax:      2 * time.Second,
		Jitter:          0.2,
		BreakerFailures: 5,
		BreakerCooldown: 10 * time.Second,
	}
}

// ErrCircuitOpen marks calls rejected because the source's circuit breaker
// is open. Use errors.Is against a SourceUnavailableError's cause.
var ErrCircuitOpen = errors.New("circuit breaker open")

// SourceUnavailableError reports that a member source could not answer a
// call after exhausting its retry budget (or was quarantined by its
// breaker). With PartialResults enabled it never escapes Federation.Eval —
// the source is skipped instead.
type SourceUnavailableError struct {
	Source string
	Err    error
}

func (e *SourceUnavailableError) Error() string {
	return fmt.Sprintf("fed: source %s unavailable: %v", e.Source, e.Err)
}

func (e *SourceUnavailableError) Unwrap() error { return e.Err }

// Breaker states, exported through Federation.BreakerState and the
// fed.breaker.<name>.state gauge.
const (
	BreakerClosed   = 0
	BreakerOpen     = 1
	BreakerHalfOpen = 2
)

// breaker is one source's circuit breaker: closed (normal), open
// (quarantined after BreakerFailures consecutive failures) and half-open
// (cooldown elapsed, trial calls admitted). It is safe for concurrent use
// by parallel bound-join workers.
type breaker struct {
	cfg Resilience

	// troubled is false exactly while the breaker is closed with no failure
	// streak — the state a healthy source keeps it in, where admitting a
	// call and recording its success change nothing and so take one atomic
	// load each instead of mu. Written under mu.
	troubled atomic.Bool

	mu       sync.Mutex
	state    int
	failures int // consecutive failures while closed
	openedAt time.Time

	gState *obs.Gauge   // 0 closed / 1 open / 2 half-open
	cOpens *obs.Counter // transitions into open
}

func newBreaker(cfg Resilience) *breaker { return &breaker{cfg: cfg} }

// allow reports whether a call may proceed, transitioning open → half-open
// once the cooldown has elapsed.
func (b *breaker) allow() bool {
	if b == nil || !b.troubled.Load() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && time.Since(b.openedAt) >= b.cfg.BreakerCooldown {
		b.setState(BreakerHalfOpen)
	}
	return b.state != BreakerOpen
}

// onSuccess records a successful call: it resets the failure streak, and
// closes a half-open breaker.
func (b *breaker) onSuccess() {
	if b == nil || !b.troubled.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.setState(BreakerClosed)
	}
	b.failures = 0
	b.troubled.Store(b.state != BreakerClosed)
}

// onFailure records a failed call: half-open re-opens immediately; closed
// opens once the consecutive-failure threshold is reached.
func (b *breaker) onFailure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.troubled.Store(true)
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.BreakerFailures {
			b.open()
		}
	}
}

// open transitions into the open state. Caller holds b.mu.
func (b *breaker) open() {
	b.openedAt = time.Now()
	if b.state != BreakerOpen {
		b.setState(BreakerOpen)
		b.cOpens.Inc()
	}
}

// setState updates the state and its gauge. Caller holds b.mu.
func (b *breaker) setState(s int) {
	b.state = s
	b.gState.Set(int64(s))
}

// bind (re)binds the breaker's instruments, keeping its state.
func (b *breaker) bind(opens *obs.Counter, state *obs.Gauge) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cOpens, b.gState = opens, state
	b.gState.Set(int64(b.state))
}

// currentState returns the breaker state without side effects.
func (b *breaker) currentState() int {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// SetResilience installs (or, with the zero Resilience, removes) the
// fault-tolerance layer: per-call timeouts, retries with exponential
// backoff + jitter, per-source circuit breakers and optional partial
// results. Metrics (when an observer is attached): fed.source_errors,
// fed.retries, fed.retry_giveups, fed.breaker_opens and per-source
// fed.breaker.<name>.state gauges, fed.partial_queries and
// fed.skipped_sources. Every source — added before or after — is under the
// policy; installing one starts every breaker closed. Like SetObserver,
// never call it concurrently with query evaluation.
func (f *Federation) SetResilience(r Resilience) {
	f.res = r
	f.resOn = r != (Resilience{})
	for _, m := range f.sources {
		f.applyPolicy(m)
		f.bindMember(m)
	}
	seed := r.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	f.jitterMu.Lock()
	f.jitterRNG = rand.New(rand.NewSource(seed))
	f.jitterMu.Unlock()
	f.bindResilienceObs()
}

// applyPolicy resolves the active policy for one member: a fresh breaker
// when the policy has one, and the per-call timeout when the source can
// wait (see member.timeout).
func (f *Federation) applyPolicy(m *member) {
	m.br, m.timeout = nil, 0
	if f.res.BreakerFailures > 0 {
		m.br = newBreaker(f.res)
	}
	if _, inProcess := m.src.(localSource); !inProcess {
		m.timeout = f.res.Timeout
	}
}

// BreakerState reports a source's circuit-breaker state (BreakerClosed,
// BreakerOpen or BreakerHalfOpen). Sources without a breaker — unknown
// names, breaker disabled — report BreakerClosed.
func (f *Federation) BreakerState(source string) int {
	for _, m := range f.sources {
		if m.name == source {
			return m.br.currentState()
		}
	}
	return BreakerClosed
}

// bindResilienceObs (re)binds the federation-wide resilience instruments to
// the current registry; nil-safe on a detached registry.
func (f *Federation) bindResilienceObs() {
	f.cSourceErrors = f.obsReg.Counter(obs.FedSourceErrors)
	f.cRetries = f.obsReg.Counter(obs.FedRetries)
	f.cGiveups = f.obsReg.Counter(obs.FedRetryGiveups)
	f.cPartial = f.obsReg.Counter(obs.FedPartialQueries)
	f.cSkips = f.obsReg.Counter(obs.FedSkippedSources)
}

// backoff returns the jittered exponential delay before retry attempt
// (0-based).
func (f *Federation) backoff(attempt int) time.Duration {
	d := f.res.BackoffBase
	if d <= 0 {
		return 0
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if f.res.BackoffMax > 0 && d >= f.res.BackoffMax {
			d = f.res.BackoffMax
			break
		}
	}
	if f.res.Jitter > 0 {
		f.jitterMu.Lock()
		frac := 1 + f.res.Jitter*(2*f.jitterRNG.Float64()-1)
		f.jitterMu.Unlock()
		d = time.Duration(float64(d) * frac)
	}
	return d
}

// callSource runs one operation on a member's source under the
// fault-tolerance policy: breaker admission, the member's per-call timeout,
// bounded retries with backoff. The error returned after exhaustion is a
// *SourceUnavailableError. With resilience disabled it is a plain
// passthrough.
func (f *Federation) callSource(ctx context.Context, m *member, op func(ctx context.Context) error) error {
	if !f.resOn {
		return op(ctx)
	}
	if !m.br.allow() {
		return &SourceUnavailableError{Source: m.name, Err: ErrCircuitOpen}
	}
	var err error
	for attempt := 0; ; attempt++ {
		if m.timeout > 0 {
			cctx, cancel := context.WithTimeout(ctx, m.timeout)
			err = op(cctx)
			cancel()
		} else {
			err = op(ctx)
		}
		if err == nil {
			m.br.onSuccess()
			return nil
		}
		// When the caller's own context is done — a client that went away,
		// a request deadline — the failure is ours, not the source's: it
		// is neither counted against the source nor retried.
		if ctx.Err() != nil {
			break
		}
		f.cSourceErrors.Inc()
		m.br.onFailure()
		if attempt >= f.res.MaxRetries {
			break
		}
		f.cRetries.Inc()
		if d := f.backoff(attempt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				f.cGiveups.Inc()
				return &SourceUnavailableError{Source: m.name, Err: ctx.Err()}
			}
		}
	}
	f.cGiveups.Inc()
	return &SourceUnavailableError{Source: m.name, Err: err}
}

// Why a source was dropped from a query, as an evaluation's per-member
// skip flag holds it; zero means it was not.
const (
	skipUnavailable uint32 = iota + 1
	skipCircuitOpen
	skipTimeout
)

var skipReasons = [...]string{
	skipUnavailable: "unavailable",
	skipCircuitOpen: "circuit open",
	skipTimeout:     "timeout",
}

// isSkipped reports whether the member has already been dropped from this
// query — once unavailable, it is not re-tried for later patterns.
func (es *evalState) isSkipped(m *member) bool {
	return es.skipped != nil && es.skipped[m.idx].Load() != 0
}

// skips returns the recorded skips, sorted by source name.
func (es *evalState) skips() []SourceSkip {
	var out []SourceSkip
	for i := range es.skipped {
		if r := es.skipped[i].Load(); r != 0 {
			out = append(out, SourceSkip{Source: es.f.sources[i].name, Reason: skipReasons[r]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// degrade decides what to do with a failed source call: with
// PartialResults on, the source is skipped (recorded in the result and the
// trace) and evaluation continues; otherwise the error fails the query. The
// first recorded reason wins, and only the worker that records it counts
// the skip.
func (f *Federation) degrade(es *evalState, m *member, err error) error {
	if !f.res.PartialResults {
		return err
	}
	reason := skipUnavailable
	if errors.Is(err, ErrCircuitOpen) {
		reason = skipCircuitOpen
	} else if errors.Is(err, context.DeadlineExceeded) {
		reason = skipTimeout
	}
	if es.skipped[m.idx].CompareAndSwap(0, reason) {
		f.cSkips.Inc()
	}
	return nil
}
