package traffic

import (
	"context"
	"fmt"
	"runtime"

	"alex/internal/fed"
)

// Violation is one failed invariant check. Violations never abort the run;
// they are logged, counted and reported, and cmd/alexsim turns a non-empty
// set into a failing exit code.
type Violation struct {
	Round     int    `json:"round"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("round %d: %s: %s", v.Round, v.Invariant, v.Detail)
}

// assertBreakerOpened checks, just before a down source is restored, that
// its circuit breaker actually opened — provided enough federated traffic
// hit the dead source to guarantee it (fedOpsForOpen ops, each costing
// MaxRetries+1 consecutive failures against BreakerFailures). With less
// traffic the breaker state is legitimately closed and nothing is
// asserted, keeping the check deterministic.
func (h *harness) assertBreakerOpened(source string) {
	n := h.fedOpsDuring[source]
	if n < fedOpsForOpen {
		h.logf("inv breaker_open source=%s skipped fed_ops=%d", source, n)
		return
	}
	if st := h.w.node.Fed.BreakerState(source); st != fed.BreakerOpen {
		h.violate("breaker_open", fmt.Sprintf("source %s saw %d fed ops while down but breaker state is %d, want open", source, n, st))
		return
	}
	h.logf("inv breaker_open source=%s fed_ops=%d ok", source, n)
}

// assertRecovery probes a just-restored source through the federation and
// checks its breaker closed again. The probe is a bound-subject,
// unbound-predicate query: it selects every member without ASK probes, so
// the restored source takes exactly one Match call — the half-open trial
// when the breaker had opened.
func (h *harness) assertRecovery(ctx context.Context, source string) {
	q := fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", h.w.term(h.w.subjects1[0]))
	if _, err := h.w.node.Fed.ExecuteContext(ctx, q); err != nil {
		h.violate("breaker_recovery", fmt.Sprintf("source %s: recovery probe failed: %s", source, errClass(err)))
		return
	}
	if st := h.w.node.Fed.BreakerState(source); st != fed.BreakerClosed {
		h.violate("breaker_recovery", fmt.Sprintf("source %s breaker state is %d after recovery probe, want closed", source, st))
		return
	}
	h.logf("inv breaker_recovery source=%s state=closed ok", source)
}

// endRound runs the per-round invariants after the round's last barrier:
// the engine's link-set guarantees and the resource bounds.
func (h *harness) endRound(round int) {
	h.checkLinkset()
	h.checkResources(round)
	// Size-based WAL rotation: deterministic, since the WAL length is a
	// pure function of the serialized mutation history.
	if h.w.durable != nil {
		if rotated, err := h.w.durable.MaybeRotate(); err != nil {
			h.violate("durability_io", fmt.Sprintf("wal rotation failed at round %d: %v", round, err))
		} else if rotated {
			h.logf("wal rotated round %d", round)
		}
	}
	h.cRounds.Inc()
	h.logf("end round %d", round)
}

// checkLinkset asserts the engine guarantees the simulator's feedback has
// earned so far: positively-judged links stay in the candidate set
// (rollback exempts confirmed links), negatively-judged links never
// reappear (the blacklist).
func (h *harness) checkLinkset() {
	cands := h.w.node.Engine.Candidates()
	lost := 0
	for _, l := range h.w.confirmed {
		if !cands.Contains(l) {
			lost++
			h.violate("confirmed_retained", fmt.Sprintf("confirmed link %v missing from candidates", l))
		}
	}
	leaked := 0
	for _, l := range h.w.rejected {
		if cands.Contains(l) {
			leaked++
			h.violate("blacklist", fmt.Sprintf("rejected link %v reappeared in candidates", l))
		}
	}
	converged := 0
	for i := 0; i < h.w.node.Engine.Partitions(); i++ {
		if h.w.node.Engine.PartitionConverged(i) {
			converged++
		}
	}
	if lost == 0 && leaked == 0 {
		h.logf("inv linkset ok confirmed=%d blacklisted=%d converged=%d/%d candidates=%d",
			len(h.w.confirmed), len(h.w.rejected), converged, h.w.node.Engine.Partitions(), cands.Len())
	}
}

// checkResources bounds goroutine and heap growth. Readings are
// environment-dependent, so passing checks log nothing — only violations
// appear in the op log (and then the run fails anyway), preserving
// byte-identity of passing logs.
func (h *harness) checkResources(round int) {
	if g := runtime.NumGoroutine(); g > h.baseGoroutines+h.cfg.MaxGoroutineGrowth {
		h.violate("goroutine_bound", fmt.Sprintf("%d goroutines at round %d, baseline %d, max growth %d",
			g, round, h.baseGoroutines, h.cfg.MaxGoroutineGrowth))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.cfg.MaxHeapBytes {
		h.violate("heap_bound", fmt.Sprintf("heap alloc %d bytes at round %d exceeds %d",
			ms.HeapAlloc, round, h.cfg.MaxHeapBytes))
	}
}

// finish restores any still-down sources (asserting their recovery),
// reconciles the endpoint's served-request counter against the ops that
// issued requests, and drains the endpoint.
func (h *harness) finish(ctx context.Context) {
	for _, name := range []string{auxName, dsName2} {
		if h.downSources[name] {
			h.logf("outage %s up", name)
			h.assertBreakerOpened(name)
			h.w.flaky[name].SetDown(false)
			delete(h.downSources, name)
			h.assertRecovery(ctx, name)
		}
	}
	// Drain the feedback stream before the endpoint: feedback_http always
	// flushes, so a non-empty buffer here is itself a bug.
	if h.w.cfg.Stream {
		if applied := h.w.node.Stream.Flush(); len(applied) != 0 {
			h.violate("stream_drained", fmt.Sprintf("%d batches were still buffered at shutdown", len(applied)))
		}
		st := h.w.node.Stream.Stats()
		h.logf("inv stream_drained submitted=%d shed=%d batches=%d applied=%d ok",
			st.Submitted, st.Shed, st.Batches, st.Applied)
	}
	if err := h.w.drainServer(ctx); err != nil {
		h.violate("drain_clean", fmt.Sprintf("drain failed: %s", errClass(err)))
	} else if n := h.w.server.InFlight(); n != 0 {
		h.violate("drain_clean", fmt.Sprintf("%d requests still in flight after drain", n))
	} else {
		h.logf("inv drain_clean ok")
	}
	// Offered concurrency never exceeds the worker bound, which the
	// admission controller's capacity sits above, so a correct controller
	// sheds nothing. Like checkResources, a passing check logs nothing:
	// the op log stays byte-identical with Config.Cache on or off.
	if h.w.admission != nil {
		if n := h.w.admission.Rejected(); n != 0 {
			h.violate("admission_no_shed", fmt.Sprintf("admission shed %d requests below configured capacity", n))
		}
	}
	// Durable shutdown: a sticky WAL error anywhere in the run, or a
	// failing final checkpoint, is an I/O violation.
	if h.w.durable != nil {
		if err := h.w.durable.Err(); err != nil {
			h.violate("durability_io", fmt.Sprintf("wal in error state at shutdown: %v", err))
		}
		if err := h.w.durable.Close(); err != nil {
			h.violate("durability_io", fmt.Sprintf("durable close failed: %v", err))
		} else {
			h.logf("inv durability_close ok")
		}
		h.w.durable = nil
	}
	want := h.w.httpOps.Load()
	if got := h.w.server.Served(); got != want {
		h.violate("http_accounting", fmt.Sprintf("endpoint served %d requests, ops issued %d", got, want))
	} else {
		h.logf("inv http_accounting served=%d ok", want)
	}
	h.logf("# run complete ops=%d errors=%d violations=%d", totalOps(h.opCounts), h.errCount, len(h.violations))
}

func totalOps(counts map[string]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}
