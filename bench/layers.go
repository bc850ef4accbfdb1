package main

import (
	"fmt"
	"os"
	"sync"

	"alex/internal/linkset"
)

// maxDroppedShare is the share of judgements converged partitions may
// discard before a feedback_loop run stops measuring the loop it claims
// to measure; above it the run is reported as incorrect.
const maxDroppedShare = 0.2

// qualityLog collects link quality against ground truth: one entry per
// round of feedback_loop, one per timed op of link_batch.
type qualityLog struct {
	mu                     sync.Mutex
	precision, recall, f1  []float64
	droppedConvergedShares []float64
}

func (q *qualityLog) add(lq linkset.Quality, droppedShare float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.precision = append(q.precision, lq.Precision)
	q.recall = append(q.recall, lq.Recall)
	q.f1 = append(q.f1, lq.FMeasure)
	q.droppedConvergedShares = append(q.droppedConvergedShares, droppedShare)
}

func (q *qualityLog) valid() bool { return median(q.droppedConvergedShares) <= maxDroppedShare }

// print reports, for people, the two figures BENCHMARK.json cannot carry
// as end-to-end metrics (see metrics.go): final_f1 and fail_share.
func (q *qualityLog) print(res *result) {
	if len(q.f1) > 0 {
		fmt.Fprintf(os.Stderr, "%-36s %14.6f %-6s (higher is better; n=%d, every value: %v)\n", "final_f1", median(q.f1), "ratio", len(q.f1), q.f1)
	}
	fmt.Fprintf(os.Stderr, "%-36s %14.6f %-6s (lower is better; %d failed of %d attempted)\n", "fail_share",
		float64(res.failed)/float64(res.attempted), "ratio", res.failed, res.attempted)
}

// layerValues turns the traced run's samples and counter deltas into the
// per-layer metrics. Stage samples are in µs; figures sampled under their
// metric's own name are already in its unit.
func layerValues(e *env, res *result) map[string]float64 {
	t := e.tr
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.Name] = t.p50(d.Name) // figures sampled directly: store.load_s, sparql.allocs_per_eval, …
	}
	for metric, stage := range map[string]string{
		"store.add_us":                 "store.add",
		"sparql.normalize_us":          "sparql.normalize",
		"sparql.prepare_us":            "sparql.prepare",
		"sparql.eval_us":               "sparql.eval",
		"sparql.materialize_us":        "sparql.materialize",
		"fed.execute_us":               "fed.execute",
		"fed.setlinks_us":              "fed.setlinks",
		"endpoint.handler_us":          "endpoint.handler",
		"endpoint.cache.hit_us":        "endpoint.cache.hit",
		"endpoint.feedback.handler_us": "endpoint.feedback.handler",
		"feature.explore_us":           "feature.explore",
		"feature.upsert_us":            "feature.upsert",
		"core.episode_us":              "core.episode",
		"core.candidates_us":           "core.candidates",
	} {
		v[metric] = t.p50(stage)
	}
	for metric, stage := range map[string]string{"feature.build_s": "feature.build", "paris.link_s": "paris.link", "core.new_s": "core.new"} {
		v[metric] = t.p50(stage) / 1e6
	}
	for _, tpl := range []string{"sparql.tpl.star", "sparql.tpl.join", "sparql.tpl.regex", "sparql.tpl.optional", "sparql.tpl.group",
		"fed.tpl.xjoin", "fed.tpl.const", "fed.tpl.ask", "fed.tpl.agg"} {
		v[tpl+".p50_us"] = t.p50(tpl)
	}
	if h := t.p50("endpoint.handler"); h > 0 {
		// Per op: what the handler spends outside the query func is
		// decoding the request and encoding the reply; what an op spends
		// outside the handler is transport and net/http, both ends.
		if qf := t.p50("endpoint.queryfunc"); qf > 0 {
			v["endpoint.encode_us"] = h - qf
		}
		v["endpoint.http_us"] = t.p50("op.traced") - h
	}

	v["store.probes_per_op"] = t.perOp("store.*.probe.*")
	v["store.wal_fsyncs"] = t.counter("store.wal.fsyncs")
	if n := t.counter("store.wal.appends"); n > 0 {
		v["store.wal_bytes_per_write"] = t.counter("store.wal.append_bytes") / n
	}
	v["sparql.rows_materialized_per_op"] = t.perOp("sparql.rows.materialized")
	v["sparql.plan_reorders_per_op"] = t.perOp("sparql.plan.reorders")
	v["fed.source_probes_per_op"] = t.perOp("fed.source_probes")
	v["fed.boundjoin_batches_per_op"] = t.perOp("fed.boundjoin.batches")
	v["fed.sameas_rewrites_per_op"] = t.perOp("fed.sameas.rewrites")
	v["fed.rows_per_op"] = t.perOp("fed.rows")
	v["fed.retries"] = t.counter("fed.retries")
	v["endpoint.cache.prepared_hit_ratio"] = t.ratio("endpoint.prepared.hits", "endpoint.prepared.misses")
	v["endpoint.cache.result_hit_ratio"] = t.ratio("endpoint.result.hits", "endpoint.result.misses")
	v["endpoint.cache.evictions"] = t.counter("endpoint.result.evictions") + t.counter("endpoint.prepared.evictions")
	v["endpoint.cache.invalidations"] = t.counter("endpoint.result.invalidations")
	v["endpoint.admission.queued"] = t.counter("endpoint.admission.queued")
	v["endpoint.admission.rejected"] = t.counter("endpoint.admission.rejected")
	v["endpoint.feedback.unknown"] = sum(t.samples["endpoint.feedback.unknown"])
	if n := t.counter("feature.delta.upserts"); n > 0 {
		v["feature.delta_splices_per_upsert"] = t.counter("feature.delta.splices") / n
	}
	if episodes := t.counter("core.stream.batches") + sum(t.samples["core.episodes_to_converge"]); episodes > 0 {
		v["core.explorations_per_episode"] = t.counter("core.explorations") / episodes
	}
	v["core.rollbacks"] = t.counter("core.rollbacks")
	v["core.links_added"] = t.counter("core.links.added")
	v["core.links_removed"] = t.counter("core.links.removed")
	v["core.pick_greedy_share"] = t.ratio("core.pick.greedy", "core.pick.explore")
	v["core.stream.batches"] = t.counter("core.stream.batches")
	v["core.stream.shed"] = t.counter("core.stream.shed")
	v["core.dropped_converged_share"] = median(e.quality.droppedConvergedShares)
	v["linkset.precision"] = median(e.quality.precision)
	v["linkset.recall"] = median(e.quality.recall)
	v["linkset.f1"] = median(e.quality.f1)

	// The host's speed and the unscaled rate, from the untraced rounds;
	// tracing's cost, from the two kinds of round of this one run.
	plain, traced := timings(res, false), timings(res, true)
	v["host.speed"], v["host.raw_ops_per_s"] = plain["host.speed"], plain["host.raw_ops_per_s"]
	if p := plain["ops_per_s"]; p > 0 {
		v["trace.overhead_pct"] = (1 - traced["ops_per_s"]/p) * 100
	}
	return v
}
