package main

import (
	"encoding/json"
	"math"
)

// metricDef names one reported number. BENCHMARK.json lists the same
// names, units and directions (bench_test.go keeps the two in step);
// bounds live only in BENCHMARK.json, where `aa` reads them.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is BENCHMARK.json's end_to_end list: what a user of the system
// sees, each with a bound there. The contract wants every metric listed
// here defined and non-zero on every workload. final_f1 exists on two
// workloads only and fail_share is expected to be 0, so they cannot be
// listed: link quality is linkset.* below and part of the correctness
// check, failures are the report's attempted/failed counts. Every timing
// is scaled to the quiet reference host (yardstick.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer is what the traced run reports: one group per layer (layer =
// package name), after the host's own. A metric of a layer the workload
// does not exercise reads 0. Stage times (*_us, *_s) are as taken, not
// scaled; host.speed of the same run says how slow the host was.
var perLayer = []metricDef{
	{"host.speed", "ratio", "higher"},
	{"host.raw_ops_per_s", "1/s", "higher"},

	{"datagen.generate_s", "s", "lower"},

	{"store.load_s", "s", "lower"},
	{"store.load_triples_per_s", "1/s", "higher"},
	{"store.recover_s", "s", "lower"},
	{"store.bytes_per_triple", "B", "lower"},
	{"store.probes_per_op", "count", "lower"},
	{"store.add_us", "us", "lower"},
	{"store.wal_bytes_per_write", "B", "lower"},
	{"store.wal_fsyncs", "count", "lower"},

	{"sparql.normalize_us", "us", "lower"},
	{"sparql.prepare_us", "us", "lower"},
	{"sparql.eval_us", "us", "lower"},
	{"sparql.materialize_us", "us", "lower"},
	{"sparql.allocs_per_eval", "count", "lower"},
	{"sparql.rows_per_op", "count", "lower"},
	{"sparql.rows_materialized_per_op", "count", "lower"},
	{"sparql.plan_reorders_per_op", "count", "lower"},
	{"sparql.tpl.star.p50_us", "us", "lower"},
	{"sparql.tpl.join.p50_us", "us", "lower"},
	{"sparql.tpl.regex.p50_us", "us", "lower"},
	{"sparql.tpl.optional.p50_us", "us", "lower"},
	{"sparql.tpl.group.p50_us", "us", "lower"},

	{"fed.execute_us", "us", "lower"},
	{"fed.allocs_per_execute", "count", "lower"},
	{"fed.source_probes_per_op", "count", "lower"},
	{"fed.boundjoin_batches_per_op", "count", "lower"},
	{"fed.sameas_rewrites_per_op", "count", "lower"},
	{"fed.rows_per_op", "count", "lower"},
	{"fed.retries", "count", "lower"},
	{"fed.setlinks_us", "us", "lower"},
	{"fed.tpl.xjoin.p50_us", "us", "lower"},
	{"fed.tpl.const.p50_us", "us", "lower"},
	{"fed.tpl.ask.p50_us", "us", "lower"},
	{"fed.tpl.agg.p50_us", "us", "lower"},

	{"endpoint.handler_us", "us", "lower"},
	{"endpoint.encode_us", "us", "lower"},
	{"endpoint.http_us", "us", "lower"},
	{"endpoint.cache.prepared_hit_ratio", "ratio", "higher"},
	{"endpoint.cache.result_hit_ratio", "ratio", "higher"},
	{"endpoint.cache.hit_us", "us", "lower"},
	{"endpoint.cache.evictions", "count", "lower"},
	{"endpoint.cache.invalidations", "count", "lower"},
	{"endpoint.admission.queued", "count", "lower"},
	{"endpoint.admission.rejected", "count", "lower"},
	{"endpoint.feedback.handler_us", "us", "lower"},
	{"endpoint.feedback.unknown", "count", "lower"},

	{"feature.build_s", "s", "lower"},
	{"feature.filtered_pair_share", "ratio", "lower"},
	{"feature.explore_us", "us", "lower"},
	{"feature.upsert_us", "us", "lower"},
	{"feature.delta_splices_per_upsert", "count", "lower"},

	{"paris.link_s", "s", "lower"},

	{"core.new_s", "s", "lower"},
	{"core.episode_us", "us", "lower"},
	{"core.episodes_to_converge", "count", "lower"},
	{"core.explorations_per_episode", "count", "lower"},
	{"core.rollbacks", "count", "lower"},
	{"core.links_added", "count", "lower"},
	{"core.links_removed", "count", "lower"},
	{"core.pick_greedy_share", "ratio", "higher"},
	{"core.stream.batches", "count", "lower"},
	{"core.stream.shed", "count", "lower"},
	{"core.dropped_converged_share", "ratio", "lower"},
	{"core.candidates_us", "us", "lower"},

	{"linkset.precision", "ratio", "higher"},
	{"linkset.recall", "ratio", "higher"},
	{"linkset.f1", "ratio", "higher"},

	{"trace.overhead_pct", "%", "lower"},
}

// metricValue and report are the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newReport fills a report with exactly the metrics of defs, taking
// values from vals (absent or non-finite values read 0).
func newReport(defs []metricDef, vals map[string]float64, attempted, failed int, correct bool) report {
	r := report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r
}

func (r report) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		// Unreachable: the report holds only finite floats, ints and strings.
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return string(b)
}
