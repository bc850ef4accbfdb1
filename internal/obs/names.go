package obs

import "strconv"

// This file is the central metric-name registry. Every counter, gauge and
// histogram name in the repository is declared here — as an exported
// constant for fixed names, or an exported builder function for names
// parameterized by a data-set, source or status code. Components must
// reach instruments only through these (enforced by the obsnames analyzer
// in internal/lint): a typo'd string literal at a call site would
// otherwise silently mint a brand-new, forever-empty time series instead
// of failing. Names follow the `pkg.snake_case` convention, dot-separated,
// validated by names_test.go, and every entry must be documented in the
// README metrics table (also asserted by names_test.go).

// Federated query processor (internal/fed).
const (
	FedQueries          = "fed.queries"
	FedQueryNS          = "fed.query_ns"
	FedSourceProbes     = "fed.source_probes"
	FedSameasRewrites   = "fed.sameas.rewrites"
	FedSameasRows       = "fed.sameas.rows"
	FedBoundJoinBatches = "fed.boundjoin.batches"
	FedBoundJoinRows    = "fed.boundjoin.rows"
	FedRows             = "fed.rows"
	FedWorkersBusy      = "fed.workers_busy"
	FedSourceErrors     = "fed.source_errors"
	FedRetries          = "fed.retries"
	FedRetryGiveups     = "fed.retry_giveups"
	FedPartialQueries   = "fed.partial_queries"
	FedSkippedSources   = "fed.skipped_sources"
	FedBreakerOpens     = "fed.breaker_opens"
)

// SPARQL protocol endpoint (internal/endpoint).
const (
	EndpointRequests  = "endpoint.requests"
	EndpointRequestNS = "endpoint.request_ns"
	// EndpointFeedbackRequests counts POST /feedback requests accepted
	// by the streaming-feedback route.
	EndpointFeedbackRequests = "endpoint.feedback.requests"
)

// High-traffic serving layer (internal/endpoint cache.go, admission.go).
const (
	// EndpointPreparedHits counts queries answered with a cached
	// parse+compile (prepared-query cache hits).
	EndpointPreparedHits = "endpoint.prepared.hits"
	// EndpointPreparedMisses counts queries that had to parse and
	// slot-compile from scratch.
	EndpointPreparedMisses = "endpoint.prepared.misses"
	// EndpointPreparedEvictions counts prepared entries evicted by the LRU
	// capacity bound.
	EndpointPreparedEvictions = "endpoint.prepared.evictions"
	// EndpointResultHits counts queries answered entirely from the result
	// cache (no evaluation, no closure expansion).
	EndpointResultHits = "endpoint.result.hits"
	// EndpointResultMisses counts result-cache lookups that evaluated.
	EndpointResultMisses = "endpoint.result.misses"
	// EndpointResultEvictions counts result entries evicted by the LRU
	// capacity bound.
	EndpointResultEvictions = "endpoint.result.evictions"
	// EndpointResultInvalidations counts cached results dropped because
	// the store generation moved underneath them.
	EndpointResultInvalidations = "endpoint.result.invalidations"
	// EndpointAdmissionRejected counts requests shed with 503 +
	// Retry-After (queue full or per-client limit exceeded).
	EndpointAdmissionRejected = "endpoint.admission.rejected"
	// EndpointAdmissionQueued counts requests that waited in the
	// admission queue before executing.
	EndpointAdmissionQueued = "endpoint.admission.queued"
	// EndpointAdmissionActive gauges requests currently executing under
	// the admission controller.
	EndpointAdmissionActive = "endpoint.admission.active"
	// EndpointAdmissionQueueDepth gauges requests currently waiting for
	// an execution slot.
	EndpointAdmissionQueueDepth = "endpoint.admission.queue_depth"
)

// Single-store SPARQL engine (internal/sparql).
const (
	// SparqlPlanReorders counts BGPs whose pattern order the selectivity
	// planner changed from the written order.
	SparqlPlanReorders = "sparql.plan.reorders"
	// SparqlRowsMaterialized counts slot rows decoded into Binding maps
	// at the result boundary (late materialization's actual cost).
	SparqlRowsMaterialized = "sparql.rows.materialized"
)

// SparqlStageRows names the output-cardinality histogram of one
// evaluation stage (bgp, filter, optional, union, values, exists, path,
// bind).
func SparqlStageRows(stage string) string { return "sparql.stage." + stage + ".rows" }

// ALEX engine (internal/core).
const (
	CoreEpisodeNS        = "core.episode_ns"
	CoreCandidates       = "core.candidates"
	CoreFeedbackPositive = "core.feedback.positive"
	CoreFeedbackNegative = "core.feedback.negative"
	CoreLinksAdded       = "core.links.added"
	CoreLinksRemoved     = "core.links.removed"
	CoreExplorations     = "core.explorations"
	CoreRollbacks        = "core.rollbacks"
	CorePickGreedy       = "core.pick.greedy"
	CorePickExplore      = "core.pick.explore"
	// CoreExploreWorkers gauges the engine's configured worker-pool size
	// (Config.Workers): the bound on goroutines used for space
	// construction and episode execution.
	CoreExploreWorkers = "core.explore.workers"
)

// Streaming feedback ingestion (internal/core stream.go).
const (
	// CoreStreamSubmitted counts feedback items accepted into the stream
	// buffer.
	CoreStreamSubmitted = "core.stream.submitted"
	// CoreStreamShed counts feedback items shed because the stream
	// buffer was at capacity.
	CoreStreamShed = "core.stream.shed"
	// CoreStreamBatches counts batched applies the stream drove through
	// the engine.
	CoreStreamBatches = "core.stream.batches"
	// CoreStreamQueueDepth gauges feedback items currently buffered and
	// not yet applied.
	CoreStreamQueueDepth = "core.stream.queue_depth"
)

// Incremental feature-space maintenance (internal/feature delta.go).
const (
	// FeatureDeltaUpserts counts partition-subject upserts applied to
	// live feature spaces.
	FeatureDeltaUpserts = "feature.delta.upserts"
	// FeatureDeltaObjectDeltas counts DS2-side object-delta batches
	// applied to live feature spaces.
	FeatureDeltaObjectDeltas = "feature.delta.object_deltas"
	// FeatureDeltaSplices counts binary-search insert/remove splices on
	// per-feature sorted score indexes.
	FeatureDeltaSplices = "feature.delta.splices"
)

// Bulk data loading (internal/store load.go).
const (
	// LoadParallelTriples counts triples parsed by the bulk loaders
	// (serial fallback included).
	LoadParallelTriples = "load.parallel.triples"
	// LoadParallelChunks counts input chunks parsed concurrently.
	LoadParallelChunks = "load.parallel.chunks"
	// LoadParallelWorkers gauges the parser goroutines of the last bulk
	// load (1 for Turtle and for N-Triples below the serial threshold).
	LoadParallelWorkers = "load.parallel.workers"
	// LoadParallelNS is the end-to-end bulk-load latency histogram.
	LoadParallelNS = "load.parallel.ns"
)

// Traffic simulator (internal/traffic, cmd/alexsim).
const (
	// SimOps counts operations executed by the simulator.
	SimOps = "sim.ops"
	// SimOpErrors counts operations that returned an error (after
	// classification; scheduled-outage partial results are not errors).
	SimOpErrors = "sim.op_errors"
	// SimRounds counts simulation rounds completed.
	SimRounds = "sim.rounds"
	// SimViolations counts invariant violations detected during a run.
	SimViolations = "sim.invariant_violations"
	// SimOutageTransitions counts scheduled outage/recovery flips applied
	// to fault-injected sources.
	SimOutageTransitions = "sim.outage_transitions"
	// SimFeedbackEpisodes counts feedback episodes the simulator drove
	// through the engine.
	SimFeedbackEpisodes = "sim.feedback.episodes"
)

// Store durability: snapshot + write-ahead log (internal/store wal.go,
// snapshot.go, durable.go).
const (
	// StoreSnapshotLoads counts snapshot restores performed by durable
	// opens.
	StoreSnapshotLoads = "store.snapshot.loads"
	// StoreSnapshotLoadTriples counts triples restored from snapshots.
	StoreSnapshotLoadTriples = "store.snapshot.load_triples"
	// StoreSnapshotWrites counts checkpoint snapshot writes.
	StoreSnapshotWrites = "store.snapshot.writes"
	// StoreSnapshotWriteBytes counts bytes written by checkpoint
	// snapshots.
	StoreSnapshotWriteBytes = "store.snapshot.write_bytes"
	// StoreWALAppends counts records appended to the write-ahead log.
	StoreWALAppends = "store.wal.appends"
	// StoreWALAppendBytes counts bytes appended to the write-ahead log.
	StoreWALAppendBytes = "store.wal.append_bytes"
	// StoreWALFsyncs counts fsync calls issued by the log's fsync policy.
	StoreWALFsyncs = "store.wal.fsyncs"
	// StoreWALReplayRecords counts log records replayed during recovery.
	StoreWALReplayRecords = "store.wal.replay_records"
	// StoreWALRotations counts size-triggered log rotations into
	// snapshots.
	StoreWALRotations = "store.wal.rotations"
	// StoreWALTruncatedBytes counts torn-tail bytes truncated during
	// recovery.
	StoreWALTruncatedBytes = "store.wal.truncated_bytes"
)

// SimOpNS names the per-operation-kind latency histogram of the traffic
// simulator (kinds: select_entity, ask_entity, fed_join, fed_ask,
// repeat_query, mutate_reread, feedback, feedback_http, live_upsert,
// bulk_load, outage_toggle, crash_restart).
func SimOpNS(kind string) string { return "sim.op." + kind + ".ns" }

// FedSourceMatchNS names the per-source match-latency histogram.
func FedSourceMatchNS(source string) string { return "fed.source." + source + ".match_ns" }

// FedBreakerState names the per-source circuit-breaker state gauge
// (0 closed, 1 open, 2 half-open).
func FedBreakerState(source string) string { return "fed.breaker." + source + ".state" }

// EndpointStatus names the per-HTTP-status response counter.
func EndpointStatus(code int) string { return "endpoint.status." + strconv.Itoa(code) }

// StoreProbeSubject names the subject-index probe counter of one store.
func StoreProbeSubject(dataset string) string { return "store." + dataset + ".probe.subject" }

// StoreProbeObject names the object-index probe counter of one store.
func StoreProbeObject(dataset string) string { return "store." + dataset + ".probe.object" }

// StoreProbePredicate names the predicate-index probe counter of one store.
func StoreProbePredicate(dataset string) string { return "store." + dataset + ".probe.predicate" }

// StoreProbeScan names the full-scan probe counter of one store.
func StoreProbeScan(dataset string) string { return "store." + dataset + ".probe.scan" }

// StoreRows names the matched-rows counter of one store.
func StoreRows(dataset string) string { return "store." + dataset + ".rows" }

// StoreTriples names the triple-count gauge of one store.
func StoreTriples(dataset string) string { return "store." + dataset + ".triples" }

// MetricNames returns every fixed registered metric name, sorted, for the
// documentation and naming-convention tests.
func MetricNames() []string {
	return []string{
		CoreCandidates,
		CoreEpisodeNS,
		CoreExplorations,
		CoreExploreWorkers,
		CoreFeedbackNegative,
		CoreFeedbackPositive,
		CoreLinksAdded,
		CoreLinksRemoved,
		CorePickExplore,
		CorePickGreedy,
		CoreRollbacks,
		CoreStreamBatches,
		CoreStreamQueueDepth,
		CoreStreamShed,
		CoreStreamSubmitted,
		EndpointAdmissionActive,
		EndpointAdmissionQueueDepth,
		EndpointAdmissionQueued,
		EndpointAdmissionRejected,
		EndpointFeedbackRequests,
		EndpointPreparedEvictions,
		EndpointPreparedHits,
		EndpointPreparedMisses,
		EndpointRequestNS,
		EndpointRequests,
		EndpointResultEvictions,
		EndpointResultHits,
		EndpointResultInvalidations,
		EndpointResultMisses,
		FeatureDeltaObjectDeltas,
		FeatureDeltaSplices,
		FeatureDeltaUpserts,
		FedBoundJoinBatches,
		FedBoundJoinRows,
		FedBreakerOpens,
		FedPartialQueries,
		FedQueries,
		FedQueryNS,
		FedRetries,
		FedRetryGiveups,
		FedRows,
		FedSameasRewrites,
		FedSameasRows,
		FedSkippedSources,
		FedSourceErrors,
		FedSourceProbes,
		FedWorkersBusy,
		LoadParallelChunks,
		LoadParallelNS,
		LoadParallelTriples,
		LoadParallelWorkers,
		SimFeedbackEpisodes,
		SimViolations,
		SimOpErrors,
		SimOps,
		SimOutageTransitions,
		SimRounds,
		SparqlPlanReorders,
		SparqlRowsMaterialized,
		StoreSnapshotLoadTriples,
		StoreSnapshotLoads,
		StoreSnapshotWriteBytes,
		StoreSnapshotWrites,
		StoreWALAppendBytes,
		StoreWALAppends,
		StoreWALFsyncs,
		StoreWALReplayRecords,
		StoreWALRotations,
		StoreWALTruncatedBytes,
	}
}

// MetricPatterns returns the parameterized name templates, with the
// variable segment spelled <like-this>, matching how the README metrics
// table documents them.
func MetricPatterns() []string {
	return []string{
		"endpoint.status.<code>",
		FedBreakerState("<source>"),
		FedSourceMatchNS("<source>"),
		SimOpNS("<kind>"),
		SparqlStageRows("<stage>"),
		StoreProbeObject("<dataset>"),
		StoreProbePredicate("<dataset>"),
		StoreProbeScan("<dataset>"),
		StoreProbeSubject("<dataset>"),
		StoreRows("<dataset>"),
		StoreTriples("<dataset>"),
	}
}
