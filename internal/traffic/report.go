package traffic

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"alex/internal/linkset"
)

// Report is the machine-readable run summary: run totals, per-op-kind
// p50/p99 latencies, engine quality, and any invariant violations.
type Report struct {
	Seed              int64              `json:"seed"`
	Rounds            int                `json:"rounds"`
	OpsPerRound       int                `json:"ops_per_round"`
	Workers           int                `json:"workers"`
	Ops               int                `json:"ops"`
	Errors            int                `json:"errors"`
	OpCounts          map[string]int     `json:"op_counts"`
	WallNS            int64              `json:"wall_ns"`
	OpsPerSec         float64            `json:"ops_per_sec"`
	P50NS             map[string]float64 `json:"p50_ns"`
	P99NS             map[string]float64 `json:"p99_ns"`
	Episodes          int                `json:"feedback_episodes"`
	Candidates        int                `json:"candidates"`
	Confirmed         int                `json:"confirmed"`
	Blacklisted       int                `json:"blacklisted"`
	ConvergedParts    int                `json:"converged_partitions"`
	Partitions        int                `json:"partitions"`
	Precision         float64            `json:"precision"`
	Recall            float64            `json:"recall"`
	FMeasure          float64            `json:"f_measure"`
	OutageTransitions int                `json:"outage_transitions"`
	HTTPServed        int64              `json:"http_served"`
	Violations        []Violation        `json:"violations"`
}

// report assembles the final Report from the harness's accounting.
func (h *harness) report(wall time.Duration) *Report {
	s := &Report{
		P50NS: make(map[string]float64),
		P99NS: make(map[string]float64),
	}
	for kind, samples := range h.samples {
		s.P50NS[kind] = percentile(samples, 0.50)
		s.P99NS[kind] = percentile(samples, 0.99)
	}
	q := linkset.Evaluate(h.w.engine.Candidates(), h.w.truth)
	s.Seed = h.cfg.Seed
	s.Rounds = h.cfg.Rounds
	s.OpsPerRound = h.cfg.OpsPerRound
	s.Workers = h.cfg.Workers
	s.Ops = totalOps(h.opCounts)
	s.Errors = h.errCount
	s.OpCounts = h.opCounts
	s.WallNS = wall.Nanoseconds()
	if wall > 0 {
		s.OpsPerSec = float64(s.Ops) / wall.Seconds()
	}
	s.Episodes = h.w.episodes
	s.Candidates = q.Candidates
	s.Confirmed = len(h.w.confirmed)
	s.Blacklisted = len(h.w.rejected)
	for i := 0; i < h.w.engine.Partitions(); i++ {
		if h.w.engine.PartitionConverged(i) {
			s.ConvergedParts++
		}
	}
	s.Partitions = h.w.engine.Partitions()
	s.Precision = q.Precision
	s.Recall = q.Recall
	s.FMeasure = q.FMeasure
	s.OutageTransitions = h.outageTransitions
	s.HTTPServed = h.w.server.Served()
	s.Violations = h.violations
	return s
}

// percentile returns the q-quantile (nearest-rank) of the samples.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// MarkdownSummary renders the report as a GitHub-flavored Markdown table,
// for CI step summaries.
func (s *Report) MarkdownSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### alexsim: seed %d, %d rounds × %d ops, %d workers\n\n",
		s.Seed, s.Rounds, s.OpsPerRound, s.Workers)
	fmt.Fprintf(&b, "- **ops** %d (%.0f ops/s), errors %d, violations **%d**\n",
		s.Ops, s.OpsPerSec, s.Errors, len(s.Violations))
	fmt.Fprintf(&b, "- **engine** %d episodes, %d candidates, P %.3f / R %.3f / F1 %.3f, %d/%d partitions converged\n",
		s.Episodes, s.Candidates, s.Precision, s.Recall, s.FMeasure, s.ConvergedParts, s.Partitions)
	fmt.Fprintf(&b, "- **resilience** %d outage transitions, %d HTTP requests served\n\n", s.OutageTransitions, s.HTTPServed)
	b.WriteString("| op | count | p50 | p99 |\n|---|---:|---:|---:|\n")
	kinds := make([]string, 0, len(s.OpCounts))
	for k := range s.OpCounts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "| %s | %d | %s | %s |\n",
			k, s.OpCounts[k], fmtNS(s.P50NS[k]), fmtNS(s.P99NS[k]))
	}
	if len(s.Violations) > 0 {
		b.WriteString("\n**Invariant violations:**\n\n")
		for _, v := range s.Violations {
			fmt.Fprintf(&b, "- %s\n", v)
		}
	}
	return b.String()
}

func fmtNS(ns float64) string {
	switch {
	case ns <= 0:
		return "-"
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.1fms", ns/1e6)
	default:
		return fmt.Sprintf("%.2fs", ns/1e9)
	}
}
