// Package feedback simulates the users of the paper's evaluation (§7.1,
// "Generating Feedback"): a randomly chosen candidate link is compared to
// the ground truth and approved when present, rejected when absent. An
// optional error rate flips a fraction of the verdicts, reproducing the
// incorrect-feedback study of Appendix C.
package feedback

import (
	"math/rand"
	"sync"

	"alex/internal/linkset"
)

// Judge decides whether a link is approved (true) or rejected (false).
// It is the interface the ALEX engine consumes; in production it would be
// backed by real users evaluating federated query answers.
type Judge func(linkset.Link) bool

// Oracle answers feedback requests from a ground-truth link set. It is
// safe for concurrent use: the ALEX engine judges links from one goroutine
// per partition. With ErrorRate > 0 its verdicts depend on call order —
// every verdict draws from the one rng — so a run is reproducible from its
// seed only when links are judged in a fixed order (core.Config.Workers =
// 1).
type Oracle struct {
	truth *linkset.Set
	// ErrorRate is the probability a verdict is flipped (incorrect
	// feedback, Appendix C). Zero means perfect feedback.
	ErrorRate float64

	mu  sync.Mutex
	rng *rand.Rand
	// Counters for diagnostics.
	judged  int
	flipped int
}

// NewOracle returns an oracle over truth using rng for error injection.
func NewOracle(truth *linkset.Set, errorRate float64, rng *rand.Rand) *Oracle {
	return &Oracle{truth: truth, ErrorRate: errorRate, rng: rng}
}

// Judge implements the feedback protocol: approve links present in the
// ground truth, reject others, flipping the verdict with ErrorRate.
func (o *Oracle) Judge(l linkset.Link) bool {
	v := o.truth.Contains(l)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.judged++
	if o.ErrorRate > 0 && o.rng.Float64() < o.ErrorRate {
		o.flipped++
		return !v
	}
	return v
}

// Judged returns the number of verdicts given.
func (o *Oracle) Judged() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.judged
}

// Flipped returns the number of deliberately incorrect verdicts.
func (o *Oracle) Flipped() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.flipped
}

// JudgeFunc adapts the oracle to the Judge function type.
func (o *Oracle) JudgeFunc() Judge { return o.Judge }
