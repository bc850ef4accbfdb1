package core

import (
	"fmt"
	"sort"
)

// FeatureQuality describes what one partition has learned about a feature
// in one value band: the average reward its explorations earned and how
// much evidence supports the estimate. It is the explainability surface of
// the engine — "which attribute pairs identify equivalent entities".
type FeatureQuality struct {
	// Pred1 and Pred2 are the predicate IRIs of the feature.
	Pred1, Pred2 string
	// Band is the value band (center of the 0.1-wide bucket).
	Band float64
	// Mean is the average return of explorations in this band.
	Mean float64
	// Visits is the number of returns behind the estimate.
	Visits int
}

// String renders the entry compactly.
func (f FeatureQuality) String() string {
	return fmt.Sprintf("(%s, %s) @ %.1f: mean=%+.2f n=%d", f.Pred1, f.Pred2, f.Band, f.Mean, f.Visits)
}

// FeatureReport returns what partition i has learned about its features,
// sorted by descending mean return then by evidence. Only bands with at
// least minVisits returns are included.
func (e *Engine) FeatureReport(i int, minVisits int) []FeatureQuality {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p := e.partitions[i]
	dict := e.ds1.Dict()
	var out []FeatureQuality
	for _, k := range p.fqKeys() {
		id := p.band(k)
		visits := p.fq.Visits(id)
		if visits < minVisits {
			continue
		}
		mean, _ := p.fq.Q(id)
		out = append(out, FeatureQuality{
			Pred1:  dict.Term(k.f.P1).Value,
			Pred2:  dict.Term(k.f.P2).Value,
			Band:   float64(k.bucket) / 10,
			Mean:   mean,
			Visits: visits,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Mean != out[b].Mean {
			return out[a].Mean > out[b].Mean
		}
		if out[a].Visits != out[b].Visits {
			return out[a].Visits > out[b].Visits
		}
		if out[a].Pred1 != out[b].Pred1 {
			return out[a].Pred1 < out[b].Pred1
		}
		return out[a].Pred2 < out[b].Pred2
	})
	return out
}

// fqKeys enumerates the feature/band keys with recorded returns, in
// (feature, band) order: only the features the space holds now, in the
// bands scores fall in.
func (p *partition) fqKeys() []fqKey {
	var out []fqKey
	for _, f := range p.space.Features() { // sorted, distinct
		for bucket := 0; bucket <= 10; bucket++ {
			if k := (fqKey{f: f, bucket: bucket}); p.fq.Visits(p.band(k)) > 0 {
				out = append(out, k)
			}
		}
	}
	return out
}

// blacklisted counts the partition's blacklisted links.
func (p *partition) blacklisted() int {
	n := 0
	for _, st := range p.ls {
		if st.flags&isBlacklisted != 0 {
			n++
		}
	}
	return n
}

// PolicyStats summarizes a partition's learning state.
type PolicyStats struct {
	// States is the number of states with a remembered greedy action.
	States int
	// StateActionPairs is the number of (state, action) pairs with
	// recorded returns.
	StateActionPairs int
	// Candidates is the current candidate-link count.
	Candidates int
	// Blacklisted is the blacklist size.
	Blacklisted int
	// Rollbacks counts rollback events so far.
	Rollbacks int
	// Episodes run and convergence status.
	Episodes  int
	Converged bool
}

// PartitionPolicyStats reports partition i's learning state.
func (e *Engine) PartitionPolicyStats(i int) PolicyStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p := e.partitions[i]
	return PolicyStats{
		States:           p.policy.Len(),
		StateActionPairs: p.q.Len(),
		Candidates:       p.candidates,
		Blacklisted:      p.blacklisted(),
		Rollbacks:        p.rollbacks,
		Episodes:         p.episodes,
		Converged:        p.converged,
	}
}
