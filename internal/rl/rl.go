// Package rl implements the Monte-Carlo reinforcement-learning primitives
// ALEX builds on (paper §3.1, §4.4): an action-value table estimated from
// returns (first-visit MC), and an ε-greedy policy that mostly takes the
// greedy action but keeps every action's selection probability strictly
// positive, ensuring continuous exploration (§4.4.1).
//
// The tables are dense: a caller interns its states and state-action pairs
// into small uint32 ids (internal/core gives each link and each (link,
// feature) pair one) and every table is a slice indexed by them, grown on
// first write. An id the table has never seen reads as unvisited.
package rl

import (
	"errors"
	"math/rand"
	"sort"
)

// ErrNoActions is returned by a policy's Action when called with an empty
// action set: a state with no available action has no defined policy, and
// callers must not consult the policy for such states.
var ErrNoActions = errors.New("rl: no available actions")

// NoID is an id no table holds a value for: it stands for a state-action
// pair that was never interned, so that it reads as untried.
const NoID = ^uint32(0)

// grow returns s extended with zero values to hold index id.
func grow[T any](s []T, id uint32) []T {
	if int(id) < len(s) {
		return s
	}
	n := int(id) + 1
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)[:n]
}

// QTable accumulates returns for state-action pairs, by id, and exposes
// their Monte-Carlo action-value estimates Q(s,a) = average return
// (Algorithm 1, line 16). It is not safe for concurrent use; ALEX gives
// each partition its own table.
type QTable struct {
	sum   []float64
	count []int
	n     int // ids with a recorded return
}

// Append adds one observed return for the pair id.
func (q *QTable) Append(id uint32, ret float64) {
	q.sum, q.count = grow(q.sum, id), grow(q.count, id)
	if q.count[id] == 0 {
		q.n++
	}
	q.sum[id] += ret
	q.count[id]++
}

// Q returns the action-value estimate and whether any return has been
// recorded. Per Algorithm 1 line 4, unvisited pairs are "undefined" —
// callers must treat ok == false as no knowledge, not as value zero.
func (q *QTable) Q(id uint32) (float64, bool) {
	n := q.Visits(id)
	if n == 0 {
		return 0, false
	}
	return q.sum[id] / float64(n), true
}

// Visits returns the number of returns recorded for the pair id.
func (q *QTable) Visits(id uint32) int {
	if int(id) >= len(q.count) {
		return 0
	}
	return q.count[id]
}

// Best returns the index in candidates of the greedy pair: the defined-Q
// candidate with maximal estimate (Equation 7). The second return is false
// when no candidate has a defined value. Ties break toward the earlier
// candidate, keeping the choice deterministic.
func (q *QTable) Best(candidates []uint32) (int, bool) {
	best, found := 0, false
	bestV := 0.0
	for i, id := range candidates {
		v, ok := q.Q(id)
		if !ok {
			continue
		}
		if !found || v > bestV {
			best, bestV, found = i, v, true
		}
	}
	return best, found
}

// BestOptimistic returns the argmax index treating untried pairs as having
// value def. With def = 0 and negative rewards for bad outcomes, a state
// whose only tried action performed badly switches its greedy choice to an
// untried alternative instead of being locked onto the bad action — the
// optimistic initialization that makes Monte-Carlo control abandon
// catastrophic first choices. Ties break toward earlier candidates.
func (q *QTable) BestOptimistic(candidates []uint32, def float64) (int, bool) {
	if len(candidates) == 0 {
		return 0, false
	}
	best, found := 0, false
	bestV := 0.0
	for i, id := range candidates {
		v, ok := q.Q(id)
		if !ok {
			v = def
		}
		if !found || v > bestV {
			best, bestV, found = i, v, true
		}
	}
	return best, true
}

// Len returns the number of pairs with a recorded return.
func (q *QTable) Len() int { return q.n }

// Each calls fn for every pair with a recorded return, in id order, for
// persistence and introspection.
func (q *QTable) Each(fn func(id uint32, sum float64, count int)) {
	for id, n := range q.count {
		if n > 0 {
			fn(uint32(id), q.sum[id], n)
		}
	}
}

// Load restores one pair's statistic, replacing any existing value.
func (q *QTable) Load(id uint32, sum float64, count int) {
	q.sum, q.count = grow(q.sum, id), grow(q.count, id)
	if q.count[id] == 0 && count > 0 {
		q.n++
	} else if q.count[id] > 0 && count == 0 {
		q.n--
	}
	q.sum[id], q.count[id] = sum, count
}

// EpsilonGreedy is the paper's ε-greedy policy over states by id: with
// probability 1−ε it takes the greedy action recorded by the last
// policy-improvement step; with probability ε it explores uniformly among
// all available actions, so every action keeps probability ≥ ε/|A(s)|
// (§4.4.1). States never improved yet take a deterministic arbitrary
// action (Algorithm 1 line 5) chosen on first sight and remembered.
type EpsilonGreedy[A comparable] struct {
	Epsilon float64
	rng     *rand.Rand
	greedy  []A
	has     []bool
	n       int
}

// NewEpsilonGreedy returns a policy with the given exploration rate, using
// rng for its stochastic choices.
func NewEpsilonGreedy[A comparable](epsilon float64, rng *rand.Rand) *EpsilonGreedy[A] {
	return &EpsilonGreedy[A]{Epsilon: epsilon, rng: rng}
}

// Action selects the action to take at state s among actions (A(s)).
// It returns ErrNoActions if actions is empty; callers must not consult
// the policy for states with no available action.
func (p *EpsilonGreedy[A]) Action(s uint32, actions []A) (A, error) {
	if len(actions) == 0 {
		var zero A
		return zero, ErrNoActions
	}
	g, improved := p.Greedy(s)
	if !improved {
		// Arbitrary initial action (Algorithm 1 line 5): chosen uniformly
		// at random on first sight and remembered, so the policy is a
		// function of state, not of call order. A deterministic choice
		// (e.g. always the first feature) would systematically bias new
		// states toward one feature, which can be catastrophic when that
		// feature is indistinct (§4.2's rdf:type example).
		g = actions[p.rng.Intn(len(actions))]
		p.Improve(s, g)
	}
	if p.rng.Float64() < p.Epsilon {
		return actions[p.rng.Intn(len(actions))], nil
	}
	// The remembered greedy action may have disappeared from A(s) (e.g.
	// after rollback); fall back to the first candidate.
	for _, a := range actions {
		if a == g {
			return g, nil
		}
	}
	return actions[0], nil
}

// Improve records a∗ as the greedy action for s (Algorithm 1 lines 24-33).
func (p *EpsilonGreedy[A]) Improve(s uint32, best A) {
	p.greedy, p.has = grow(p.greedy, s), grow(p.has, s)
	if !p.has[s] {
		p.has[s] = true
		p.n++
	}
	p.greedy[s] = best
}

// Greedy returns the current greedy action for s.
func (p *EpsilonGreedy[A]) Greedy(s uint32) (A, bool) {
	if int(s) >= len(p.has) || !p.has[s] {
		var zero A
		return zero, false
	}
	return p.greedy[s], true
}

// Prob returns π(s, a): the probability the policy selects a at s given the
// available action set. Matches the paper's ε-greedy definition: the greedy
// action has probability 1 − ε + ε/|A(s)|, every other action ε/|A(s)|.
func (p *EpsilonGreedy[A]) Prob(s uint32, a A, actions []A) float64 {
	if len(actions) == 0 {
		return 0
	}
	g, ok := p.Greedy(s)
	if !ok {
		g = actions[0]
	}
	uniform := p.Epsilon / float64(len(actions))
	if a == g {
		return 1 - p.Epsilon + uniform
	}
	return uniform
}

// Len returns the number of states with a recorded greedy action.
func (p *EpsilonGreedy[A]) Len() int { return p.n }

// Each calls fn for the remembered greedy action of every state, in state
// order, for persistence.
func (p *EpsilonGreedy[A]) Each(fn func(s uint32, a A)) {
	for s, ok := range p.has {
		if ok {
			fn(uint32(s), p.greedy[s])
		}
	}
}

// FirstVisitTracker implements the paper's first-visit rule (§4.4.1): the
// return following the first visit of a state within an episode is counted;
// later visits within the same episode are ignored. Reset clears it at
// episode boundaries, making the next occurrence a new first visit. A
// state's visit is an epoch stamp, so Reset costs nothing per state.
type FirstVisitTracker struct {
	stamp   []uint32 // by state: the epoch of its last visit
	epoch   uint32
	visited []uint32 // this epoch's states, in first-visit order
}

// NewFirstVisitTracker returns an empty tracker.
func NewFirstVisitTracker() *FirstVisitTracker {
	return &FirstVisitTracker{epoch: 1}
}

// FirstVisit reports whether this is the first visit of s in the current
// episode, and records the visit.
func (t *FirstVisitTracker) FirstVisit(s uint32) bool {
	t.stamp = grow(t.stamp, s)
	if t.stamp[s] == t.epoch {
		return false
	}
	t.stamp[s] = t.epoch
	t.visited = append(t.visited, s)
	return true
}

// Reset starts a new episode.
func (t *FirstVisitTracker) Reset() {
	t.visited = t.visited[:0]
	if t.epoch++; t.epoch == 0 {
		// The stamps wrapped: no stale stamp may equal a future epoch.
		clear(t.stamp)
		t.epoch = 1
	}
}

// Len returns the number of states visited this episode.
func (t *FirstVisitTracker) Len() int { return len(t.visited) }

// Visited returns the states visited this episode, in first-visit order.
// The slice is the tracker's own and is valid until the next Reset.
func (t *FirstVisitTracker) Visited() []uint32 { return t.visited }

// SortedKeys is a test helper exposing deterministic iteration over a map
// keyed by a sortable type.
func SortedKeys[K interface {
	~int | ~uint32 | ~uint64 | ~string
}, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
