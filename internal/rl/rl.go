// Package rl implements the Monte-Carlo reinforcement-learning primitives
// ALEX builds on (paper §3.1, §4.4): an action-value table estimated from
// returns (first-visit MC), and an ε-greedy policy that mostly takes the
// greedy action but keeps every action's selection probability strictly
// positive, ensuring continuous exploration (§4.4.1).
//
// The package is generic over the state and action types so the learning
// machinery can be tested in isolation from linking; internal/core
// instantiates it with links as states and features as actions.
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

// sa is a state-action pair key.
type sa[S comparable, A comparable] struct {
	s S
	a A
}

// QTable accumulates returns for state-action pairs and exposes their
// Monte-Carlo action-value estimates Q(s,a) = average return (Algorithm 1,
// line 16). It is not safe for concurrent use; ALEX gives each partition
// its own table.
type QTable[S comparable, A comparable] struct {
	sum   map[sa[S, A]]float64
	count map[sa[S, A]]int
}

// NewQTable returns an empty table.
func NewQTable[S comparable, A comparable]() *QTable[S, A] {
	return &QTable[S, A]{
		sum:   make(map[sa[S, A]]float64),
		count: make(map[sa[S, A]]int),
	}
}

// Append adds one observed return for (s, a).
func (q *QTable[S, A]) Append(s S, a A, ret float64) {
	k := sa[S, A]{s, a}
	q.sum[k] += ret
	q.count[k]++
}

// Q returns the action-value estimate and whether any return has been
// recorded. Per Algorithm 1 line 4, unvisited pairs are "undefined" —
// callers must treat ok == false as no knowledge, not as value zero.
func (q *QTable[S, A]) Q(s S, a A) (float64, bool) {
	k := sa[S, A]{s, a}
	n := q.count[k]
	if n == 0 {
		return 0, false
	}
	return q.sum[k] / float64(n), true
}

// Visits returns the number of returns recorded for (s, a).
func (q *QTable[S, A]) Visits(s S, a A) int {
	return q.count[sa[S, A]{s, a}]
}

// Best returns the greedy action among the candidates: the defined-Q action
// with maximal estimate (Equation 7). The second return is false when no
// candidate has a defined value. Ties break toward the earlier candidate,
// keeping the choice deterministic.
func (q *QTable[S, A]) Best(s S, candidates []A) (A, bool) {
	var best A
	found := false
	bestV := 0.0
	for _, a := range candidates {
		v, ok := q.Q(s, a)
		if !ok {
			continue
		}
		if !found || v > bestV {
			best, bestV, found = a, v, true
		}
	}
	return best, found
}

// BestOptimistic returns the argmax action treating untried actions as
// having value def. With def = 0 and negative rewards for bad outcomes,
// a state whose only tried action performed badly switches its greedy
// choice to an untried alternative instead of being locked onto the bad
// action — the optimistic initialization that makes Monte-Carlo control
// abandon catastrophic first choices. Ties break toward earlier candidates.
func (q *QTable[S, A]) BestOptimistic(s S, candidates []A, def float64) (A, bool) {
	var best A
	if len(candidates) == 0 {
		return best, false
	}
	bestV := 0.0
	found := false
	for _, a := range candidates {
		v, ok := q.Q(s, a)
		if !ok {
			v = def
		}
		if !found || v > bestV {
			best, bestV, found = a, v, true
		}
	}
	return best, true
}

// States returns the number of distinct state-action pairs seen.
func (q *QTable[S, A]) Len() int { return len(q.count) }

// QEntry is one persisted state-action statistic.
type QEntry[S comparable, A comparable] struct {
	State  S
	Action A
	Sum    float64
	Count  int
}

// Entries exports every state-action statistic (unordered), for
// persistence and introspection. The generic key types are not ordered,
// so consumers that need stable bytes sort the exported slice themselves
// (see core.(*Engine).SaveState).
func (q *QTable[S, A]) Entries() []QEntry[S, A] {
	out := make([]QEntry[S, A], 0, len(q.count))
	//lint:ignore nodeterminism documented-unordered export over generic (unsortable) keys; persisting consumers sort
	for k, n := range q.count {
		out = append(out, QEntry[S, A]{State: k.s, Action: k.a, Sum: q.sum[k], Count: n})
	}
	return out
}

// Load restores one state-action statistic, replacing any existing value.
func (q *QTable[S, A]) Load(e QEntry[S, A]) {
	k := sa[S, A]{e.State, e.Action}
	q.sum[k] = e.Sum
	q.count[k] = e.Count
}

// EpsilonGreedy is the paper's ε-greedy policy: with probability 1−ε it
// takes the greedy action recorded by the last policy-improvement step; with
// probability ε it explores uniformly among all available actions, so every
// action keeps probability ≥ ε/|A(s)| (§4.4.1). States never improved yet
// take a deterministic arbitrary action (Algorithm 1 line 5) chosen on
// first sight and remembered.
type EpsilonGreedy[S comparable, A comparable] struct {
	Epsilon float64
	rng     *rand.Rand
	greedy  map[S]A
}

// NewEpsilonGreedy returns a policy with the given exploration rate, using
// rng for its stochastic choices.
func NewEpsilonGreedy[S comparable, A comparable](epsilon float64, rng *rand.Rand) *EpsilonGreedy[S, A] {
	return &EpsilonGreedy[S, A]{Epsilon: epsilon, rng: rng, greedy: make(map[S]A)}
}

// Action selects the action to take at state s among actions (A(s)).
// It returns ErrNoActions if actions is empty; callers must not consult
// the policy for states with no available action.
func (p *EpsilonGreedy[S, A]) Action(s S, actions []A) (A, error) {
	if len(actions) == 0 {
		var zero A
		return zero, ErrNoActions
	}
	g, improved := p.greedy[s]
	if !improved {
		// Arbitrary initial action (Algorithm 1 line 5): chosen uniformly
		// at random on first sight and remembered, so the policy is a
		// function of state, not of call order. A deterministic choice
		// (e.g. always the first feature) would systematically bias new
		// states toward one feature, which can be catastrophic when that
		// feature is indistinct (§4.2's rdf:type example).
		g = actions[p.rng.Intn(len(actions))]
		p.greedy[s] = g
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
func (p *EpsilonGreedy[S, A]) Improve(s S, best A) { p.greedy[s] = best }

// Greedy returns the current greedy action for s.
func (p *EpsilonGreedy[S, A]) Greedy(s S) (A, bool) {
	a, ok := p.greedy[s]
	return a, ok
}

// Prob returns π(s, a): the probability the policy selects a at s given the
// available action set. Matches the paper's ε-greedy definition: the greedy
// action has probability 1 − ε + ε/|A(s)|, every other action ε/|A(s)|.
func (p *EpsilonGreedy[S, A]) Prob(s S, a A, actions []A) float64 {
	if len(actions) == 0 {
		return 0
	}
	g, ok := p.greedy[s]
	if !ok {
		g = actions[0]
	}
	uniform := p.Epsilon / float64(len(actions))
	if a == g {
		return 1 - p.Epsilon + uniform
	}
	return uniform
}

// StatesImproved returns the states with a recorded greedy action, sorted
// order unspecified; Len is the count.
func (p *EpsilonGreedy[S, A]) Len() int { return len(p.greedy) }

// GreedyEntries exports the remembered greedy action of every state
// (unordered), for persistence.
func (p *EpsilonGreedy[S, A]) GreedyEntries() map[S]A {
	out := make(map[S]A, len(p.greedy))
	for s, a := range p.greedy {
		out[s] = a
	}
	return out
}

// FirstVisitTracker implements the paper's first-visit rule (§4.4.1): the
// return following the first visit of a state within an episode is counted;
// later visits within the same episode are ignored. Reset clears it at
// episode boundaries, making the next occurrence a new first visit.
type FirstVisitTracker[S comparable] struct {
	seen map[S]struct{}
}

// NewFirstVisitTracker returns an empty tracker.
func NewFirstVisitTracker[S comparable]() *FirstVisitTracker[S] {
	return &FirstVisitTracker[S]{seen: make(map[S]struct{})}
}

// FirstVisit reports whether this is the first visit of s in the current
// episode, and records the visit.
func (t *FirstVisitTracker[S]) FirstVisit(s S) bool {
	if _, ok := t.seen[s]; ok {
		return false
	}
	t.seen[s] = struct{}{}
	return true
}

// Reset starts a new episode.
func (t *FirstVisitTracker[S]) Reset() { t.seen = make(map[S]struct{}) }

// Len returns the number of states visited this episode.
func (t *FirstVisitTracker[S]) Len() int { return len(t.seen) }

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
