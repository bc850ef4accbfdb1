package core

import (
	"errors"
	"math/rand"
	"slices"

	"alex/internal/feature"
	"alex/internal/feedback"
	"alex/internal/linkset"
)

// The reference model of one partition's learning: the map-based partition
// and the generic rl tables it ran on before the learning state moved into
// id-indexed slices, kept here verbatim (renamed ref…) as the oracle the
// engine is compared against (equivalence_test.go). Every table is a Go
// map keyed by the link or state-action itself, so what each step of
// Algorithm 1 does to the state is written out as plainly as the engine
// once did it.

// refSA is one (link, feature) pair — the unit rewards are attributed
// to and rollback operates on.
type refSA struct {
	s linkset.Link
	a feature.Feature
}

// refPartition owns an independent slice of the search space (§6.2): the
// feature space between one refPartition of the larger data set and all of the
// smaller one, its own candidate links, policy, value estimates, blacklist
// and rollback bookkeeping. Partitions never communicate, so the engine
// runs them on separate goroutines.
type refPartition struct {
	id    int
	space *feature.Space
	cfg   Config
	rng   *rand.Rand

	candidates map[linkset.Link]struct{}
	order      []linkset.Link // sampling support: insertion-ordered candidates
	blacklist  map[linkset.Link]struct{}
	negByLink  map[linkset.Link]int

	// view is the published form of candidates: the same links as a run
	// (linkset.Compare order), as of the last fold. touched logs every link
	// added or removed since — until the log outgrows the view, when merging
	// it would save nothing over sorting the set: an episode that floods and
	// rolls back churns through many times the links it keeps. overflowed
	// then says the log is incomplete. Every engine entry point that can
	// change candidates folds before it releases the write lock, so a
	// reader holding the read lock finds touched empty and view current.
	// spare is the array the view before this one lived in, reused by the
	// next fold: views leave the engine only as copies or merged into a new
	// run.
	view, spare []linkset.Link
	touched     []linkset.Link
	overflowed  bool

	q      *refQTable[linkset.Link, feature.Feature]
	policy *refEpsilonGreedy[linkset.Link, feature.Feature]
	visits *refFirstVisitTracker[linkset.Link]
	// fq aggregates returns per feature across all states — the refPartition's
	// global estimate of how distinctive each feature is. The paper notes
	// ALEX "can learn that this feature is not distinctive and avoid
	// exploring around it in the future" (§4.2); without sharing that
	// knowledge across states, every new state would have to rediscover
	// owl:Thing-style floods from scratch, inflating convergence from
	// O(features) to O(states × features) feedback.
	fq *refQTable[struct{}, refFQKey]

	// provenance maps a link to the state-action pairs whose exploration
	// produced it; genLinks is the inverse.
	provenance map[linkset.Link][]refSA
	genLinks   map[refSA][]linkset.Link
	// negBySA counts cumulative negative feedback on links generated by a
	// pair; posConfirmed marks links with positive feedback (never removed
	// by rollback). rolledBack disqualifies a state-action pair after its
	// rollback: the pair demonstrably floods the set with wrong links, so
	// re-exploring it would only re-create the flood it just undid — the
	// links it covered remain discoverable through other state-action
	// pairs (§6.3).
	negBySA      map[refSA]int
	posConfirmed map[linkset.Link]struct{}
	rolledBack   map[refSA]struct{}
	// visited collects states seen this episode for policy improvement.
	visited map[linkset.Link]struct{}

	// Episode counters. episodeAdds/episodeRemoves count raw mutation
	// activity (including intra-episode churn); episodeChanged is the
	// symmetric difference between the candidate sets at the episode's
	// start and end (what fold reports), which is what the paper's
	// convergence test compares (§3.2).
	episodeAdds, episodeRemoves int
	episodeChanged              int
	negFeedback, posFeedback    int
	rollbacks                   int
	converged                   bool
	episodes                    int

	// obs holds engine-wide instruments; its fields are nil-safe no-ops
	// until Engine.SetObserver resolves them.
	obs *engineObs
}

func newRefPartition(id int, space *feature.Space, cfg Config, seed int64) *refPartition {
	return &refPartition{
		id:           id,
		space:        space,
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(seed)),
		candidates:   make(map[linkset.Link]struct{}),
		blacklist:    make(map[linkset.Link]struct{}),
		negByLink:    make(map[linkset.Link]int),
		q:            newRefQTable[linkset.Link, feature.Feature](),
		fq:           newRefQTable[struct{}, refFQKey](),
		policy:       newRefEpsilonGreedy[linkset.Link, feature.Feature](cfg.Epsilon, rand.New(rand.NewSource(seed+1))),
		visits:       newRefFirstVisitTracker[linkset.Link](),
		provenance:   make(map[linkset.Link][]refSA),
		genLinks:     make(map[refSA][]linkset.Link),
		negBySA:      make(map[refSA]int),
		posConfirmed: make(map[linkset.Link]struct{}),
		rolledBack:   make(map[refSA]struct{}),
		visited:      make(map[linkset.Link]struct{}),
		obs:          &engineObs{},
	}
}

// addCandidate inserts a link, respecting the blacklist.
func (p *refPartition) addCandidate(l linkset.Link) bool {
	if _, black := p.blacklist[l]; black {
		return false
	}
	if _, dup := p.candidates[l]; dup {
		return false
	}
	p.candidates[l] = struct{}{}
	p.order = append(p.order, l)
	p.touch(l)
	return true
}

// removeCandidate deletes a link from the candidate set.
func (p *refPartition) removeCandidate(l linkset.Link) bool {
	if _, ok := p.candidates[l]; !ok {
		return false
	}
	delete(p.candidates, l)
	p.touch(l)
	return true
}

// touch logs a change to l's membership for the next fold.
func (p *refPartition) touch(l linkset.Link) {
	if len(p.touched) > len(p.view) {
		p.overflowed = true
		return
	}
	p.touched = append(p.touched, l)
}

// fold brings view up to date with candidates and returns how many links
// the set has gained or lost, net, since the last fold — a link added and
// removed again cancels out. One walk: the touched links, sorted, are
// merged into the old view, each kept or dropped by what candidates says
// now; the untouched stretches between them are copied whole.
func (p *refPartition) fold() int {
	if len(p.touched) == 0 {
		return 0
	}
	if p.overflowed {
		// The log was cut short, so any link of the old view or the
		// current set may have changed: check them all.
		p.touched = append(p.touched[:0], p.view...)
		for l := range p.candidates {
			p.touched = append(p.touched, l)
		}
		p.overflowed = false
	}
	changed := 0
	old, next := p.view, p.spare[:0]
	for _, l := range linkset.Sort(p.touched) {
		at, was := slices.BinarySearchFunc(old, l, linkset.Compare)
		next = append(next, old[:at]...)
		old = old[at:]
		if was {
			old = old[1:]
		}
		_, now := p.candidates[l]
		if now {
			next = append(next, l)
		}
		if now != was {
			changed++
		}
	}
	p.view, p.spare = append(next, old...), p.view
	p.touched = p.touched[:0]
	return changed
}

// sample picks a random current candidate for feedback, weighted by its
// entries in order as partition.sample is; ok is false when the
// refPartition has no candidates.
func (p *refPartition) sample() (linkset.Link, bool) {
	// The order slice may contain removed links; retry a few times before
	// compacting.
	for attempt := 0; attempt < 8; attempt++ {
		if len(p.order) == 0 {
			return linkset.Link{}, false
		}
		l := p.order[p.rng.Intn(len(p.order))]
		if _, ok := p.candidates[l]; ok {
			return l, true
		}
		p.compactOrder()
	}
	return linkset.Link{}, false
}

func (p *refPartition) compactOrder() {
	live := p.order[:0]
	for _, l := range p.order {
		if _, ok := p.candidates[l]; ok {
			live = append(live, l)
		}
	}
	p.order = live
}

// actions returns A(s): the features of the state's feature set (§4.2).
func (p *refPartition) actions(s linkset.Link) []feature.Feature {
	fs, ok := p.space.FeatureSet(s)
	if !ok {
		return nil
	}
	return fs.Features
}

// runEpisode processes n sampled feedback items (policy evaluation,
// Algorithm 1 lines 11-22) then improves the policy (lines 24-33). judge
// supplies the user verdicts.
func (p *refPartition) runEpisode(n int, judge feedback.Judge) {
	p.resetEpisodeCounters()
	if p.converged {
		return
	}
	p.beginEpisode()
	for i := 0; i < n; i++ {
		l, ok := p.sample()
		if !ok {
			break
		}
		p.handleFeedback(l, judge(l))
	}
	p.endEpisode()
	p.converged = p.converged || p.episodes >= p.cfg.MaxEpisodes
}

// applyEpisode processes an explicit list of user feedback items as one
// episode — the interactive path, where verdicts come from query-answer
// approvals rather than sampling. A converged refPartition applies them
// too: convergence only stops sampling.
func (p *refPartition) applyEpisode(items []Feedback) {
	p.resetEpisodeCounters()
	if len(items) == 0 {
		return
	}
	p.beginEpisode()
	for _, it := range items {
		p.handleFeedback(it.Link, it.Approved)
	}
	p.endEpisode()
}

func (p *refPartition) resetEpisodeCounters() {
	p.episodeAdds, p.episodeRemoves, p.episodeChanged = 0, 0, 0
	p.negFeedback, p.posFeedback = 0, 0
}

func (p *refPartition) beginEpisode() {
	p.visits.Reset()
	clear(p.visited)
}

// endEpisode improves the policy and evaluates convergence by comparing
// the candidate set before and after the episode; links added and rolled
// back within the same episode cancel out. An episode that changes the
// candidates reopens a converged refPartition; MaxEpisodes stops only
// runEpisode's sampling.
func (p *refPartition) endEpisode() {
	p.improvePolicy()
	p.episodes++
	p.episodeChanged = p.fold()
	p.converged = p.episodeChanged == 0
}

// handleFeedback applies one feedback item: reward propagation to the
// generating state-action pairs (first visit only), then the action —
// exploration on approval, removal (+blacklist, rollback check) on
// rejection.
func (p *refPartition) handleFeedback(l linkset.Link, approved bool) {
	reward := -1.0
	if approved {
		reward = 1
		p.posFeedback++
		p.obs.cPos.Inc()
	} else {
		p.negFeedback++
		p.obs.cNeg.Inc()
	}
	if p.visits.FirstVisit(l) {
		for _, sa := range p.provenance[l] {
			p.q.Append(sa.s, sa.a, reward)
			if k, ok := p.refFQKeyOf(sa); ok {
				p.fq.Append(struct{}{}, k, reward)
			}
			p.visited[sa.s] = struct{}{}
		}
	}
	p.visited[l] = struct{}{}

	if approved {
		p.markConfirmed(l)
		p.explore(l)
		return
	}
	// Negative feedback: remove the link (Algorithm 1 line 20) and
	// remember it (§6.3 blacklist). A previous (possibly erroneous)
	// confirmation is withdrawn — the latest evidence wins, which is what
	// lets rollback clean up after incorrect positive feedback (App. C).
	delete(p.posConfirmed, l)
	if p.removeCandidate(l) {
		p.episodeRemoves++
		p.obs.cRemoves.Inc()
	}
	if !p.cfg.blacklistOff {
		p.negByLink[l]++
		if p.negByLink[l] >= p.cfg.BlacklistNegatives {
			p.blacklist[l] = struct{}{}
		}
	}
	if !p.cfg.rollbackOff {
		for _, sa := range p.provenance[l] {
			p.negBySA[sa]++
			if p.negBySA[sa] >= p.cfg.RollbackNegatives {
				p.rollback(sa)
			}
		}
	}
}

// explore takes the policy's action at an approved link: pick a feature and
// admit every space pair whose score for it lies within ±StepSize of the
// approved link's value (§4.2).
func (p *refPartition) explore(s linkset.Link) {
	actions := p.actions(s)
	if len(actions) == 0 {
		return
	}
	// First sight of this state: seed its arbitrary action from the
	// refPartition-wide feature experience instead of blind uniformity —
	// untried features are explored (randomly among them), features with
	// known-bad global returns are avoided.
	if _, seen := p.policy.Greedy(s); !seen && !p.cfg.featurePriorOff {
		p.policy.Improve(s, p.arbitraryAction(s, actions))
	}
	a, err := p.policy.Action(s, actions)
	if err != nil {
		// Unreachable: actions is non-empty (guarded above); ErrNoActions
		// is the only error the policies return.
		return
	}
	// Classify the pick as greedy or exploratory (one extra Greedy call,
	// only paid when metrics are on).
	if p.obs.cPickGreedy != nil {
		if g, ok := p.policy.Greedy(s); ok && g == a {
			p.obs.cPickGreedy.Inc()
		} else {
			p.obs.cPickExplore.Inc()
		}
	}
	fs, _ := p.space.FeatureSet(s)
	v, ok := fs.Score(a)
	if !ok {
		return
	}
	sa := refSA{s: s, a: a}
	if _, bad := p.rolledBack[sa]; bad {
		return
	}
	// The paper's §4.2: a feature learned to be indistinct is avoided "in
	// the future". Once the refPartition-wide return for a feature *in this
	// value band* is firmly negative, exploring around it only floods the
	// set with links that rollback will undo — treat the action as a
	// no-op instead. Distinctiveness is per value band: a name similarity
	// of 1.0 identifies entities, a name similarity of 0.6 does not.
	if !p.cfg.featurePriorOff {
		k := refFQKey{f: a, bucket: refValueBucket(v)}
		if mean, ok := p.fq.Q(struct{}{}, k); ok && mean < -0.5 && p.fq.Visits(struct{}{}, k) >= 10 {
			return
		}
	}
	p.obs.cExplorations.Inc()
	for _, found := range p.space.ExploreN(a, v, p.cfg.StepSize, p.cfg.MaxExplored) {
		if found == s {
			continue
		}
		if !p.addCandidate(found) {
			continue
		}
		p.episodeAdds++
		p.obs.cAdds.Inc()
		p.provenance[found] = append(p.provenance[found], sa)
		p.genLinks[sa] = append(p.genLinks[sa], found)
	}
}

// refFQKey identifies a feature in one value band (buckets of 0.1): the unit
// the refPartition-wide distinctiveness estimate is learned over.
type refFQKey struct {
	f      feature.Feature
	bucket int
}

// refValueBucket discretizes a score into 0.1-wide bands.
func refValueBucket(v float64) int { return int(v*10 + 0.5) }

// refFQKeyOf resolves a state-action pair to its feature/value-band key.
func (p *refPartition) refFQKeyOf(sa refSA) (refFQKey, bool) {
	fs, ok := p.space.FeatureSet(sa.s)
	if !ok {
		return refFQKey{}, false
	}
	v, ok := fs.Score(sa.a)
	if !ok {
		return refFQKey{}, false
	}
	return refFQKey{f: sa.a, bucket: refValueBucket(v)}, true
}

// arbitraryAction picks the initial action for a never-seen state: a random
// globally-untried feature/value band when one exists (continuous
// exploration of the feature space), otherwise the band with the best
// refPartition-wide average return.
func (p *refPartition) arbitraryAction(s linkset.Link, actions []feature.Feature) feature.Feature {
	fs, haveFS := p.space.FeatureSet(s)
	if !haveFS {
		return actions[p.rng.Intn(len(actions))]
	}
	keys := make([]refFQKey, len(actions))
	var untried []int
	for i, a := range actions {
		v, _ := fs.Score(a)
		keys[i] = refFQKey{f: a, bucket: refValueBucket(v)}
		if _, ok := p.fq.Q(struct{}{}, keys[i]); !ok {
			untried = append(untried, i)
		}
	}
	if len(untried) > 0 {
		return actions[untried[p.rng.Intn(len(untried))]]
	}
	bestI, bestV := 0, -1e18
	for i, k := range keys {
		if mean, ok := p.fq.Q(struct{}{}, k); ok && mean > bestV {
			bestI, bestV = i, mean
		}
	}
	return actions[bestI]
}

// rollback removes every link generated by the state-action pair except
// positively-confirmed ones. Removed links are NOT blacklisted — they may
// include correct links discoverable later by a better action (§6.3).
func (p *refPartition) rollback(sa refSA) {
	links := p.genLinks[sa]
	if len(links) == 0 {
		return
	}
	p.rollbacks++
	p.obs.cRollbacks.Inc()
	for _, l := range links {
		if _, confirmed := p.posConfirmed[l]; confirmed {
			continue
		}
		if p.removeCandidate(l) {
			p.episodeRemoves++
			p.obs.cRemoves.Inc()
		}
		// Drop this pair from the link's provenance so future feedback
		// does not credit a rolled-back action.
		p.provenance[l] = refRemoveSA(p.provenance[l], sa)
	}
	delete(p.genLinks, sa)
	p.negBySA[sa] = 0
	p.rolledBack[sa] = struct{}{}
}

func refRemoveSA(list []refSA, sa refSA) []refSA {
	out := list[:0]
	for _, x := range list {
		if x != sa {
			out = append(out, x)
		}
	}
	return out
}

// improvePolicy makes the policy greedy w.r.t. the current value estimates
// at every state visited this episode (Algorithm 1 lines 24-33).
func (p *refPartition) improvePolicy() {
	for s := range p.visited {
		actions := p.actions(s)
		if len(actions) == 0 {
			continue
		}
		// Untried actions count as value 0: a state whose explored feature
		// collected negative returns must move its greedy choice to an
		// untried feature rather than stay locked on the bad one.
		if best, ok := p.q.BestOptimistic(s, actions, 0); ok {
			p.policy.Improve(s, best)
		}
	}
}

// markConfirmed records positive feedback on a link for rollback exemption.
func (p *refPartition) markConfirmed(l linkset.Link) {
	p.posConfirmed[l] = struct{}{}
}

// The rl package's tables as the reference partition uses them: generic
// over state and action, one map entry per key.

var errRefNoActions = errors.New("rl: no available actions")

// sa is a state-action pair key.
type refRLKey[S comparable, A comparable] struct {
	s S
	a A
}

// refQTable accumulates returns for state-action pairs and exposes their
// Monte-Carlo action-value estimates Q(s,a) = average return (Algorithm 1,
// line 16). It is not safe for concurrent use; ALEX gives each partition
// its own table.
type refQTable[S comparable, A comparable] struct {
	sum   map[refRLKey[S, A]]float64
	count map[refRLKey[S, A]]int
}

// newRefQTable returns an empty table.
func newRefQTable[S comparable, A comparable]() *refQTable[S, A] {
	return &refQTable[S, A]{
		sum:   make(map[refRLKey[S, A]]float64),
		count: make(map[refRLKey[S, A]]int),
	}
}

// Append adds one observed return for (s, a).
func (q *refQTable[S, A]) Append(s S, a A, ret float64) {
	k := refRLKey[S, A]{s, a}
	q.sum[k] += ret
	q.count[k]++
}

// Q returns the action-value estimate and whether any return has been
// recorded. Per Algorithm 1 line 4, unvisited pairs are "undefined" —
// callers must treat ok == false as no knowledge, not as value zero.
func (q *refQTable[S, A]) Q(s S, a A) (float64, bool) {
	k := refRLKey[S, A]{s, a}
	n := q.count[k]
	if n == 0 {
		return 0, false
	}
	return q.sum[k] / float64(n), true
}

// Visits returns the number of returns recorded for (s, a).
func (q *refQTable[S, A]) Visits(s S, a A) int {
	return q.count[refRLKey[S, A]{s, a}]
}

// Best returns the greedy action among the candidates: the defined-Q action
// with maximal estimate (Equation 7). The second return is false when no
// candidate has a defined value. Ties break toward the earlier candidate,
// keeping the choice deterministic.
func (q *refQTable[S, A]) Best(s S, candidates []A) (A, bool) {
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
func (q *refQTable[S, A]) BestOptimistic(s S, candidates []A, def float64) (A, bool) {
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
func (q *refQTable[S, A]) Len() int { return len(q.count) }

// refQEntry is one persisted state-action statistic.
type refQEntry[S comparable, A comparable] struct {
	State  S
	Action A
	Sum    float64
	Count  int
}

// Entries exports every state-action statistic (unordered), for
// persistence and introspection. The generic key types are not ordered,
// so consumers that need stable bytes sort the exported slice themselves
// (see core.(*Engine).SaveState).
func (q *refQTable[S, A]) Entries() []refQEntry[S, A] {
	out := make([]refQEntry[S, A], 0, len(q.count))
	//lint:ignore nodeterminism documented-unordered export over generic (unsortable) keys; persisting consumers sort
	for k, n := range q.count {
		out = append(out, refQEntry[S, A]{State: k.s, Action: k.a, Sum: q.sum[k], Count: n})
	}
	return out
}

// Load restores one state-action statistic, replacing any existing value.
func (q *refQTable[S, A]) Load(e refQEntry[S, A]) {
	k := refRLKey[S, A]{e.State, e.Action}
	q.sum[k] = e.Sum
	q.count[k] = e.Count
}

// refEpsilonGreedy is the paper's ε-greedy policy: with probability 1−ε it
// takes the greedy action recorded by the last policy-improvement step; with
// probability ε it explores uniformly among all available actions, so every
// action keeps probability ≥ ε/|A(s)| (§4.4.1). States never improved yet
// take a deterministic arbitrary action (Algorithm 1 line 5) chosen on
// first sight and remembered.
type refEpsilonGreedy[S comparable, A comparable] struct {
	Epsilon float64
	rng     *rand.Rand
	greedy  map[S]A
}

// newRefEpsilonGreedy returns a policy with the given exploration rate, using
// rng for its stochastic choices.
func newRefEpsilonGreedy[S comparable, A comparable](epsilon float64, rng *rand.Rand) *refEpsilonGreedy[S, A] {
	return &refEpsilonGreedy[S, A]{Epsilon: epsilon, rng: rng, greedy: make(map[S]A)}
}

// Action selects the action to take at state s among actions (A(s)).
// It returns errRefNoActions if actions is empty; callers must not consult
// the policy for states with no available action.
func (p *refEpsilonGreedy[S, A]) Action(s S, actions []A) (A, error) {
	if len(actions) == 0 {
		var zero A
		return zero, errRefNoActions
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
func (p *refEpsilonGreedy[S, A]) Improve(s S, best A) { p.greedy[s] = best }

// Greedy returns the current greedy action for s.
func (p *refEpsilonGreedy[S, A]) Greedy(s S) (A, bool) {
	a, ok := p.greedy[s]
	return a, ok
}

// Prob returns π(s, a): the probability the policy selects a at s given the
// available action set. Matches the paper's ε-greedy definition: the greedy
// action has probability 1 − ε + ε/|A(s)|, every other action ε/|A(s)|.
func (p *refEpsilonGreedy[S, A]) Prob(s S, a A, actions []A) float64 {
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
func (p *refEpsilonGreedy[S, A]) Len() int { return len(p.greedy) }

// GreedyEntries exports the remembered greedy action of every state
// (unordered), for persistence.
func (p *refEpsilonGreedy[S, A]) GreedyEntries() map[S]A {
	out := make(map[S]A, len(p.greedy))
	for s, a := range p.greedy {
		out[s] = a
	}
	return out
}

// refFirstVisitTracker implements the paper's first-visit rule (§4.4.1): the
// return following the first visit of a state within an episode is counted;
// later visits within the same episode are ignored. Reset clears it at
// episode boundaries, making the next occurrence a new first visit.
type refFirstVisitTracker[S comparable] struct {
	seen map[S]struct{}
}

// newRefFirstVisitTracker returns an empty tracker.
func newRefFirstVisitTracker[S comparable]() *refFirstVisitTracker[S] {
	return &refFirstVisitTracker[S]{seen: make(map[S]struct{})}
}

// FirstVisit reports whether this is the first visit of s in the current
// episode, and records the visit.
func (t *refFirstVisitTracker[S]) FirstVisit(s S) bool {
	if _, ok := t.seen[s]; ok {
		return false
	}
	t.seen[s] = struct{}{}
	return true
}

// Reset starts a new episode.
func (t *refFirstVisitTracker[S]) Reset() { t.seen = make(map[S]struct{}) }

// Len returns the number of states visited this episode.
func (t *refFirstVisitTracker[S]) Len() int { return len(t.seen) }
