package core

import (
	"math/rand"
	"slices"

	"alex/internal/feature"
	"alex/internal/feedback"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rl"
)

// A partition keeps its learning state in slices indexed by small dense
// ids instead of in maps keyed by links. Every link it keeps state for —
// a candidate, a judged link, an explored one, one read from a snapshot —
// is interned on first sight into a link id, its index in links and ls;
// ids are never reused, so an id read from any table always names the same
// link. A state-action pair, a (link, feature) the policy explored, is
// interned the same way into an sa id, its index in sas and in the value
// table q. The one map lookup per link is ids, at the boundary: a feedback
// item, an exploration result, an initial or restored link.

// Link flags (linkState.flags).
const (
	isCandidate   uint8 = 1 << iota
	isBlacklisted       // rejected BlacklistNegatives times; never re-added (§6.3)
	isConfirmed         // positively judged; never removed by rollback
)

// linkState is what a partition knows about one link.
type linkState struct {
	flags uint8
	// pairs heads the chain (through saState.next) of the state-action
	// pairs explored with the link as their state; rl.NoID ends it.
	pairs uint32
	// negs counts the negative feedback on the link (blacklisting).
	negs int
	// prov lists the state-action pairs whose exploration produced the
	// link.
	prov []uint32
}

// saState is one state-action pair — the unit rewards are attributed to and
// rollback operates on.
type saState struct {
	s    uint32 // link id
	next uint32 // the state's next pair, or rl.NoID
	a    feature.Feature
	// gen lists the links the pair's explorations added (by link id).
	gen []uint32
	// negs counts negative feedback on links the pair generated; a rolled
	// back pair is never explored again: it demonstrably floods the set
	// with wrong links, so re-exploring it would only re-create the flood
	// it just undid — the links it covered remain discoverable through
	// other state-action pairs (§6.3).
	negs       int
	rolledBack bool
}

// partition owns an independent slice of the search space (§6.2): the
// feature space between one partition of the larger data set and all of the
// smaller one, its own candidate links, policy, value estimates, blacklist
// and rollback bookkeeping. Partitions never communicate, so the engine
// runs them on separate goroutines.
type partition struct {
	id    int
	space *feature.Space
	cfg   Config
	rng   *rand.Rand

	ids        map[linkset.Link]uint32
	links      []linkset.Link // by link id
	ls         []linkState    // by link id
	sas        []saState      // by sa id
	candidates int            // links flagged isCandidate
	order      []uint32       // sampling support: insertion-ordered candidates

	// view is the published form of the candidates: the same links as a run
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
	touched     []uint32
	overflowed  bool

	// q holds the returns of each state-action pair (by sa id), policy the
	// greedy action of each state (by link id), visits the states whose
	// first visit this episode has been credited, and visited the states
	// to improve at the episode's end.
	q       rl.QTable
	policy  *rl.EpsilonGreedy[feature.Feature]
	visits  *rl.FirstVisitTracker
	visited *rl.FirstVisitTracker
	// fq aggregates returns per feature and value band across all states —
	// the partition's global estimate of how distinctive each feature is,
	// by an id interned in fqIDs. The paper notes ALEX "can learn that this
	// feature is not distinctive and avoid exploring around it in the
	// future" (§4.2); without sharing that knowledge across states, every
	// new state would have to rediscover owl:Thing-style floods from
	// scratch, inflating convergence from O(features) to O(states ×
	// features) feedback.
	fq     rl.QTable
	fqIDs  map[fqKey]uint32
	fqByID []fqKey // by fq id

	// Scratch buffers reused from call to call.
	explored []linkset.Link
	pairs    []uint32
	bands    []uint32
	untried  []int

	// Episode counters. episodeAdds/episodeRemoves count raw mutation
	// activity (including intra-episode churn); episodeChanged is the
	// symmetric difference between the candidate sets at the episode's
	// start and end (what fold reports), which is what the paper's
	// convergence test compares (§3.2).
	episodeAdds, episodeRemoves int
	episodeChanged              int
	negFeedback, posFeedback    int
	// droppedConverged counts feedback items this episode discarded
	// because the partition had already converged (frozen partitions
	// take no further feedback; see Engine.ApplyEpisode).
	droppedConverged int
	rollbacks        int
	converged        bool
	episodes         int

	// obs holds engine-wide instruments; its fields are nil-safe no-ops
	// until Engine.SetObserver resolves them.
	obs *engineObs
}

func newPartition(id int, space *feature.Space, cfg Config, seed int64) *partition {
	return &partition{
		id:      id,
		space:   space,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(seed)),
		ids:     make(map[linkset.Link]uint32),
		policy:  rl.NewEpsilonGreedy[feature.Feature](cfg.Epsilon, rand.New(rand.NewSource(seed+1))),
		visits:  rl.NewFirstVisitTracker(),
		visited: rl.NewFirstVisitTracker(),
		fqIDs:   make(map[fqKey]uint32),
		obs:     &engineObs{},
	}
}

// intern returns l's link id, assigning the next one on first sight.
func (p *partition) intern(l linkset.Link) uint32 {
	if id, ok := p.ids[l]; ok {
		return id
	}
	id := uint32(len(p.links))
	p.ids[l] = id
	p.links = append(p.links, l)
	p.ls = append(p.ls, linkState{pairs: rl.NoID})
	return id
}

// pair returns the sa id of (s, a), or rl.NoID if it was never explored.
// A state has few pairs (one per feature tried there), so a walk of its
// chain beats any index.
func (p *partition) pair(s uint32, a feature.Feature) uint32 {
	for sa := p.ls[s].pairs; sa != rl.NoID; sa = p.sas[sa].next {
		if p.sas[sa].a == a {
			return sa
		}
	}
	return rl.NoID
}

// internPair returns the sa id of (s, a), assigning the next one on first
// sight.
func (p *partition) internPair(s uint32, a feature.Feature) uint32 {
	if sa := p.pair(s, a); sa != rl.NoID {
		return sa
	}
	sa := uint32(len(p.sas))
	p.sas = append(p.sas, saState{s: s, next: p.ls[s].pairs, a: a})
	p.ls[s].pairs = sa
	return sa
}

// addCandidate inserts a link, respecting the blacklist.
func (p *partition) addCandidate(id uint32) bool {
	st := &p.ls[id]
	if st.flags&(isBlacklisted|isCandidate) != 0 {
		return false
	}
	st.flags |= isCandidate
	p.candidates++
	p.order = append(p.order, id)
	p.touch(id)
	return true
}

// removeCandidate deletes a link from the candidate set.
func (p *partition) removeCandidate(id uint32) bool {
	st := &p.ls[id]
	if st.flags&isCandidate == 0 {
		return false
	}
	st.flags &^= isCandidate
	p.candidates--
	p.touch(id)
	return true
}

// isCandidate reports whether link id is a current candidate.
func (p *partition) isCandidate(id uint32) bool { return p.ls[id].flags&isCandidate != 0 }

// touch logs a change to a link's membership for the next fold.
func (p *partition) touch(id uint32) {
	if len(p.touched) > len(p.view) {
		p.overflowed = true
		return
	}
	p.touched = append(p.touched, id)
}

// fold brings view up to date with the candidate flags and returns how many
// links the set has gained or lost, net, since the last fold — a link added
// and removed again cancels out. From a complete log it is one walk: the
// touched links, sorted, are merged into the old view, each kept or dropped
// by its flag now; the untouched stretches between them are copied whole.
// From a cut-short one the new view is the flagged links, sorted, and the
// count their symmetric difference with the old.
func (p *partition) fold() int {
	if len(p.touched) == 0 {
		return 0
	}
	old, next := p.view, p.spare[:0]
	changed := 0
	if p.overflowed {
		for id, st := range p.ls {
			if st.flags&isCandidate != 0 {
				next = append(next, p.links[id])
			}
		}
		next = linkset.Sort(next)
		changed = len(old) + len(next) - 2*intersection(old, next)
		p.overflowed = false
	} else {
		slices.SortFunc(p.touched, func(a, b uint32) int { return linkset.Compare(p.links[a], p.links[b]) })
		for _, id := range slices.Compact(p.touched) {
			l := p.links[id]
			at, was := slices.BinarySearchFunc(old, l, linkset.Compare)
			next = append(next, old[:at]...)
			old = old[at:]
			if was {
				old = old[1:]
			}
			now := p.isCandidate(id)
			if now {
				next = append(next, l)
			}
			if now != was {
				changed++
			}
		}
		next = append(next, old...)
	}
	p.view, p.spare = next, p.view
	p.touched = p.touched[:0]
	return changed
}

// intersection counts the links two runs share.
func intersection(a, b []linkset.Link) int {
	n := 0
	for len(a) > 0 && len(b) > 0 {
		switch c := linkset.Compare(a[0], b[0]); {
		case c < 0:
			a = a[1:]
		case c > 0:
			b = b[1:]
		default:
			n++
			a, b = a[1:], b[1:]
		}
	}
	return n
}

// sample picks a uniformly random current candidate for feedback; ok is
// false when the partition has no candidates.
func (p *partition) sample() (uint32, bool) {
	// The order slice may contain removed links; retry a few times before
	// compacting.
	for attempt := 0; attempt < 8; attempt++ {
		if len(p.order) == 0 {
			return 0, false
		}
		id := p.order[p.rng.Intn(len(p.order))]
		if p.isCandidate(id) {
			return id, true
		}
		p.compactOrder()
	}
	return 0, false
}

func (p *partition) compactOrder() {
	live := p.order[:0]
	for _, id := range p.order {
		if p.isCandidate(id) {
			live = append(live, id)
		}
	}
	p.order = live
}

// actions returns A(s): the features of the state's feature set (§4.2).
func (p *partition) actions(s uint32) []feature.Feature {
	fs, ok := p.space.FeatureSet(p.links[s])
	if !ok {
		return nil
	}
	return fs.Features
}

// runEpisode processes n sampled feedback items (policy evaluation,
// Algorithm 1 lines 11-22) then improves the policy (lines 24-33). judge
// supplies the user verdicts.
func (p *partition) runEpisode(n int, judge feedback.Judge) {
	p.resetEpisodeCounters()
	if p.converged {
		return
	}
	p.beginEpisode()
	for i := 0; i < n; i++ {
		id, ok := p.sample()
		if !ok {
			break
		}
		p.handleFeedback(id, judge(p.links[id]))
	}
	p.endEpisode()
}

// applyEpisode processes an explicit list of user feedback items as one
// episode — the interactive path, where verdicts come from query-answer
// approvals rather than sampling.
func (p *partition) applyEpisode(items []Feedback) {
	p.resetEpisodeCounters()
	if p.converged {
		p.droppedConverged = len(items)
		p.obs.cDroppedConverged.Add(int64(len(items)))
		return
	}
	if len(items) == 0 {
		return
	}
	p.beginEpisode()
	for _, it := range items {
		p.handleFeedback(p.intern(it.Link), it.Approved)
	}
	p.endEpisode()
}

func (p *partition) resetEpisodeCounters() {
	p.episodeAdds, p.episodeRemoves, p.episodeChanged = 0, 0, 0
	p.negFeedback, p.posFeedback = 0, 0
	p.droppedConverged = 0
}

func (p *partition) beginEpisode() {
	p.visits.Reset()
	p.visited.Reset()
}

// endEpisode improves the policy and evaluates convergence by comparing
// the candidate set before and after the episode; links added and rolled
// back within the same episode cancel out.
func (p *partition) endEpisode() {
	p.improvePolicy()
	p.episodes++
	p.episodeChanged = p.fold()
	switch {
	case p.episodeChanged == 0, p.episodes >= p.cfg.MaxEpisodes:
		p.converged = true
	case p.cfg.RelaxedConvergence &&
		float64(p.episodeChanged) < p.cfg.RelaxedThreshold*float64(p.candidates):
		p.converged = true
	}
}

// handleFeedback applies one feedback item on link id: reward propagation
// to the generating state-action pairs (first visit only), then the action
// — exploration on approval, removal (+blacklist, rollback check) on
// rejection.
func (p *partition) handleFeedback(id uint32, approved bool) {
	reward := p.cfg.NegReward
	if approved {
		reward = p.cfg.PosReward
		p.posFeedback++
		p.obs.cPos.Inc()
	} else {
		p.negFeedback++
		p.obs.cNeg.Inc()
	}
	if p.visits.FirstVisit(id) {
		for _, sa := range p.ls[id].prov {
			p.q.Append(sa, reward)
			if k, ok := p.bandOf(sa); ok {
				p.fq.Append(p.internBand(k), reward)
			}
			p.visited.FirstVisit(p.sas[sa].s)
		}
	}
	p.visited.FirstVisit(id)

	if approved {
		p.ls[id].flags |= isConfirmed
		p.explore(id)
		return
	}
	// Negative feedback: remove the link (Algorithm 1 line 20) and
	// remember it (§6.3 blacklist). A previous (possibly erroneous)
	// confirmation is withdrawn — the latest evidence wins, which is what
	// lets rollback clean up after incorrect positive feedback (App. C).
	p.ls[id].flags &^= isConfirmed
	if p.removeCandidate(id) {
		p.episodeRemoves++
		p.obs.cRemoves.Inc()
	}
	if !p.cfg.blacklistOff {
		st := &p.ls[id]
		st.negs++
		if st.negs >= p.cfg.BlacklistNegatives {
			st.flags |= isBlacklisted
		}
	}
	if !p.cfg.rollbackOff {
		for _, sa := range p.ls[id].prov {
			p.sas[sa].negs++
			if p.sas[sa].negs >= p.cfg.RollbackNegatives {
				p.rollback(sa)
			}
		}
	}
}

// explore takes the policy's action at an approved link: pick a feature and
// admit every space pair whose score for it lies within ±StepSize of the
// approved link's value (§4.2).
func (p *partition) explore(s uint32) {
	l := p.links[s]
	fs, _ := p.space.FeatureSet(l)
	actions := fs.Features
	if len(actions) == 0 {
		return
	}
	// First sight of this state: seed its arbitrary action from the
	// partition-wide feature experience instead of blind uniformity —
	// untried features are explored (randomly among them), features with
	// known-bad global returns are avoided.
	if _, seen := p.policy.Greedy(s); !seen && !p.cfg.featurePriorOff {
		p.policy.Improve(s, p.arbitraryAction(fs))
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
	v, ok := fs.Score(a)
	if !ok {
		return
	}
	sa := p.pair(s, a)
	if sa != rl.NoID && p.sas[sa].rolledBack {
		return
	}
	// The paper's §4.2: a feature learned to be indistinct is avoided "in
	// the future". Once the partition-wide return for a feature *in this
	// value band* is firmly negative, exploring around it only floods the
	// set with links that rollback will undo — treat the action as a
	// no-op instead. Distinctiveness is per value band: a name similarity
	// of 1.0 identifies entities, a name similarity of 0.6 does not.
	if !p.cfg.featurePriorOff {
		k := p.band(fqKey{f: a, bucket: valueBucket(v)})
		if mean, ok := p.fq.Q(k); ok && mean < -0.5 && p.fq.Visits(k) >= 10 {
			return
		}
	}
	p.obs.cExplorations.Inc()
	p.explored = p.space.AppendExplore(p.explored[:0], a, v, p.cfg.StepSize, p.cfg.MaxExplored)
	for _, found := range p.explored {
		if found == l {
			continue
		}
		id := p.intern(found)
		if !p.addCandidate(id) {
			continue
		}
		if sa == rl.NoID {
			sa = p.internPair(s, a)
		}
		p.episodeAdds++
		p.obs.cAdds.Inc()
		p.ls[id].prov = append(p.ls[id].prov, sa)
		p.sas[sa].gen = append(p.sas[sa].gen, id)
	}
}

// fqKey identifies a feature in one value band (buckets of 0.1): the unit
// the partition-wide distinctiveness estimate is learned over.
type fqKey struct {
	f      feature.Feature
	bucket int
}

// valueBucket discretizes a score into 0.1-wide bands.
func valueBucket(v float64) int { return int(v*10 + 0.5) }

// band returns the fq id of k, or rl.NoID if no return was ever recorded
// for it.
func (p *partition) band(k fqKey) uint32 {
	if id, ok := p.fqIDs[k]; ok {
		return id
	}
	return rl.NoID
}

// internBand returns the fq id of k, assigning the next one on first sight.
func (p *partition) internBand(k fqKey) uint32 {
	if id, ok := p.fqIDs[k]; ok {
		return id
	}
	id := uint32(len(p.fqByID))
	p.fqIDs[k] = id
	p.fqByID = append(p.fqByID, k)
	return id
}

// bandOf resolves a state-action pair to its feature/value-band key, as
// the state's feature set scores the action now.
func (p *partition) bandOf(sa uint32) (fqKey, bool) {
	x := &p.sas[sa]
	fs, ok := p.space.FeatureSet(p.links[x.s])
	if !ok {
		return fqKey{}, false
	}
	v, ok := fs.Score(x.a)
	if !ok {
		return fqKey{}, false
	}
	return fqKey{f: x.a, bucket: valueBucket(v)}, true
}

// arbitraryAction picks the initial action for a never-seen state with
// feature set fs: a random globally-untried feature/value band when one
// exists (continuous exploration of the feature space), otherwise the band
// with the best partition-wide average return.
func (p *partition) arbitraryAction(fs feature.Set) feature.Feature {
	actions := fs.Features
	p.bands, p.untried = p.bands[:0], p.untried[:0]
	for i, a := range actions {
		v, _ := fs.Score(a)
		k := p.band(fqKey{f: a, bucket: valueBucket(v)})
		p.bands = append(p.bands, k)
		if _, ok := p.fq.Q(k); !ok {
			p.untried = append(p.untried, i)
		}
	}
	if len(p.untried) > 0 {
		return actions[p.untried[p.rng.Intn(len(p.untried))]]
	}
	bestI, bestV := 0, -1e18
	for i, k := range p.bands {
		if mean, ok := p.fq.Q(k); ok && mean > bestV {
			bestI, bestV = i, mean
		}
	}
	return actions[bestI]
}

// rollback removes every link generated by the state-action pair except
// positively-confirmed ones. Removed links are NOT blacklisted — they may
// include correct links discoverable later by a better action (§6.3).
func (p *partition) rollback(sa uint32) {
	links := p.sas[sa].gen
	if len(links) == 0 {
		return
	}
	p.rollbacks++
	p.obs.cRollbacks.Inc()
	for _, id := range links {
		if p.ls[id].flags&isConfirmed != 0 {
			continue
		}
		if p.removeCandidate(id) {
			p.episodeRemoves++
			p.obs.cRemoves.Inc()
		}
		// Drop this pair from the link's provenance so future feedback
		// does not credit a rolled-back action.
		p.ls[id].prov = removeSA(p.ls[id].prov, sa)
	}
	x := &p.sas[sa]
	x.gen, x.negs, x.rolledBack = nil, 0, true
}

// removeSA filters sa out of list in place.
func removeSA(list []uint32, sa uint32) []uint32 {
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
func (p *partition) improvePolicy() {
	for _, s := range p.visited.Visited() {
		actions := p.actions(s)
		if len(actions) == 0 {
			continue
		}
		// Untried actions count as value 0: a state whose explored feature
		// collected negative returns must move its greedy choice to an
		// untried feature rather than stay locked on the bad one.
		p.pairs = p.pairs[:0]
		for _, a := range actions {
			p.pairs = append(p.pairs, p.pair(s, a))
		}
		if best, ok := p.q.BestOptimistic(p.pairs, 0); ok {
			p.policy.Improve(s, actions[best])
		}
	}
}

// endSpan records the partition's episode counters on its trace span; a nil
// span (tracing off) is inert.
func (p *partition) endSpan(sp *obs.Span) {
	if sp == nil {
		return
	}
	sp.SetInt("id", int64(p.id))
	sp.SetInt("feedback", int64(p.posFeedback+p.negFeedback))
	sp.SetInt("added", int64(p.episodeAdds))
	sp.SetInt("removed", int64(p.episodeRemoves))
	sp.SetInt("candidates", int64(p.candidates))
	sp.End()
}
