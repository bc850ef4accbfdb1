package core

import (
	"fmt"
	"slices"
	"sync"

	"alex/internal/feature"
	"alex/internal/feedback"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/par"
	"alex/internal/rdf"
	"alex/internal/store"
)

// Engine is one ALEX instance over a pair of data sets. Build it with New,
// seed it with the automatic linker's candidate links via SetInitialLinks,
// then drive episodes with RunEpisode (or Run until convergence).
type Engine struct {
	// mu guards all mutable engine state: episode execution, candidate
	// reads, and the live-maintenance entry points (live.go, stream.go)
	// that grow partitions under traffic. Mutators take the write lock;
	// read accessors take the read lock. The lock is NOT reentrant —
	// internal helpers called under the write lock use the *Locked
	// variants.
	mu         sync.RWMutex
	cfg        Config
	ds1, ds2   *store.Store
	partitions []*partition
	// right is the DS2 side of every partition's feature space: built once,
	// read by all of them, and written only by planSync, under the write
	// lock, before the partitions' rescoring fans out.
	right *feature.RightSide
	// subjectPartition routes a ds1 subject to its owning partition. It
	// holds one entry per subject ever routed, so its size is also the
	// round-robin counter new subjects continue (route).
	subjectPartition map[rdf.TermID]int
	episode          int
	// read1/read2 are how far the partitions' feature spaces have read
	// each store's triple log (planSync).
	read1, read2 int

	// Observability. obsReg gates the per-episode trace, whose root span
	// times the episode; the instruments themselves are nil-safe no-ops
	// when unset.
	obsReg      *obs.Registry
	hEpisodeNS  *obs.Histogram
	gCandidates *obs.Gauge
}

// engineObs bundles the instruments shared by every partition. Fields stay
// nil (no-op) until SetObserver resolves them.
type engineObs struct {
	cPos, cNeg      *obs.Counter
	cAdds, cRemoves *obs.Counter
	cExplorations   *obs.Counter
	cRollbacks      *obs.Counter
	cPickGreedy     *obs.Counter
	cPickExplore    *obs.Counter
}

// New builds an engine: it partitions the first data set round-robin
// (§6.2) and pre-computes each partition's feature space against the
// second data set (§3.2). ds1 should be the larger data set, as in the
// paper. Construction is the expensive pre-processing step: what depends
// on ds2 alone (its terms' profiles and the blocking index) is built once
// and shared, then feature.BuildSpaces builds every partition's space on
// one worker pool bounded by Config.Workers. The result is independent of
// the worker count.
func New(ds1, ds2 *store.Store, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	// The log positions come first: a triple added while the spaces are
	// built is read again at the next sync, which is harmless.
	read1, read2 := ds1.Len(), ds2.Len()
	subjects := ds1.Subjects()
	parts := feature.Partition(subjects, cfg.Partitions)

	e := &Engine{
		cfg:              cfg,
		ds1:              ds1,
		ds2:              ds2,
		partitions:       make([]*partition, len(parts)),
		subjectPartition: make(map[rdf.TermID]int, len(subjects)),
		right:            feature.NewRightSide(ds2, cfg.SpaceOptions),
		read1:            read1,
		read2:            read2,
	}
	for i, sub := range parts {
		for _, s := range sub {
			e.subjectPartition[s] = i
		}
	}
	opt := cfg.SpaceOptions
	opt.Workers = cfg.Workers
	for i, space := range feature.BuildSpaces(e.right, ds1, parts, opt) {
		e.partitions[i] = newPartition(i, space, cfg, cfg.Seed+int64(i)*7919)
	}
	return e
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetObserver attaches a metrics registry. Call it before running episodes
// (partitions read the instruments concurrently during an episode, and
// attachment is not synchronized against that). Instruments: counters
// core.feedback.{positive,negative}, core.links.{added,removed},
// core.explorations, core.rollbacks, core.pick.{greedy,explore}; gauge
// core.candidates; histogram core.episode_ns. Each episode additionally
// records a trace named "episode-<n>" with one span per partition,
// retrievable via reg.Traces().
func (e *Engine) SetObserver(reg *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.obsReg = reg
	e.hEpisodeNS = reg.Histogram(obs.CoreEpisodeNS)
	e.gCandidates = reg.Gauge(obs.CoreCandidates)
	reg.Gauge(obs.CoreExploreWorkers).Set(int64(e.cfg.Workers))
	o := &engineObs{
		cPos:          reg.Counter(obs.CoreFeedbackPositive),
		cNeg:          reg.Counter(obs.CoreFeedbackNegative),
		cAdds:         reg.Counter(obs.CoreLinksAdded),
		cRemoves:      reg.Counter(obs.CoreLinksRemoved),
		cExplorations: reg.Counter(obs.CoreExplorations),
		cRollbacks:    reg.Counter(obs.CoreRollbacks),
		cPickGreedy:   reg.Counter(obs.CorePickGreedy),
		cPickExplore:  reg.Counter(obs.CorePickExplore),
	}
	for _, p := range e.partitions {
		p.obs = o
		p.space.SetObserver(reg)
	}
}

// Partitions returns the number of partitions.
func (e *Engine) Partitions() int { return len(e.partitions) }

// SetInitialLinks seeds the candidate set with automatically generated
// links. Links whose left entity is unknown to the engine are dropped (they
// cannot be routed to a partition).
func (e *Engine) SetInitialLinks(links []linkset.Link) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, l := range links {
		pi, ok := e.subjectPartition[l.Left]
		if !ok {
			continue
		}
		p := e.partitions[pi]
		p.addCandidate(p.linkID(l))
	}
	e.foldLocked()
}

// foldLocked brings every partition's sorted view up to date after
// candidates changed outside an episode (episodes fold themselves).
func (e *Engine) foldLocked() {
	for _, p := range e.partitions {
		p.fold()
	}
}

// Candidates returns the current global candidate link set: a new set the
// caller owns, built by concatenating the partitions' sorted views (each is
// kept current at episode boundaries) and sorting them once, in time linear
// in the links (linkset.Sort). A set is its run and never changes, so
// Sorted, Links, fed.SetLinks and linkset.Evaluate on it do not sort
// again. For the size alone use CandidateCount.
func (e *Engine) Candidates() *linkset.Set {
	e.mu.RLock()
	defer e.mu.RUnlock()
	all := make([]linkset.Link, 0, e.candidateCountLocked())
	for _, p := range e.partitions {
		all = append(all, p.view...)
	}
	return linkset.FromSorted(linkset.Sort(all))
}

// CandidateCount returns the size of the global candidate set — what
// Candidates().Len() would, without building the set.
func (e *Engine) CandidateCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.candidateCountLocked()
}

func (e *Engine) candidateCountLocked() int {
	n := 0
	for _, p := range e.partitions {
		n += len(p.view)
	}
	return n
}

// EpisodeStats summarizes one episode across partitions.
type EpisodeStats struct {
	Episode  int
	Feedback int
	Positive int
	Negative int
	// Added and Removed count raw mutation activity within the episode
	// (including links added and rolled back again); Changed is the
	// symmetric difference between episode-boundary snapshots, which
	// drives convergence.
	Added, Removed int
	Changed        int
	// Candidates is the candidate-set size after the episode.
	Candidates int
	// Rollbacks counts rollback events since the run started.
	Rollbacks int
	// DroppedConverged is always zero: every episode applies its items,
	// converged partitions included. It stays only for bench/'s feedback
	// workload, which reads it until that workload stops sampling around
	// converged partitions.
	DroppedConverged int
	// Converged reports strict convergence (no change in any partition).
	Converged bool
	// Relaxed reports the paper's relaxed condition: changed links below
	// relaxedThreshold of the candidate set.
	Relaxed bool
}

// NegativeShare returns the fraction of feedback that was negative (Fig
// 6(b), Fig 10(c)).
func (s EpisodeStats) NegativeShare() float64 {
	if s.Feedback == 0 {
		return 0
	}
	return float64(s.Negative) / float64(s.Feedback)
}

// String renders the stats compactly.
func (s EpisodeStats) String() string {
	return fmt.Sprintf("episode %d: %d feedback (%d+/%d-), %+d/-%d links, %d candidates",
		s.Episode, s.Feedback, s.Positive, s.Negative, s.Added, s.Removed, s.Candidates)
}

// RunEpisode runs one policy-evaluation / policy-improvement iteration:
// every unconverged partition processes its share of EpisodeSize feedback
// items on the Config.Workers-bounded pool, then improves its policy.
// judge supplies verdicts; it is called concurrently and must be safe for
// concurrent use or wrapped by SerialJudge. Each partition draws from its
// own seeded generator, so the stats and resulting candidate set are
// identical at any worker count, provided the judge's verdicts do not
// depend on the order it is called in.
func (e *Engine) RunEpisode(judge feedback.Judge) EpisodeStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.episode++
	tr := e.traceEpisode()
	n := len(e.partitions)
	share := e.cfg.EpisodeSize / n
	if share == 0 {
		share = 1
	}
	par.Do(n, e.cfg.Workers, func(_, i int) {
		p := e.partitions[i]
		sp := tr.Root().Child("partition")
		p.resetEpisodeCounters()
		// Convergence is where sampling stops; a judgement sent through
		// ApplyEpisode still acts on a converged partition.
		if !p.converged {
			p.episode(func(j int) (uint32, bool, bool) {
				if j == share {
					return 0, false, false
				}
				id, ok := p.sample()
				return id, ok && judge(p.space.Link(id)), ok
			})
			// MaxEpisodes bounds the sampling alone.
			p.converged = p.converged || p.episodes >= e.cfg.MaxEpisodes
		}
		p.endSpan(sp)
	})
	return e.finishEpisodeObs(tr)
}

// traceEpisode starts the per-episode trace. It is nil when no observer is
// attached, so the disabled path reads no clock and allocates nothing.
func (e *Engine) traceEpisode() *obs.Trace {
	if e.obsReg == nil {
		return nil
	}
	return obs.NewTrace(fmt.Sprintf("episode-%d", e.episode))
}

// finishEpisodeObs aggregates stats and closes out the episode trace; the
// root span's duration is the episode's latency.
func (e *Engine) finishEpisodeObs(tr *obs.Trace) EpisodeStats {
	st := e.collectStats()
	e.gCandidates.Set(int64(st.Candidates))
	if e.obsReg != nil {
		root := tr.Root()
		root.SetInt("feedback", int64(st.Feedback))
		root.SetInt("positive", int64(st.Positive))
		root.SetInt("negative", int64(st.Negative))
		root.SetInt("added", int64(st.Added))
		root.SetInt("removed", int64(st.Removed))
		root.SetInt("candidates", int64(st.Candidates))
		tr.Finish()
		e.hEpisodeNS.Observe(root.Duration().Nanoseconds())
		e.obsReg.AddTrace(tr)
	}
	return st
}

// collectStats aggregates per-partition episode counters.
func (e *Engine) collectStats() EpisodeStats {
	stats := EpisodeStats{Episode: e.episode}
	for _, p := range e.partitions {
		stats.Feedback += p.posFeedback + p.negFeedback
		stats.Positive += p.posFeedback
		stats.Negative += p.negFeedback
		stats.Added += p.episodeAdds
		stats.Removed += p.episodeRemoves
		stats.Changed += p.episodeChanged
		stats.Candidates += p.candidates
		stats.Rollbacks += p.rollbacks
	}
	stats.Converged = e.convergedLocked()
	stats.Relaxed = stats.Candidates > 0 &&
		float64(stats.Changed) < relaxedThreshold*float64(stats.Candidates)
	return stats
}

// relaxedThreshold is the paper's relaxed convergence condition (§3.2):
// fewer than 5% of the candidate links changed in an episode.
const relaxedThreshold = 0.05

// Feedback is one explicit user verdict on a link.
type Feedback struct {
	Link     linkset.Link
	Approved bool
}

// ApplyEpisode runs one episode from an explicit list of feedback items —
// the interactive path of the paper's Figure 1, where verdicts come from
// users approving or rejecting federated query answers. Items are routed
// to the partition owning the link's left entity and applied there, also
// in a converged partition: convergence stops RunEpisode's sampling, not a
// user's judgement. Partitions that receive no items are untouched (they
// had no chance to change, so the episode says nothing about their
// convergence).
func (e *Engine) ApplyEpisode(items []Feedback) EpisodeStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applyEpisodeLocked(items, nil)
}

// applyEpisodeLocked is ApplyEpisode under an already-held write lock. The
// feedback stream hands in the store catch-up it has planned (nil when
// neither store grew), which each partition carries out in the episode's
// fan-out before its share of the episode; the episode's trace then times
// the catch-up too.
func (e *Engine) applyEpisodeLocked(items []Feedback, sy *storeSync) EpisodeStats {
	e.episode++
	perPartition := make([][]Feedback, len(e.partitions))
	for _, it := range items {
		if pi, ok := e.subjectPartition[it.Link.Left]; ok {
			perPartition[pi] = append(perPartition[pi], it)
		}
	}
	tr := e.traceEpisode()
	par.Do(len(e.partitions), e.cfg.Workers, func(_, i int) {
		sy.apply(e, i)
		p, batch := e.partitions[i], perPartition[i]
		sp := tr.Root().Child("partition")
		p.resetEpisodeCounters()
		if len(batch) > 0 {
			p.episode(func(j int) (uint32, bool, bool) {
				if j == len(batch) {
					return 0, false, false
				}
				return p.linkID(batch[j].Link), batch[j].Approved, true
			})
		}
		p.endSpan(sp)
	})
	return e.finishEpisodeObs(tr)
}

// Converged reports whether every partition has strictly converged (no
// candidate-set change in its last episode) or hit MaxEpisodes.
func (e *Engine) Converged() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.convergedLocked()
}

func (e *Engine) convergedLocked() bool {
	for _, p := range e.partitions {
		if !p.converged {
			return false
		}
	}
	return true
}

// Episode returns the number of episodes run.
func (e *Engine) Episode() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.episode
}

// Run drives episodes until convergence or MaxEpisodes, invoking observe
// (if non-nil) after each episode. It returns the per-episode stats.
func (e *Engine) Run(judge feedback.Judge, observe func(EpisodeStats)) []EpisodeStats {
	var out []EpisodeStats
	for !e.Converged() && e.Episode() < e.cfg.MaxEpisodes {
		st := e.RunEpisode(judge)
		out = append(out, st)
		if observe != nil {
			observe(st)
		}
	}
	return out
}

// PartitionCandidates returns partition i's candidate links sorted by
// (Left, Right) (for the Fig 7 per-partition analysis): a copy of the
// partition's sorted view, which the caller owns.
func (e *Engine) PartitionCandidates(i int) []linkset.Link {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return slices.Clone(e.partitions[i].view)
}

// PartitionConverged reports partition i's convergence.
func (e *Engine) PartitionConverged(i int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.partitions[i].converged
}

// PartitionEpisodes returns the episodes partition i has run.
func (e *Engine) PartitionEpisodes(i int) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.partitions[i].episodes
}

// PartitionOf reports which partition owns a ds1 subject — including
// subjects routed after construction by a store sync.
func (e *Engine) PartitionOf(subject rdf.TermID) (int, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	i, ok := e.subjectPartition[subject]
	return i, ok
}

// Judgeable reports whether a judgement on l can reach a partition without
// interning a link that names no pair: its left end is a ds1 subject the
// engine owns, or one it will route at its next store sync, and its right
// end is a ds2 subject — or l is a candidate already, as a seeded link to an
// entity DS2 holds no triples about can be. The ends are read from the
// stores, so a newcomer on either side counts before any sync.
func (e *Engine) Judgeable(l linkset.Link) bool {
	if l.Left == rdf.NoTerm || l.Right == rdf.NoTerm {
		return false // a wildcard to Count
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	pi, owned := e.subjectPartition[l.Left]
	switch {
	case !owned && e.ds1.Count(l.Left, rdf.NoTerm, rdf.NoTerm) == 0:
		return false
	case e.ds2.Count(l.Right, rdf.NoTerm, rdf.NoTerm) > 0:
		return true
	case owned:
		_, found := slices.BinarySearchFunc(e.partitions[pi].view, l, linkset.Compare)
		return found
	}
	return false
}

// SpaceStats reports the feature-space sizes for the Fig 5 experiment:
// the raw cross-product pair count and the θ-filtered space size of
// partition i.
func (e *Engine) SpaceStats(i int) (total, filtered int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sp := e.partitions[i].space
	return sp.TotalPairs(), sp.Len()
}

// SerialJudge wraps a non-thread-safe judge with a mutex.
func SerialJudge(judge feedback.Judge) feedback.Judge {
	var mu sync.Mutex
	return func(l linkset.Link) bool {
		mu.Lock()
		defer mu.Unlock()
		return judge(l)
	}
}
