// Package feature implements ALEX's state representation and exploration
// space (paper §4.1, §4.2, §6.1, §6.2).
//
// A link between entities E1 and E2 is represented by its state feature
// set: a similarity matrix is computed between the attributes of the two
// entities with a type-dispatched similarity function, scores below the
// threshold θ are discarded (the search-space filtering of §6.1), and the
// per-row (or per-column) maxima form the feature set. A feature is a pair
// of predicates (p1 from the first data set, p2 from the second); its value
// is the similarity of the attached objects.
//
// The Space pre-computes feature sets for every candidate entity pair of a
// partition (§3.2 "this space is populated in a pre-processing step") and
// maintains one sorted score index per feature, so the exploration action
// "find all links whose value for feature f lies within [v−δ, v+δ]" (§4.2)
// is a binary-searched range scan.
//
// The same (ds1 term, ds2 term) cell recurs across a partition's pairs
// and across partitions — owl:Thing, class IRIs, positions, team names — so
// each scorer keeps a fixed-size, direct-mapped memo from the two term ids
// to the score the similarity kernel returned, and a repeated cell is
// looked up, not rescored. A build (BuildSpaces) gives each of its
// goroutines one scorer for every partition it scores. The memo is exact,
// not a cache of approximations:
//
//   - Profile.Sim is a pure function of its two terms, so two partitions'
//     profiles of one term score alike;
//   - an rdf.Dict never reassigns an id, so an id names one term for the
//     dictionary's lifetime;
//   - one build scores the ds1 terms of one store against the ds2 terms of
//     one RightSide, so its scorers see the ids of one ds1 and one ds2
//     dictionary, whichever partitions they serve;
//   - a build scorer comes from a pool and is cleared before it is handed
//     out, so no entry outlives the build that filled it; a space's delta
//     scorer lives and dies with the space.
//
// A miss overwrites its slot, so a collision costs a rescore, never a wrong
// score. TestScoreMemoMatchesDirect, FuzzScoreMemo and FuzzBuildSpaces hold
// every build to a memo-free reference bit for bit.
package feature

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"

	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/par"
	"alex/internal/rdf"
	"alex/internal/sim"
	"alex/internal/store"
)

// Feature is a pair of predicates, one from each data set.
type Feature struct {
	P1, P2 rdf.TermID
}

// String renders the feature by predicate ids.
func (f Feature) String() string { return fmt.Sprintf("(%d,%d)", f.P1, f.P2) }

// Set is the feature set of one entity pair: parallel features and
// similarity scores, sorted by feature for determinism.
type Set struct {
	Features []Feature
	Scores   []float64
}

// Len returns the number of features.
func (s Set) Len() int { return len(s.Features) }

// Score returns the value of feature f, or 0, false when absent.
func (s Set) Score(f Feature) (float64, bool) {
	for i, sf := range s.Features {
		if sf == f {
			return s.Scores[i], true
		}
	}
	return 0, false
}

// Options configures feature-space construction.
type Options struct {
	// Theta is the similarity threshold below which feature values are
	// discarded (§6.1). The paper uses 0.3.
	Theta float64
	// MaxBlockSize skips blocking tokens shared by more than this many
	// entities (stopword-like tokens carry no pairing signal). 0 means 64.
	MaxBlockSize int
	// Workers bounds the goroutines Build and BuildSpaces use; 0 means
	// runtime.GOMAXPROCS(0), 1 builds on the calling goroutine. The spaces
	// produced are identical at any worker count.
	Workers int
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{Theta: 0.3, MaxBlockSize: 64}
}

func (o Options) withDefaults() Options {
	if o.Theta == 0 {
		o.Theta = 0.3
	}
	if o.MaxBlockSize == 0 {
		o.MaxBlockSize = 64
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// scoredLink is one entry of a per-feature score index: a score and the id
// of the link that has it.
type scoredLink struct {
	score float64
	id    uint32
}

// compareEntries is the order of a per-feature index: score ascending, then
// link. A link appears at most once per index, so the order is total and
// unique — a binary-search splice (delta.go) lands exactly where Build's
// sort puts the entry.
func (sp *Space) compareEntries(a, b scoredLink) int {
	switch {
	case a.score < b.score:
		return -1
	case a.score > b.score:
		return 1
	}
	return linkset.Compare(sp.links[a.id], sp.links[b.id])
}

// compareBuilt is compareEntries for a space a build has just made: it
// issues ids in link order (insertBuilt), so two ids compare as their links
// do, without reading them.
func compareBuilt(a, b scoredLink) int {
	switch {
	case a.score < b.score:
		return -1
	case a.score > b.score:
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// Space is the pre-processed exploration space of one partition: the
// feature sets of every candidate pair between the partition's subjects
// (from data set 1) and all subjects of data set 2. A Space is live: the
// delta entry points in delta.go (UpsertSubject, ApplyObjectDelta) maintain
// it incrementally under triple upserts, and Build retains per-subject
// bookkeeping to make those deltas exact.
//
// Every link a space names has a link id, a uint32 it issues on first
// sight: Build to each pair, a rescore to a pair it never had, Intern to
// any other link a caller asks about. ids is the one map from link to id,
// and ids are never reused, so an id names one link for the space's
// lifetime. A pair that a delta drops keeps its id and its set reads as
// absent (empty); rescored, or an interned outside link that becomes a
// pair, it is found under its old id. Index entries and AppendExplore
// carry ids, so a caller keeping state by id never hashes a link the space
// handed it.
type Space struct {
	opt   Options
	ids   map[linkset.Link]uint32
	links []linkset.Link           // by id
	sets  []Set                    // by id: the pair's feature set, empty for a link that is no pair now
	pairs int                      // ids whose set is not empty
	index map[Feature][]scoredLink // sorted by score asc, then link

	// right is the DS2 side the space scores against. The space only
	// reads it; Build makes a private one, BuildSpaces takes a shared one.
	right *RightSide
	// prof holds the profiles of the partition's own (DS1) object terms.
	// It is filled before scoring fans out and extended only by the delta
	// entry points, which run on one goroutine per space.
	prof profiles
	// sc is the scorer of the delta entry points, made by the first
	// rescore; its memo stays warm from delta to delta. Builds score with
	// pooled scorers (buildScorer), so a space that never sees a delta
	// never allocates one.
	sc *scorer

	// Incremental-maintenance state (delta.go). members is the
	// partition's current subject set; leftPairs holds the ids of each
	// member's surviving pairs; leftTok holds each member's blocking
	// tokens, and tokLeft inverts it to find the members a DS2-side delta
	// can touch. tokLeft is built by the first ApplyObjectDelta, its only
	// reader, and kept up to date from then on: a space that never sees
	// one never pays for a map per token.
	members   map[rdf.TermID]struct{}
	leftPairs map[rdf.TermID][]uint32
	leftTok   map[rdf.TermID][]string
	tokLeft   map[string]map[rdf.TermID]struct{}

	// Delta instruments; nil-safe no-ops until SetObserver.
	cUpserts, cObjDeltas, cSplices *obs.Counter
}

// buildParallelThreshold is the number of subjects below which a build
// scores serially: goroutine bookkeeping beats the pair scoring on tiny
// partitions.
const buildParallelThreshold = 32

// Build constructs the space for the given partition subjects of ds1
// against all of ds2: BuildSpaces of the one partition over a private
// RightSide.
func Build(ds1 *store.Store, partition []rdf.TermID, ds2 *store.Store, opt Options) *Space {
	return BuildSpaces(NewRightSide(ds2, opt), ds1, [][]rdf.TermID{partition}, opt)[0]
}

// BuildSpaces constructs the space of every partition of ds1 subjects in
// parts against right, the DS2 side they all share; the side's
// MaxBlockSize applies, not opt's. Candidate pairs are generated by token
// blocking over literal values (sharing at least one non-generic token),
// then each candidate's feature set is computed and θ-filtered; pairs with
// no surviving feature are dropped (§6.1).
//
// The build is three fan-outs of at most Options.Workers goroutines: the
// partitions' own profiles and tokens; pair scoring — the dominant cost —
// over every (partition, subject) in turn, one pooled scorer per goroutine
// for all of them, so that a cell partitions share is found in the memo
// rather than scored for each; then each partition's inserts and index
// sorts. Each subject's results land at its own index, so the spaces are
// identical to serial builds at any worker count.
func BuildSpaces(right *RightSide, ds1 *store.Store, parts [][]rdf.TermID, opt Options) []*Space {
	opt = opt.withDefaults()
	spaces := make([]*Space, len(parts))
	lefts := make([][]entity, len(parts))
	results := make([][][]scoredPair, len(parts))
	// Every profile the scoring reads is made here, before it fans out, so
	// the scorers share the tables without a lock.
	par.Do(len(parts), opt.Workers, func(_, p int) {
		part := parts[p]
		sp := newSpace(right, opt, len(part))
		lefts[p] = make([]entity, len(part))
		for i, subj := range part {
			sp.members[subj] = struct{}{}
			lefts[p][i] = sp.prof.entity(ds1, subj)
			sp.setLeftTokens(subj, lefts[p][i].tokens())
		}
		spaces[p] = sp
		results[p] = make([][]scoredPair, len(part))
	})
	type job struct{ p, i int }
	var jobs []job
	for p, part := range parts {
		for i := range part {
			jobs = append(jobs, job{p, i})
		}
	}
	workers := 1
	if len(jobs) >= buildParallelThreshold {
		workers = min(opt.Workers, len(jobs))
	}
	scs := make([]*scorer, workers) // one pooled scorer per goroutine
	par.Do(len(jobs), workers, func(w, j int) {
		if scs[w] == nil {
			scs[w] = buildScorer(opt.Theta)
		}
		p, i := jobs[j].p, jobs[j].i
		results[p][i] = scs[w].scoreSubject(parts[p][i], lefts[p][i], right)
	})
	for _, sc := range scs {
		if sc != nil {
			scorers.Put(sc)
		}
	}
	par.Do(len(parts), opt.Workers, func(_, p int) {
		sp := spaces[p]
		sp.insertBuilt(parts[p], results[p])
		for _, entries := range sp.index {
			slices.SortFunc(entries, compareBuilt)
		}
	})
	return spaces
}

// newSpace returns an empty space over right for a partition of n subjects.
func newSpace(right *RightSide, opt Options, n int) *Space {
	return &Space{
		opt:       opt,
		ids:       make(map[linkset.Link]uint32),
		index:     make(map[Feature][]scoredLink),
		right:     right,
		prof:      profiles{},
		members:   make(map[rdf.TermID]struct{}, n),
		leftPairs: make(map[rdf.TermID][]uint32),
		leftTok:   make(map[rdf.TermID][]string, n),
	}
}

// scoredPair is one surviving candidate pair with its feature set, produced
// by scoreSubject and merged into the space by insertBuilt or a rescore.
type scoredPair struct {
	link linkset.Link
	fs   Set
}

// insertBuilt adds the scored pairs of a new space, each subject's results
// at its index in partition. It issues their ids in link order — subjects
// ascending, each one's pairs by right subject as scoreSubject returns
// them — so that compareBuilt can sort the indexes by id. The tables are
// sized once, the members' id lists share one array, and so do the
// feature indexes: each is cut to its exact entry count, its capacity
// capped there, so a later splice (delta.go) into one reallocates it
// rather than overwriting the next.
func (sp *Space) insertBuilt(partition []rdf.TermID, results [][]scoredPair) {
	order := make([]int, len(partition))
	n := 0
	counts := map[Feature]int{}
	entries := 0
	for i := range order {
		order[i] = i
		n += len(results[i])
		for _, e := range results[i] {
			for _, f := range e.fs.Features {
				counts[f]++
			}
			entries += e.fs.Len()
		}
	}
	index := make([]scoredLink, entries)
	sp.index = make(map[Feature][]scoredLink, len(counts))
	for f, c := range counts {
		sp.index[f], index = index[:0:c], index[c:]
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(partition[a], partition[b]) })
	sp.ids = make(map[linkset.Link]uint32, n)
	sp.links = make([]linkset.Link, 0, n)
	sp.sets = make([]Set, 0, n)
	all := make([]uint32, 0, n)
	for _, i := range order {
		start := len(all)
		for _, e := range results[i] {
			id := sp.Intern(e.link)
			sp.add(id, e.fs)
			all = append(all, id)
		}
		if len(all) > start {
			sp.leftPairs[partition[i]] = all[start:len(all):len(all)]
		}
	}
}

// add makes link id a pair with feature set fs and appends its entries to
// the feature indexes, which the caller sorts.
func (sp *Space) add(id uint32, fs Set) {
	sp.sets[id] = fs
	sp.pairs++
	for i, f := range fs.Features {
		sp.index[f] = append(sp.index[f], scoredLink{score: fs.Scores[i], id: id})
	}
}

// Intern returns l's link id, issuing the next one on first sight. A link
// that is no pair of the space reads as absent under its id (SetOf returns
// the empty set) until a delta makes it one. Intern and the delta entry
// points are the space's writers: call them from one goroutine.
func (sp *Space) Intern(l linkset.Link) uint32 {
	if id, ok := sp.ids[l]; ok {
		return id
	}
	id := uint32(len(sp.links))
	sp.ids[l] = id
	sp.links = append(sp.links, l)
	sp.sets = append(sp.sets, Set{})
	return id
}

// IDs returns how many link ids the space has issued; every id is below it.
func (sp *Space) IDs() int { return len(sp.links) }

// Link returns the link that id names.
func (sp *Space) Link(id uint32) linkset.Link { return sp.links[id] }

// SetOf returns the feature set of link id: empty unless the link is a pair
// of the space now.
func (sp *Space) SetOf(id uint32) Set { return sp.sets[id] }

// termProfile is one object term as the feature space sees it: what the
// similarity function needs of it and the blocking keys it contributes.
type termProfile struct {
	*sim.Profile
	id   rdf.TermID // the term's id, half of a memo key
	keys []string
}

// profiles is a table of term profiles keyed by term id. It is not
// synchronized: fill it on one goroutine, then share it read-only.
type profiles map[rdf.TermID]*termProfile

// of returns the profile of a term, deriving it on first use.
func (ps profiles) of(dict *rdf.Dict, id rdf.TermID) *termProfile {
	if p, ok := ps[id]; ok {
		return p
	}
	p := &termProfile{Profile: sim.NewProfile(dict.Term(id)), id: id}
	p.keys = blockingKeys(p.Profile)
	ps[id] = p
	return p
}

// entity is one subject's attributes resolved to profiles: parallel
// predicates and object profiles. The zero entity has no attributes.
type entity struct {
	preds []rdf.TermID
	objs  []*termProfile
}

// entity resolves a subject of st, adding its object terms to the table.
// A subject without triples resolves to the zero entity.
func (ps profiles) entity(st *store.Store, subj rdf.TermID) entity {
	e, _ := st.Entity(subj)
	return ps.resolve(st.Dict(), e)
}

func (ps profiles) resolve(dict *rdf.Dict, e store.Entity) entity {
	out := entity{preds: e.Preds, objs: make([]*termProfile, len(e.Objs))}
	for i, obj := range e.Objs {
		out.objs[i] = ps.of(dict, obj)
	}
	return out
}

// tokens returns the entity's de-duplicated blocking tokens, sorted.
func (e entity) tokens() []string {
	var out []string
	for _, obj := range e.objs {
		out = append(out, obj.keys...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// scorer is one goroutine's pair-scoring state: θ, the similarity memo,
// and the buffers reused from pair to pair and subject to subject, so that
// a subject's pairs share one allocation: scoreSubject copies the sets of
// all of them out of the buffers at once. Make one with newScorer (or, for
// a build, buildScorer); the zero buffers are ready to use.
type scorer struct {
	theta float64
	// memo is a direct-mapped table of matrix cells: a (ds1 term, ds2
	// term) key and the kernel's score for it. Its length is a power of
	// two; a key's cell is the top bits of the key times a Fibonacci
	// constant, shift = 64 − log2(len(memo)). A miss overwrites the cell.
	memo  []memoCell
	shift uint
	sim   sim.Scratch
	// feats and scores hold the sets of the subject's surviving pairs met
	// so far, back to back, then the pair under way's from start on:
	// sorted, one entry per feature.
	feats   []Feature
	scores  []float64
	start   int
	spans   []pairSpan   // the subject under way: its surviving pairs
	rowBest []bestCell   // the pair under way, per-row arm: one entry per e1 attribute
	cands   []rdf.TermID // the subject under way: its candidates, sorted and distinct
}

// pairSpan is one surviving pair of the subject under way: its right
// subject and where its set ends in the scorer's buffers, the previous
// pair's end being where it starts.
type pairSpan struct {
	right rdf.TermID
	end   int
}

// memoCells is the length of every scorer memo but Compute's: 2^14 cells,
// 256 KiB. Over the link_batch data sets one per build, at one worker,
// saves 63.9 % of the kernel calls, where an unbounded memo would save
// 71.6 % (TestLinkBatchMemoShapes).
const memoCells = 1 << 14

// memoCell is one memo entry. The zero cell holds no key: NoTerm is never
// an object, so no (ds1 term, ds2 term) key is 0.
type memoCell struct {
	key   uint64
	score float64
}

// newScorer returns a scorer whose memo has cells entries, a power of two.
func newScorer(theta float64, cells int) *scorer {
	return &scorer{theta: theta, memo: make([]memoCell, cells), shift: uint(64 - bits.TrailingZeros(uint(cells)))}
}

// scorers recycles build scorers across builds. A memo is exact only for
// the dictionaries it was filled over, so buildScorer empties it first.
var scorers = sync.Pool{New: func() any { return newScorer(0, memoCells) }}

// buildScorer takes a scorer from the pool with an empty memo; the build
// puts it back when done.
func buildScorer(theta float64) *scorer {
	sc := scorers.Get().(*scorer)
	sc.theta = theta
	clear(sc.memo)
	return sc
}

// cell returns the similarity of a ds1 term and a ds2 term, from the memo
// when it holds the pair (the package doc says why that is exact).
func (sc *scorer) cell(o1, o2 *termProfile) float64 {
	k := memoKey(o1, o2)
	c := sc.slot(k)
	if c.key != k {
		*c = memoCell{key: k, score: o1.Sim(o2.Profile, &sc.sim)}
	}
	return c.score
}

// memoKey packs a cell's ds1 and ds2 term ids into one memo key.
func memoKey(o1, o2 *termProfile) uint64 { return uint64(o1.id)<<32 | uint64(o2.id) }

// slot returns the memo cell key k maps to.
func (sc *scorer) slot(k uint64) *memoCell {
	return &sc.memo[(k*0x9E3779B97F4A7C15)>>sc.shift]
}

// bestCell is the best-scoring cell met so far in one matrix row or column.
type bestCell struct {
	ok    bool
	at    int // the cell's index along the row or column
	score float64
}

// scoreSubject scores every blocked candidate of one partition subject —
// the right subjects sharing at least one blocking key with it — in right
// subject order, and returns the θ-surviving pairs in that order. The
// pairs' sets share one array of features and one of scores, each set
// capped at its own length, so that the subject's pairs take three
// allocations however many there are. It only reads right, so calls for
// distinct subjects can run concurrently on distinct scorers.
func (sc *scorer) scoreSubject(subj rdf.TermID, e1 entity, right *RightSide) []scoredPair {
	sc.cands = sc.cands[:0]
	for _, obj := range e1.objs {
		for _, tok := range obj.keys {
			if postings := right.byToken[tok]; len(postings) <= right.maxSize {
				sc.cands = append(sc.cands, postings...)
			}
		}
	}
	slices.Sort(sc.cands)
	sc.cands = slices.Compact(sc.cands)
	sc.feats, sc.scores, sc.spans = sc.feats[:0], sc.scores[:0], sc.spans[:0]
	for _, r := range sc.cands {
		sc.start = len(sc.feats)
		if sc.fill(e1, right.ents[r].entity); len(sc.feats) > sc.start {
			sc.spans = append(sc.spans, pairSpan{right: r, end: len(sc.feats)})
		}
	}
	if len(sc.spans) == 0 {
		return nil
	}
	feats, scores := slices.Clone(sc.feats), slices.Clone(sc.scores)
	out := make([]scoredPair, len(sc.spans))
	lo := 0
	for i, p := range sc.spans {
		fs := Set{Features: feats[lo:p.end:p.end], Scores: scores[lo:p.end:p.end]}
		out[i] = scoredPair{link: linkset.Link{Left: subj, Right: p.right}, fs: fs}
		lo = p.end
	}
	return out
}

// score builds the θ-filtered feature set of one entity pair (§4.1) on
// its own: the set fill leaves in the emptied buffers, copied out.
func (sc *scorer) score(e1, e2 entity) Set {
	sc.feats, sc.scores, sc.start = sc.feats[:0], sc.scores[:0], 0
	if sc.fill(e1, e2); len(sc.feats) == 0 {
		return Set{}
	}
	return Set{Features: slices.Clone(sc.feats), Scores: slices.Clone(sc.scores)}
}

// fill appends the θ-filtered feature set of one entity pair (§4.1) to the
// buffers, from sc.start on: a similarity matrix over attribute pairs, then
// per-row maxima when |e1| > |e2|, per-column maxima otherwise; among equal
// scores the first cell in row (column) order wins. Duplicate predicates
// keep the maximal score. Either way the matrix is walked column by
// column, because the string kernel prepares a table of the e2 value and
// reuses it for as long as that value stays (sim.Scratch).
func (sc *scorer) fill(e1, e2 entity) {
	perRow := len(e1.objs) > len(e2.objs)
	if perRow {
		sc.rowBest = append(sc.rowBest[:0], make([]bestCell, len(e1.objs))...)
	}
	for j, o2 := range e2.objs {
		col := bestCell{}
		for i, o1 := range e1.objs {
			s := sc.cell(o1, o2)
			if perRow {
				// Each attribute of e1 maps to its best match in e2.
				if b := &sc.rowBest[i]; !b.ok || s > b.score {
					*b = bestCell{ok: true, at: j, score: s}
				}
			} else if !col.ok || s > col.score {
				col = bestCell{ok: true, at: i, score: s}
			}
		}
		if col.ok {
			// Each attribute of e2 maps to its best match in e1.
			sc.record(Feature{P1: e1.preds[col.at], P2: e2.preds[j]}, col.score)
		}
	}
	if perRow {
		for i, b := range sc.rowBest {
			if b.ok {
				sc.record(Feature{P1: e1.preds[i], P2: e2.preds[b.at]}, b.score)
			}
		}
	}
}

// record keeps s as feature f's score when it passes θ and beats what the
// pair under way already has for f. The pair's part of the buffers stays
// sorted by feature; a pair has at most a handful of features, so
// insertion is a short shift.
func (sc *scorer) record(f Feature, s float64) {
	if s < sc.theta {
		return
	}
	i := len(sc.feats)
	for i > sc.start && compareFeatures(f, sc.feats[i-1]) < 0 {
		i--
	}
	if i > sc.start && sc.feats[i-1] == f {
		if s > sc.scores[i-1] {
			sc.scores[i-1] = s
		}
		return
	}
	sc.feats = append(sc.feats, Feature{})
	sc.scores = append(sc.scores, 0)
	copy(sc.feats[i+1:], sc.feats[i:])
	copy(sc.scores[i+1:], sc.scores[i:])
	sc.feats[i], sc.scores[i] = f, s
}

// compareFeatures orders features by P1, then P2.
func compareFeatures(a, b Feature) int {
	if c := cmp.Compare(a.P1, b.P1); c != 0 {
		return c
	}
	return cmp.Compare(a.P2, b.P2)
}

// Compute builds the θ-filtered feature set for one entity pair (§4.1)
// with the type-dispatched similarity sim.Generic.
func Compute(dict *rdf.Dict, e1, e2 store.Entity, theta float64) Set {
	ps := profiles{}
	// One pair repeats a cell only where an entity repeats a term: one
	// memo entry does.
	return newScorer(theta, 1).score(ps.resolve(dict, e1), ps.resolve(dict, e2))
}

// FeatureSet returns the pre-computed feature set of a candidate pair.
func (sp *Space) FeatureSet(l linkset.Link) (Set, bool) {
	id, ok := sp.ids[l]
	if !ok {
		return Set{}, false
	}
	fs := sp.SetOf(id)
	return fs, fs.Len() > 0
}

// ExploreN is the paper's exploration action (§4.2) with a result bound: it
// returns at most n candidate pairs whose score for feature f lies in
// [v−δ, v+δ], preferring those whose score is closest to v; n <= 0 returns
// the whole window, sorted by score then link. Exploration "around" a value
// naturally radiates outward from it; bounding the result keeps one
// indistinct feature (the paper's owl:Thing example, §4.2, whose window can
// be the entire space) from flooding the candidate set faster than feedback
// can clean it.
func (sp *Space) ExploreN(f Feature, v, delta float64, n int) []linkset.Link {
	ids := sp.AppendExplore(nil, f, v, delta, n)
	if len(ids) == 0 {
		return nil
	}
	out := make([]linkset.Link, len(ids))
	for i, id := range ids {
		out[i] = sp.links[id]
	}
	return out
}

// AppendExplore is ExploreN appending the links' ids to dst, so that a
// caller exploring again and again can reuse one buffer and never hashes a
// link.
func (sp *Space) AppendExplore(dst []uint32, f Feature, v, delta float64, n int) []uint32 {
	entries := sp.index[f]
	lo, hi := v-delta, v+delta
	start := sort.Search(len(entries), func(i int) bool { return entries[i].score >= lo })
	end := start + sort.Search(len(entries)-start, func(i int) bool { return entries[start+i].score > hi })
	if n <= 0 || end-start <= n {
		dst = slices.Grow(dst, end-start)
		for i := start; i < end; i++ {
			dst = append(dst, entries[i].id)
		}
		return dst
	}
	// Two-pointer walk outward from v.
	mid := sort.Search(len(entries), func(i int) bool { return entries[i].score >= v })
	left, right := mid-1, mid
	dst = slices.Grow(dst, n)
	for want := len(dst) + n; len(dst) < want; {
		leftOK := left >= start
		rightOK := right < end
		switch {
		case leftOK && rightOK:
			if v-entries[left].score <= entries[right].score-v {
				dst = append(dst, entries[left].id)
				left--
			} else {
				dst = append(dst, entries[right].id)
				right++
			}
		case leftOK:
			dst = append(dst, entries[left].id)
			left--
		case rightOK:
			dst = append(dst, entries[right].id)
			right++
		default:
			return dst
		}
	}
	return dst
}

// Len returns the number of θ-filtered candidate pairs in the space.
func (sp *Space) Len() int { return sp.pairs }

// Right returns the DS2 side the space scores against: the one to Apply
// object deltas to when the space owns it (Build), the shared one
// otherwise (BuildSpaces).
func (sp *Space) Right() *RightSide { return sp.right }

// TotalPairs returns the unfiltered cross-product size |partition|×|DS2|,
// reported by the Fig 5 experiment.
func (sp *Space) TotalPairs() int { return len(sp.members) * sp.right.subjects }

// Features returns the distinct features present, sorted.
func (sp *Space) Features() []Feature {
	out := make([]Feature, 0, len(sp.index))
	for f := range sp.index {
		out = append(out, f)
	}
	slices.SortFunc(out, compareFeatures)
	return out
}

// Links returns all candidate pairs, sorted.
func (sp *Space) Links() []linkset.Link {
	out := make([]linkset.Link, 0, sp.pairs)
	for id, fs := range sp.sets {
		if fs.Len() > 0 {
			out = append(out, sp.links[id])
		}
	}
	slices.SortFunc(out, linkset.Compare)
	return out
}

// Partition splits subjects into n equal-size partitions round-robin: the
// i-th subject goes to partition i mod n (§6.2, equal-size partitioning).
func Partition(subjects []rdf.TermID, n int) [][]rdf.TermID {
	if n < 1 {
		n = 1
	}
	out := make([][]rdf.TermID, n)
	for i, s := range subjects {
		out[i%n] = append(out[i%n], s)
	}
	return out
}

// RightSide is everything a feature space needs that depends on data set 2
// alone: the profiles of its object terms, its subjects resolved to those
// profiles, and the blocking index (token → ds2 subjects) over them.
// Build makes one per space; an engine makes one with NewRightSide and
// shares it between its partitions' spaces through BuildSpaces. Spaces only
// read it, from any number of goroutines. Apply is the one writer: its
// caller must be the side's single owner and must keep readers out while
// it runs.
//
// Postings are stored in full and the MaxBlockSize stopword cap is applied
// at read time in scoreSubject (a list longer than maxSize is dead). Stores
// only grow, so posting lists only grow: an update appends, and a token
// whose list went over the cap stays dead.
type RightSide struct {
	prof    profiles
	byToken map[string][]rdf.TermID
	// ents holds each indexed ds2 subject — one with at least one
	// blocking token; no other can become a candidate.
	ents     map[rdf.TermID]*rightEntity
	maxSize  int
	subjects int // |DS2 subjects|
}

// rightEntity is one indexed ds2 subject: its attributes and its sorted
// blocking tokens, kept for diffing on object deltas.
type rightEntity struct {
	entity
	toks []string
}

// NewRightSide profiles every object term of ds2 and indexes every literal
// token and numeric/date bucket of its subjects. Only opt.MaxBlockSize is
// read.
func NewRightSide(ds2 *store.Store, opt Options) *RightSide {
	subjects := ds2.Subjects()
	r := &RightSide{
		prof:     profiles{},
		byToken:  map[string][]rdf.TermID{},
		ents:     map[rdf.TermID]*rightEntity{},
		maxSize:  opt.withDefaults().MaxBlockSize,
		subjects: len(subjects),
	}
	for _, subj := range subjects {
		r.set(subj, r.prof.entity(ds2, subj))
	}
	return r
}

// set rewrites one ds2 subject's entry and joins it to the blocks of the
// tokens it gained. Stores only grow, so the subject keeps every token it
// had. Posting order is irrelevant to candidate generation (the result
// feeds a set) — only membership and length matter. It returns the
// subject's token set.
func (r *RightSide) set(subj rdf.TermID, e entity) []string {
	var had []string
	if old := r.ents[subj]; old != nil {
		had = old.toks
	}
	toks := e.tokens()
	for _, tok := range toks {
		if _, ok := slices.BinarySearch(had, tok); !ok {
			r.byToken[tok] = append(r.byToken[tok], subj)
		}
	}
	if len(toks) > 0 {
		r.ents[subj] = &rightEntity{entity: e, toks: toks}
	}
	return toks
}

// blockingKeys derives the blocking tokens of a term: lowercase word tokens
// of at least two bytes for strings, the integer value for ints and years,
// the integer part for floats that have one in int64, and the year for
// dates. IRIs contribute none. Numeric bucketing lets date/year-only
// renderings of the same birth date land in one block.
func blockingKeys(p *sim.Profile) []string {
	switch p.Type {
	case sim.TypeIRI:
		return nil // cross-namespace IRIs never block
	case sim.TypeInt:
		if v, ok := p.Int(); ok {
			return []string{"#" + strconv.FormatInt(v, 10)}
		}
	case sim.TypeFloat:
		// Converting a float outside int64 is platform-defined; such a
		// value blocks by its lexical form like any other word.
		if v, ok := p.Float(); ok && v >= -0x1p63 && v < 0x1p63 {
			return []string{"#" + strconv.FormatInt(int64(v), 10)}
		}
	case sim.TypeDate:
		if y, ok := p.Year(); ok {
			return []string{"#" + strconv.Itoa(y)}
		}
	}
	var out []string
	for _, tok := range p.Tokens() {
		if len(tok) >= 2 {
			out = append(out, tok)
		}
	}
	return out
}
