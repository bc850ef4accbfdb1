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
// The same (ds1 term, ds2 term) cell recurs across a partition's pairs —
// owl:Thing, class IRIs, positions, team names — so each scorer keeps a
// fixed-size, direct-mapped memo from the two term ids to the score the
// similarity kernel returned, and a repeated cell is looked up, not
// rescored. The memo is exact, not a cache of approximations:
//
//   - Profile.Sim is a pure function of its two terms;
//   - an rdf.Dict never reassigns an id, so an id names one term for the
//     dictionary's lifetime;
//   - a space scores only its own ds1 terms against its RightSide's ds2
//     terms, so one scorer sees the ids of one ds1 and one ds2 dictionary;
//   - a build scorer comes from a pool and is cleared before it is handed
//     out, so no entry outlives the build that filled it; a space's delta
//     scorer lives and dies with the space.
//
// A miss overwrites its slot, so a collision costs a rescore, never a wrong
// score. TestScoreMemoMatchesDirect and FuzzScoreMemo hold every build to a
// memo-free reference bit for bit.
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
	"sync/atomic"

	"alex/internal/linkset"
	"alex/internal/obs"
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
	// Workers bounds the goroutines Build uses to score candidate pairs;
	// 0 means runtime.GOMAXPROCS(0), 1 forces the serial path. The space
	// produced is identical at any worker count.
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

// scoredLink is one entry of a per-feature score index.
type scoredLink struct {
	score float64
	link  linkset.Link
}

// compareEntries is the order of a per-feature index: score ascending, then
// link. A link appears at most once per index, so the order is total and
// unique — a binary-search splice (delta.go) lands exactly where Build's
// sort puts the entry.
func compareEntries(a, b scoredLink) int {
	switch {
	case a.score < b.score:
		return -1
	case a.score > b.score:
		return 1
	}
	return linkset.Compare(a.link, b.link)
}

// Space is the pre-processed exploration space of one partition: the
// feature sets of every candidate pair between the partition's subjects
// (from data set 1) and all subjects of data set 2. A Space is live: the
// delta entry points in delta.go (UpsertSubject, RemoveSubject,
// ApplyObjectDelta) maintain it incrementally under triple upserts, and
// Build retains per-subject bookkeeping to make those deltas exact.
type Space struct {
	opt   Options
	pairs map[linkset.Link]Set
	index map[Feature][]scoredLink // sorted by score asc, then link

	// right is the DS2 side the space scores against. The space only
	// reads it; Build makes a private one, BuildOn takes a shared one.
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
	// partition's current subject set; leftPairs enumerates each member's
	// surviving pairs; leftTok holds each member's blocking tokens, and
	// tokLeft inverts it to find the members a DS2-side delta can touch.
	// tokLeft is built by the first ApplyObjectDelta, its only reader, and
	// kept up to date from then on: a space that never sees one never pays
	// for a map per token.
	members   map[rdf.TermID]struct{}
	leftPairs map[rdf.TermID][]linkset.Link
	leftTok   map[rdf.TermID][]string
	tokLeft   map[string]map[rdf.TermID]struct{}

	// Delta instruments; nil-safe no-ops until SetObserver.
	cUpserts, cRemoves, cObjDeltas, cSplices *obs.Counter
}

// buildParallelThreshold is the partition size below which Build stays
// serial: goroutine bookkeeping beats the pair scoring on tiny partitions.
const buildParallelThreshold = 32

// Build constructs the space for the given partition subjects of ds1
// against all of ds2. Candidate pairs are generated by token blocking over
// literal values (sharing at least one non-generic token), then each
// candidate's feature set is computed and θ-filtered; pairs with no
// surviving feature are dropped (§6.1). Pair scoring — the dominant cost —
// fans out across Options.Workers goroutines; per-subject results are
// merged back in subject order, so the space is identical to a serial
// build at any worker count. The space owns a private RightSide; callers
// building several partitions against one ds2 share one through BuildOn.
func Build(ds1 *store.Store, partition []rdf.TermID, ds2 *store.Store, opt Options) *Space {
	return BuildOn(NewRightSide(ds2, opt), ds1, partition, opt)
}

// BuildOn is Build against a RightSide the caller made, so that many
// partitions share one. The side's MaxBlockSize applies, not opt's.
// Concurrent BuildOn calls on one side are safe: a build only reads it.
func BuildOn(right *RightSide, ds1 *store.Store, partition []rdf.TermID, opt Options) *Space {
	opt = opt.withDefaults()
	sp := &Space{
		opt:       opt,
		pairs:     make(map[linkset.Link]Set),
		index:     make(map[Feature][]scoredLink),
		right:     right,
		prof:      profiles{},
		members:   make(map[rdf.TermID]struct{}, len(partition)),
		leftPairs: make(map[rdf.TermID][]linkset.Link),
		leftTok:   make(map[rdf.TermID][]string, len(partition)),
	}
	// Every profile the scoring below reads is made here, before it fans
	// out, so the workers share the tables without a lock.
	lefts := make([]entity, len(partition))
	for i, subj := range partition {
		sp.members[subj] = struct{}{}
		lefts[i] = sp.prof.entity(ds1, subj)
		sp.setLeftTokens(subj, lefts[i].tokens())
	}
	if opt.Workers > 1 && len(partition) >= buildParallelThreshold {
		sp.scoreParallel(partition, lefts)
	} else {
		sc := buildScorer(opt.Theta)
		for i, subj := range partition {
			for _, e := range sc.scoreSubject(subj, lefts[i], right) {
				sp.insert(e)
			}
		}
		scorers.Put(sc)
	}
	for _, entries := range sp.index {
		slices.SortFunc(entries, compareEntries)
	}
	for _, links := range sp.leftPairs {
		slices.SortFunc(links, linkset.Compare)
	}
	return sp
}

// scoredPair is one surviving candidate pair with its feature set, produced
// by scoreSubject and merged into the space by insert.
type scoredPair struct {
	link linkset.Link
	fs   Set
}

// insert adds one scored pair to the space's maps and indexes.
func (sp *Space) insert(e scoredPair) {
	sp.pairs[e.link] = e.fs
	sp.leftPairs[e.link.Left] = append(sp.leftPairs[e.link.Left], e.link)
	for i, f := range e.fs.Features {
		sp.index[f] = append(sp.index[f], scoredLink{score: e.fs.Scores[i], link: e.link})
	}
}

// scoreParallel fans scoreSubject across opt.Workers goroutines (atomic
// work-stealing over the subject list, one scorer each) and merges the
// per-subject slots serially in subject order, giving the exact serial
// result.
func (sp *Space) scoreParallel(partition []rdf.TermID, lefts []entity) {
	results := make([][]scoredPair, len(partition))
	workers := sp.opt.Workers
	if workers > len(partition) {
		workers = len(partition)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := buildScorer(sp.opt.Theta)
			defer scorers.Put(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(partition) {
					return
				}
				results[i] = sc.scoreSubject(partition[i], lefts[i], sp.right)
			}
		}()
	}
	wg.Wait()
	for _, rs := range results {
		for _, e := range rs {
			sp.insert(e)
		}
	}
}

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
// and the buffers reused from pair to pair, so that scoring a pair
// allocates only the Set it returns. Make one with newScorer (or, for a
// build, buildScorer); the zero buffers are ready to use.
type scorer struct {
	theta float64
	// memo is a direct-mapped table of matrix cells: a (ds1 term, ds2
	// term) key and the kernel's score for it. Its length is a power of
	// two; a key's cell is the top bits of the key times a Fibonacci
	// constant, shift = 64 − log2(len(memo)). A miss overwrites the cell.
	memo    []memoCell
	shift   uint
	sim     sim.Scratch
	feats   []Feature // the pair under way: sorted, one entry per feature
	scores  []float64
	rowBest []bestCell              // the pair under way, per-row arm: one entry per e1 attribute
	seen    map[rdf.TermID]struct{} // the subject under way: candidates met
}

// memoCells is the length of every scorer memo but Compute's: 2^14 cells,
// 256 KiB. Over the link_batch data sets it saves 58.7 % of a build's
// kernel calls, where an unbounded memo would save 61.2 %
// (TestLinkBatchMemoShapes).
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
// the right subjects sharing at least one blocking key with it — and
// returns the θ-surviving pairs. It only reads right, so calls for
// distinct subjects can run concurrently on distinct scorers.
func (sc *scorer) scoreSubject(subj rdf.TermID, e1 entity, right *RightSide) []scoredPair {
	if sc.seen == nil {
		sc.seen = map[rdf.TermID]struct{}{}
	}
	clear(sc.seen)
	var out []scoredPair
	for _, obj := range e1.objs {
		for _, tok := range obj.keys {
			postings := right.byToken[tok]
			if len(postings) > right.maxSize {
				continue
			}
			for _, r := range postings {
				if _, dup := sc.seen[r]; dup {
					continue
				}
				sc.seen[r] = struct{}{}
				if fs := sc.score(e1, right.ents[r].entity); fs.Len() > 0 {
					out = append(out, scoredPair{link: linkset.Link{Left: subj, Right: r}, fs: fs})
				}
			}
		}
	}
	return out
}

// score builds the θ-filtered feature set of one entity pair (§4.1): a
// similarity matrix over attribute pairs, then per-row maxima when
// |e1| > |e2|, per-column maxima otherwise; among equal scores the first
// cell in row (column) order wins. Duplicate predicates keep the maximal
// score. Either way the matrix is walked column by column, because the
// string kernel prepares a table of the e2 value and reuses it for as long
// as that value stays (sim.Scratch).
func (sc *scorer) score(e1, e2 entity) Set {
	sc.feats, sc.scores = sc.feats[:0], sc.scores[:0]
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
	if len(sc.feats) == 0 {
		return Set{}
	}
	return Set{
		Features: append([]Feature(nil), sc.feats...),
		Scores:   append([]float64(nil), sc.scores...),
	}
}

// record keeps s as feature f's score when it passes θ and beats what the
// pair already has for f. The buffers stay sorted by feature; a pair has
// at most a handful of features, so insertion is a short shift.
func (sc *scorer) record(f Feature, s float64) {
	if s < sc.theta {
		return
	}
	i := len(sc.feats)
	for i > 0 && compareFeatures(f, sc.feats[i-1]) < 0 {
		i--
	}
	if i > 0 && sc.feats[i-1] == f {
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
	fs, ok := sp.pairs[l]
	return fs, ok
}

// Explore returns every candidate pair whose score for feature f lies in
// [lo, hi] — the paper's exploration action (§4.2). The result is sorted by
// score then link.
func (sp *Space) Explore(f Feature, lo, hi float64) []linkset.Link {
	entries := sp.index[f]
	start := sort.Search(len(entries), func(i int) bool { return entries[i].score >= lo })
	var out []linkset.Link
	for i := start; i < len(entries) && entries[i].score <= hi; i++ {
		out = append(out, entries[i].link)
	}
	return out
}

// ExploreN is Explore with a result bound: it returns at most n links from
// [v−δ, v+δ], preferring those whose score is closest to v. Exploration
// "around" a value naturally radiates outward from it; bounding the result
// keeps one indistinct feature (the paper's owl:Thing example, §4.2, whose
// window can be the entire space) from flooding the candidate set faster
// than feedback can clean it.
func (sp *Space) ExploreN(f Feature, v, delta float64, n int) []linkset.Link {
	return sp.AppendExplore(nil, f, v, delta, n)
}

// AppendExplore is ExploreN appending its links to dst, so that a caller
// exploring again and again can reuse one buffer.
func (sp *Space) AppendExplore(dst []linkset.Link, f Feature, v, delta float64, n int) []linkset.Link {
	entries := sp.index[f]
	lo, hi := v-delta, v+delta
	start := sort.Search(len(entries), func(i int) bool { return entries[i].score >= lo })
	end := start + sort.Search(len(entries)-start, func(i int) bool { return entries[start+i].score > hi })
	if n <= 0 || end-start <= n {
		dst = slices.Grow(dst, end-start)
		for i := start; i < end; i++ {
			dst = append(dst, entries[i].link)
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
				dst = append(dst, entries[left].link)
				left--
			} else {
				dst = append(dst, entries[right].link)
				right++
			}
		case leftOK:
			dst = append(dst, entries[left].link)
			left--
		case rightOK:
			dst = append(dst, entries[right].link)
			right++
		default:
			return dst
		}
	}
	return dst
}

// Len returns the number of θ-filtered candidate pairs in the space.
func (sp *Space) Len() int { return len(sp.pairs) }

// Right returns the DS2 side the space scores against: the one to Apply
// object deltas to when the space owns it (Build), the shared one
// otherwise (BuildOn).
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
	out := make([]linkset.Link, 0, len(sp.pairs))
	for l := range sp.pairs {
		out = append(out, l)
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
// shares it between its partitions' spaces through BuildOn. Spaces only
// read it, from any number of goroutines. Apply is the one writer: its
// caller must be the side's single owner and must keep readers out while
// it runs.
//
// Postings are stored in full; the MaxBlockSize stopword cap is applied at
// read time in scoreSubject (a list longer than maxSize is dead), so
// posting lists can be spliced incrementally without losing track of which
// subjects a token would cover if it came back under the cap.
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

// set rewrites one ds2 subject's entry and postings: the subject leaves
// the blocks of tokens it lost and joins those it gained. Posting order is
// irrelevant to candidate generation (the result feeds a set) — only
// membership and length matter. It returns the subject's old and new
// token sets.
func (r *RightSide) set(subj rdf.TermID, e entity) (oldToks, newToks []string) {
	if old := r.ents[subj]; old != nil {
		oldToks = old.toks
	}
	newToks = e.tokens()
	old := make(map[string]bool, len(oldToks))
	for _, tok := range oldToks {
		old[tok] = true
	}
	for _, tok := range newToks {
		if old[tok] {
			delete(old, tok) // kept
			continue
		}
		r.byToken[tok] = append(r.byToken[tok], subj)
	}
	for _, tok := range oldToks { // lost (kept ones were deleted above)
		if !old[tok] {
			continue
		}
		postings := r.byToken[tok]
		for i, s := range postings {
			if s == subj {
				r.byToken[tok] = append(postings[:i], postings[i+1:]...)
				break
			}
		}
		if len(r.byToken[tok]) == 0 {
			delete(r.byToken, tok)
		}
	}
	if len(newToks) == 0 {
		delete(r.ents, subj)
	} else {
		r.ents[subj] = &rightEntity{entity: e, toks: newToks}
	}
	return oldToks, newToks
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
