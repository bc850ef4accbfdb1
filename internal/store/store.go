// Package store implements an in-memory indexed RDF triple store.
//
// A Store holds triples over a shared rdf.Dict and maintains three indexes
// (by subject, by predicate, by object), each a posting list per term id,
// so that any triple pattern with at least one bound position is answered
// without a full scan. The store also exposes an Entity view — the set of
// (predicate, object) attributes of one subject — which is the unit ALEX
// builds feature sets from, and per-predicate statistics used by the PARIS
// baseline.
//
// One RWMutex per store guards its triples and all three indexes: reads
// share it, and every mutation, the loaders' bulk AddIDs included, fills
// the indexes serially under it. A store being restored from a snapshot is
// not shared yet and takes no lock.
package store

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"alex/internal/obs"
	"alex/internal/rdf"
)

// tripleIndex holds, for each term id, the positions of the triples using
// it in one position (subject, predicate or object), ascending: lists[id]
// is id's posting list. The slice grows on the first use of an id past its
// end, so it costs 24 bytes per id up to the largest id the store uses in
// that position. It is guarded by the owning Store's mu.
type tripleIndex struct {
	lists [][]int32
	keys  int // ids with a non-empty list
}

// get returns id's posting list.
func (ix *tripleIndex) get(id rdf.TermID) []int32 {
	if int(id) < len(ix.lists) {
		return ix.lists[id]
	}
	return nil
}

// add appends pos to id's posting list and reports whether it is id's
// first.
func (ix *tripleIndex) add(id rdf.TermID, pos int32) bool {
	if n := int(id) + 1; n > len(ix.lists) {
		ix.lists = slices.Grow(ix.lists, n-len(ix.lists))[:n]
	}
	first := len(ix.lists[id]) == 0
	if first {
		ix.keys++
	}
	ix.lists[id] = append(ix.lists[id], pos)
	return first
}

// below returns how many positions of the ascending list are below n.
func below(list []int32, n int) int {
	if k := len(list); k == 0 || int(list[k-1]) < n {
		return k
	}
	i, _ := slices.BinarySearch(list, int32(n))
	return i
}

// Store is an in-memory, append-only triple store: all mutation goes
// through Add/AddID/AddIDs, which only insert, so the log, the dedup table,
// the posting lists and the subject list only grow, and a position names
// one triple forever. Every method is safe for concurrent use.
type Store struct {
	name string
	dict *rdf.Dict

	mu sync.RWMutex
	// triples is the insertion-ordered log.
	triples []rdf.TripleID
	// present maps each triple to its position in triples (a flat
	// open-addressing table; see tripleset.go).
	present *tripleSet
	ixSubj  tripleIndex
	ixPred  tripleIndex
	ixObj   tripleIndex
	// subjects in insertion order, for deterministic iteration
	subjects []rdf.TermID

	// Observability instruments, pre-resolved by SetObserver. All are
	// nil-safe no-ops when unset (the disabled state costs one branch in
	// the instrument method).
	probeSubj  *obs.Counter
	probeObj   *obs.Counter
	probePred  *obs.Counter
	probeScan  *obs.Counter
	matchRows  *obs.Counter
	triplesOut *obs.Gauge

	// reg is the attached registry (nil when detached), used by the bulk
	// loaders to resolve their load.parallel.* instruments.
	reg *obs.Registry

	// wal, when attached by a Durable, receives one checksummed record per
	// effective mutation before the index write (see wal.go). Mutators read
	// it under mu, so attach/detach (setWAL) serializes with them.
	wal *walWriter
}

// New returns an empty store named name over dict. The name identifies the
// data set in federated queries and diagnostics.
func New(name string, dict *rdf.Dict) *Store {
	return &Store{name: name, dict: dict, present: newTripleSet(0)}
}

// Name returns the data-set name.
func (s *Store) Name() string { return s.name }

// SetObserver attaches a metrics registry. Per-store instruments are
// namespaced by data-set name: store.<name>.probe.{subject,object,
// predicate,scan} count index probes by the index used, store.<name>.rows
// counts matched triples returned, and store.<name>.triples gauges the
// store size. A nil registry detaches (all instruments become no-ops).
func (s *Store) SetObserver(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	s.probeSubj = reg.Counter(obs.StoreProbeSubject(s.name))
	s.probeObj = reg.Counter(obs.StoreProbeObject(s.name))
	s.probePred = reg.Counter(obs.StoreProbePredicate(s.name))
	s.probeScan = reg.Counter(obs.StoreProbeScan(s.name))
	s.matchRows = reg.Counter(obs.StoreRows(s.name))
	s.triplesOut = reg.Gauge(obs.StoreTriples(s.name))
	s.triplesOut.Set(int64(len(s.triples)))
}

// Dict returns the term dictionary shared by this store.
func (s *Store) Dict() *rdf.Dict { return s.dict }

// setWAL attaches (or, with nil, detaches) the write-ahead log. Taking the
// write lock serializes the swap against in-flight mutators.
func (s *Store) setWAL(w *walWriter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = w
}

// Add interns and inserts a triple. Duplicate triples are ignored; the
// return reports whether the triple was newly added.
func (s *Store) Add(t rdf.Triple) bool {
	return s.AddID(rdf.TripleID{
		S: s.dict.Intern(t.S),
		P: s.dict.Intern(t.P),
		O: s.dict.Intern(t.O),
	})
}

// AddID inserts a pre-interned triple. Duplicates are ignored.
func (s *Store) AddID(t rdf.TripleID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.present.get(t, s.triples); dup {
		return false
	}
	if s.wal != nil {
		s.wal.logAdd(t)
	}
	s.appendLocked(t)
	s.triplesOut.Set(int64(s.present.Len()))
	return true
}

// appendLocked inserts t, which is not present, at the end of the log:
// position, dedup table, subject first sight and the three indexes. The
// caller holds the write lock and owns the gauges.
func (s *Store) appendLocked(t rdf.TripleID) {
	pos := int32(len(s.triples))
	s.triples = append(s.triples, t)
	s.present.add(t, pos, s.triples)
	if s.ixSubj.add(t.S, pos) {
		s.subjects = append(s.subjects, t.S)
	}
	s.ixPred.add(t.P, pos)
	s.ixObj.add(t.O, pos)
}

// index makes log, which it takes over, the log of an empty store and
// builds the rest from it at once instead of by appends: the dedup table,
// keeping the first of any repeated triples and compacting log in place,
// then the subject list and per-id posting counts, then one backing array
// per index carved into the posting lists (fillIndex). Triples are visited
// in position order, so the lists and the subject first-sight order are
// exactly what appendLocked over the log would have built, and each
// index's list slice ends at the largest id in its position, as appends
// would have grown it. It returns the first repeat's position in log and
// the position of the triple it repeats, or -1 and -1.
func (s *Store) index(log []rdf.TripleID) (repeat, first int) {
	repeat, first = -1, -1
	s.present = newTripleSet(len(log))
	n := 0
	var top rdf.TripleID
	for r, t := range log {
		if at, dup := s.present.get(t, log); dup {
			if repeat < 0 {
				repeat, first = r, int(at)
			}
			continue
		}
		log[n] = t
		s.present.add(t, int32(n), log)
		n++
		top = rdf.TripleID{S: max(top.S, t.S), P: max(top.P, t.P), O: max(top.O, t.O)}
	}
	s.triples = log[:n]
	counts := [3][]int32{make([]int32, top.S+1), make([]int32, top.P+1), make([]int32, top.O+1)}
	for _, t := range s.triples {
		if counts[0][t.S] == 0 {
			s.subjects = append(s.subjects, t.S)
		}
		counts[0][t.S]++
		counts[1][t.P]++
		counts[2][t.O]++
	}
	for role, ix := range [3]*tripleIndex{&s.ixSubj, &s.ixPred, &s.ixObj} {
		*ix = fillIndex(s.triples, counts[role], role)
	}
	return repeat, first
}

// fillIndex builds one triple index from the log and counts, the number of
// postings of each id in the role's position. A prefix sum over the counts
// carves one shared backing array into the posting lists — sliced with
// full capacity so a later append to one list reallocates instead of
// bleeding into its neighbour. The prefix sum runs in place: counts[id]
// turns into the fill cursor, and each id's list is recovered afterwards
// as the span between consecutive cursor ends.
func fillIndex(triples []rdf.TripleID, counts []int32, role int) tripleIndex {
	var sum int32
	for id, c := range counts {
		counts[id] = sum
		sum += c
	}
	backing := make([]int32, len(triples))
	switch role {
	case 0:
		for r, t := range triples {
			backing[counts[t.S]] = int32(r)
			counts[t.S]++
		}
	case 1:
		for r, t := range triples {
			backing[counts[t.P]] = int32(r)
			counts[t.P]++
		}
	default:
		for r, t := range triples {
			backing[counts[t.O]] = int32(r)
			counts[t.O]++
		}
	}
	ix := tripleIndex{lists: make([][]int32, len(counts))}
	prev := int32(0)
	for id, end := range counts {
		if end == prev {
			continue
		}
		ix.lists[id] = backing[prev:end:end]
		ix.keys++
		prev = end
	}
	return ix
}

// Generation returns the log length. The store only grows, so the length
// changes exactly when the data does, and a cached result tagged with a
// generation is valid iff the generation is unchanged.
func (s *Store) Generation() uint64 { return uint64(s.Len()) }

// AddIDs bulk-inserts pre-interned triples in order, skipping duplicates,
// and returns the number of triples added. It is equivalent to calling
// AddID for each element — every index posting list and the subject
// first-sight order come out identical — but takes the store lock once,
// and into an empty store builds the log, the dedup table and the indexes
// in one pass (index) instead of by appends.
func (s *Store) AddIDs(ids []rdf.TripleID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(ids) == 0 {
		return 0
	}
	if s.wal != nil {
		// Logged pre-dedup: replay re-runs the same dedup, so the effective
		// inserts match.
		s.wal.logBatch(ids)
	}
	added := 0
	if len(s.triples) == 0 {
		s.index(slices.Clone(ids))
		added = len(s.triples)
	} else {
		for _, t := range ids {
			if _, dup := s.present.get(t, s.triples); !dup {
				s.appendLocked(t)
				added++
			}
		}
	}
	if added == 0 {
		return 0
	}
	s.triplesOut.Set(int64(s.present.Len()))
	return added
}

// Len returns the number of triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.present.Len()
}

// Contains reports whether the exact triple is present.
func (s *Store) Contains(t rdf.Triple) bool {
	sID, ok := s.dict.Lookup(t.S)
	if !ok {
		return false
	}
	pID, ok := s.dict.Lookup(t.P)
	if !ok {
		return false
	}
	oID, ok := s.dict.Lookup(t.O)
	if !ok {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, found := s.present.get(rdf.TripleID{S: sID, P: pID, O: oID}, s.triples)
	return found
}

// Match returns all triples matching the pattern, where rdf.NoTerm in a
// position acts as a wildcard: the view now's MatchEach collected into a
// slice, in insertion order.
func (s *Store) Match(subj, pred, obj rdf.TermID) []rdf.TripleID {
	var out []rdf.TripleID
	s.Now().MatchEach(subj, pred, obj, func(t rdf.TripleID) { out = append(out, t) })
	return out
}

// MatchTerms is Match over materialized terms; zero Terms are wildcards.
func (s *Store) MatchTerms(subj, pred, obj rdf.Term) []rdf.Triple {
	lookup := func(t rdf.Term) (rdf.TermID, bool) {
		if t.IsZero() {
			return rdf.NoTerm, true
		}
		return s.dict.Lookup(t)
	}
	sID, ok := lookup(subj)
	if !ok {
		return nil
	}
	pID, ok := lookup(pred)
	if !ok {
		return nil
	}
	oID, ok := lookup(obj)
	if !ok {
		return nil
	}
	ids := s.Match(sID, pID, oID)
	out := make([]rdf.Triple, len(ids))
	for i, id := range ids {
		out[i] = s.dict.Materialize(id)
	}
	return out
}

// Subjects returns a copy of the view now's subjects.
func (s *Store) Subjects() []rdf.TermID { return slices.Clone(s.Now().Subjects()) }

// Since returns a copy of the triple log from position pos on: every
// triple added after the store held pos triples, in insertion order. The
// log only grows, so a reader that keeps pos+len(result) as its next pos
// sees each triple exactly once.
func (s *Store) Since(pos int) []rdf.TripleID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.triples[pos:])
}

// Predicates returns the distinct predicates, sorted by id for determinism.
func (s *Store) Predicates() []rdf.TermID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]rdf.TermID, 0, s.ixPred.keys)
	for id, list := range s.ixPred.lists {
		if len(list) > 0 {
			out = append(out, rdf.TermID(id))
		}
	}
	return out
}

// Count is View.Count of the store as it is now.
func (s *Store) Count(subj, pred, obj rdf.TermID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.countLocked(len(s.triples), subj, pred, obj)
}

// countLocked counts the postings below n of each bound position and
// returns the least, or n when none is bound. The caller holds the lock.
func (s *Store) countLocked(n int, subj, pred, obj rdf.TermID) int {
	c := n
	if subj != rdf.NoTerm {
		c = min(c, below(s.ixSubj.get(subj), n))
	}
	if pred != rdf.NoTerm {
		c = min(c, below(s.ixPred.get(pred), n))
	}
	if obj != rdf.NoTerm {
		c = min(c, below(s.ixObj.get(obj), n))
	}
	return c
}

// Registry returns the metrics registry attached with SetObserver, or nil.
// The SPARQL engine resolves its per-query instruments through it.
func (s *Store) Registry() *obs.Registry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reg
}

// View is a store as it was when it held its first n triples. The store
// only grows and every posting list holds ascending log positions, so a
// view's match stops at the first position at or past n, and every read of
// one view sees the same triples however many are added meanwhile.
type View struct {
	s *Store
	n int
}

// At returns the store as it was when it held gen triples, without a
// lock: gen must be at most Generation, as a pinned one always is.
func (s *Store) At(gen uint64) View { return View{s: s, n: int(gen)} }

// Now returns the store as it is now.
func (s *Store) Now() View { return View{s: s, n: s.Len()} }

// Store returns the viewed store: its dictionary and registry.
func (v View) Store() *Store { return v.s }

// Generation returns the generation the view reads.
func (v View) Generation() uint64 { return uint64(v.n) }

// Count is the cardinality question both query planners ask: how many of
// the view's triples match (subj, pred, obj), rdf.NoTerm being a wildcard
// as in MatchEach. It answers from the posting lists alone — of each bound
// position, the postings below the view's length, found by binary search;
// the least of those, or the view's length when none is bound — so it is
// exact for at most one bound position, an upper bound otherwise, and 0
// only when nothing matches.
func (v View) Count(subj, pred, obj rdf.TermID) int {
	v.s.mu.RLock()
	defer v.s.mu.RUnlock()
	return v.s.countLocked(v.n, subj, pred, obj)
}

// MatchEach calls fn for each triple of the view matching the pattern,
// rdf.NoTerm being a wildcard, in insertion order: the store's one match
// loop. fn must not call back into the store (the read lock is held across
// the iteration).
func (v View) MatchEach(subj, pred, obj rdf.TermID, fn func(rdf.TripleID)) {
	s := v.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	var candidates []int32
	switch {
	case subj != rdf.NoTerm:
		s.probeSubj.Inc()
		candidates = s.ixSubj.get(subj)
	case obj != rdf.NoTerm:
		s.probeObj.Inc()
		candidates = s.ixObj.get(obj)
	case pred != rdf.NoTerm:
		s.probePred.Inc()
		candidates = s.ixPred.get(pred)
	default:
		s.probeScan.Inc()
		for _, t := range s.triples[:v.n] {
			fn(t)
		}
		s.matchRows.Add(int64(v.n))
		return
	}
	n := int64(0)
	for _, pos := range candidates {
		if int(pos) >= v.n {
			break
		}
		t := s.triples[pos]
		if subj != rdf.NoTerm && t.S != subj {
			continue
		}
		if pred != rdf.NoTerm && t.P != pred {
			continue
		}
		if obj != rdf.NoTerm && t.O != obj {
			continue
		}
		n++
		fn(t)
	}
	s.matchRows.Add(n)
}

// Subjects returns the view's distinct subjects in first-insertion order,
// a shared prefix of the store's list the caller must not modify: those
// whose first posting is below n.
func (v View) Subjects() []rdf.TermID {
	s := v.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	k := sort.Search(len(s.subjects), func(i int) bool { return int(s.ixSubj.get(s.subjects[i])[0]) >= v.n })
	return s.subjects[:k:k]
}

// Entity is the attribute view of one subject: parallel slices of predicate
// and object ids, in insertion order.
type Entity struct {
	Subject rdf.TermID
	Preds   []rdf.TermID
	Objs    []rdf.TermID
}

// Len returns the number of attributes.
func (e Entity) Len() int { return len(e.Preds) }

// Entity returns the attribute view for a subject. The second return is
// false when the subject has no triples.
func (s *Store) Entity(subj rdf.TermID) (Entity, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	positions := s.ixSubj.get(subj)
	if len(positions) == 0 {
		return Entity{}, false
	}
	e := Entity{
		Subject: subj,
		Preds:   make([]rdf.TermID, len(positions)),
		Objs:    make([]rdf.TermID, len(positions)),
	}
	for i, pos := range positions {
		t := s.triples[pos]
		e.Preds[i] = t.P
		e.Objs[i] = t.O
	}
	return e, true
}

// Stats summarizes a store for Table 1-style reporting.
type Stats struct {
	Name       string
	Triples    int
	Subjects   int
	Predicates int
}

// Stats returns summary statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Name:       s.name,
		Triples:    s.present.Len(),
		Subjects:   len(s.subjects),
		Predicates: s.ixPred.keys,
	}
}

// String implements fmt.Stringer for diagnostics.
func (st Stats) String() string {
	return fmt.Sprintf("%s: %d triples, %d subjects, %d predicates",
		st.Name, st.Triples, st.Subjects, st.Predicates)
}

// Load inserts the triples of every chunk, in order, as one batch and
// returns the number added. It is the one bulk insert: one
// Dict.InternTriples straight from the chunks, which assigns the ids an
// Add loop would, then one AddIDs, so the batch is one WAL record. The
// bulk loaders parse their whole document before calling Load, so a
// document that fails to parse interns nothing.
func (s *Store) Load(chunks ...[]rdf.Triple) int {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	return s.AddIDs(s.dict.InternTriples(make([]rdf.TripleID, 0, n), chunks...))
}

// Functionality returns the functionality of a predicate: the ratio of
// distinct subjects to triples for that predicate, in (0, 1]. A predicate
// with functionality 1 has at most one value per subject (like birthDate);
// low-functionality predicates (like rdf:type) are weak linking evidence.
// PARIS weighs evidence by functionality.
func (s *Store) Functionality(p rdf.TermID) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	positions := s.ixPred.get(p)
	if len(positions) == 0 {
		return 0
	}
	distinct := make(map[rdf.TermID]struct{}, len(positions))
	for _, pos := range positions {
		distinct[s.triples[pos].S] = struct{}{}
	}
	return float64(len(distinct)) / float64(len(positions))
}
