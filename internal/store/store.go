// Package store implements an in-memory indexed RDF triple store.
//
// A Store holds triples over a shared rdf.Dict and maintains three hash
// indexes (by subject, by predicate, by object) so that any triple pattern
// with at least one bound position is answered without a full scan. The
// store also exposes an Entity view — the set of (predicate, object)
// attributes of one subject — which is the unit ALEX builds feature sets
// from, and per-predicate statistics used by the PARIS baseline.
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

// tripleIndex maps a term id to the positions of the triples using it in
// one position (subject, predicate or object), in insertion order. It is
// guarded by the owning Store's mu.
type tripleIndex map[rdf.TermID][]int32

// keys returns the distinct keys, unsorted.
func (ix tripleIndex) keys() []rdf.TermID {
	out := make([]rdf.TermID, 0, len(ix))
	for id := range ix {
		out = append(out, id)
	}
	return out
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
	return &Store{
		name:    name,
		dict:    dict,
		present: newTripleSet(0),
		ixSubj:  tripleIndex{},
		ixPred:  tripleIndex{},
		ixObj:   tripleIndex{},
	}
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
	if _, dup := s.present.get(t); dup {
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
	s.present.put(t, pos)
	if s.ixSubj[t.S] == nil {
		s.subjects = append(s.subjects, t.S)
	}
	s.ixSubj[t.S] = append(s.ixSubj[t.S], pos)
	s.ixPred[t.P] = append(s.ixPred[t.P], pos)
	s.ixObj[t.O] = append(s.ixObj[t.O], pos)
}

// Generation returns the log length. The store only grows, so the length
// changes exactly when the data does, and a cached result tagged with a
// generation is valid iff the generation is unchanged.
func (s *Store) Generation() uint64 { return uint64(s.Len()) }

// AddIDs bulk-inserts pre-interned triples in order, skipping duplicates,
// and returns the number of triples added. It is equivalent to calling
// AddID for each element — every index posting list and the subject
// first-sight order come out identical — but takes the store lock once.
func (s *Store) AddIDs(ids []rdf.TripleID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil && len(ids) > 0 {
		// Logged pre-dedup: replay re-runs the same dedup, so the effective
		// inserts match.
		s.wal.logBatch(ids)
	}
	added := 0
	for _, t := range ids {
		if _, dup := s.present.get(t); !dup {
			s.appendLocked(t)
			added++
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
	_, found := s.present.get(rdf.TripleID{S: sID, P: pID, O: oID})
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
	out := s.ixPred.keys()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Count is the cardinality question both query planners ask: how many
// triples match (subj, pred, obj), rdf.NoTerm being a wildcard as in Match.
// It answers from the posting-list lengths alone — the shortest list of a
// bound position, or the store's size when none is bound — so it is exact
// for at most one bound position, an upper bound otherwise, and 0 only when
// nothing matches.
func (s *Store) Count(subj, pred, obj rdf.TermID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.present.Len()
	if subj != rdf.NoTerm {
		n = min(n, len(s.ixSubj[subj]))
	}
	if pred != rdf.NoTerm {
		n = min(n, len(s.ixPred[pred]))
	}
	if obj != rdf.NoTerm {
		n = min(n, len(s.ixObj[obj]))
	}
	return n
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

// Store returns the viewed store: its dictionary, registry and Count.
func (v View) Store() *Store { return v.s }

// Generation returns the generation the view reads.
func (v View) Generation() uint64 { return uint64(v.n) }

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
		candidates = s.ixSubj[subj]
	case obj != rdf.NoTerm:
		s.probeObj.Inc()
		candidates = s.ixObj[obj]
	case pred != rdf.NoTerm:
		s.probePred.Inc()
		candidates = s.ixPred[pred]
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
	k := sort.Search(len(s.subjects), func(i int) bool { return int(s.ixSubj[s.subjects[i]][0]) >= v.n })
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
	positions := s.ixSubj[subj]
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
		Predicates: len(s.ixPred),
	}
}

// String implements fmt.Stringer for diagnostics.
func (st Stats) String() string {
	return fmt.Sprintf("%s: %d triples, %d subjects, %d predicates",
		st.Name, st.Triples, st.Subjects, st.Predicates)
}

// Load inserts triples as one batch and returns the number added. It is
// the one bulk insert: one Dict.InternAll over the triples' S, P and O
// terms in input order, which assigns the ids an Add loop would, then one
// AddIDs, so the batch is one WAL record. The bulk loaders parse their
// whole document before calling Load, so a document that fails to parse
// interns nothing.
func (s *Store) Load(triples []rdf.Triple) int {
	terms := make([]rdf.Term, 0, 3*len(triples))
	for _, t := range triples {
		terms = append(terms, t.S, t.P, t.O)
	}
	ids := s.dict.InternAll(terms)
	batch := make([]rdf.TripleID, len(triples))
	for i := range batch {
		batch[i] = rdf.TripleID{S: ids[3*i], P: ids[3*i+1], O: ids[3*i+2]}
	}
	return s.AddIDs(batch)
}

// Functionality returns the functionality of a predicate: the ratio of
// distinct subjects to triples for that predicate, in (0, 1]. A predicate
// with functionality 1 has at most one value per subject (like birthDate);
// low-functionality predicates (like rdf:type) are weak linking evidence.
// PARIS weighs evidence by functionality.
func (s *Store) Functionality(p rdf.TermID) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	positions := s.ixPred[p]
	if len(positions) == 0 {
		return 0
	}
	distinct := make(map[rdf.TermID]struct{}, len(positions))
	for _, pos := range positions {
		distinct[s.triples[pos].S] = struct{}{}
	}
	return float64(len(distinct)) / float64(len(positions))
}
