// Package linkset manages sets of owl:sameAs candidate links between two
// data sets and computes the quality metrics the paper reports: precision,
// recall and F-measure against a ground-truth link set (§7.1).
package linkset

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"

	"alex/internal/rdf"
)

// Link identifies one owl:sameAs candidate between an entity of the first
// data set (Left) and one of the second (Right). TermIDs refer to a shared
// rdf.Dict.
type Link struct {
	Left  rdf.TermID
	Right rdf.TermID
}

// String renders the link for diagnostics.
func (l Link) String() string { return fmt.Sprintf("(%d ~ %d)", l.Left, l.Right) }

// Scored pairs a link with the confidence its producer assigned.
type Scored struct {
	Link  Link
	Score float64
}

// Set is a mutable set of candidate links. It is safe for concurrent use.
//
// A set holds its links in one or both of two forms: a hash index, which
// Add and Remove need, and a run (see Compare), which everything that reads
// the set in order needs. Each form is built from the other the first time
// it is asked for, so a set that is built from a run, published and only
// read — the engine's candidates on their way to the federation — never
// pays for the index.
type Set struct {
	mu sync.RWMutex
	// links is the hash index; nil means not built, and sorted is then
	// current.
	links map[Link]struct{}
	// sorted is the run; nil means stale, and links is then current. The
	// array is never written after it is stored — Add and Remove drop the
	// reference instead — so callers of Sorted may keep reading it without
	// the lock.
	sorted []Link
}

// New returns an empty set.
func New() *Set {
	return &Set{links: make(map[Link]struct{})}
}

// FromLinks builds a set from a slice, which may repeat links and is not
// retained.
func FromLinks(links []Link) *Set {
	s := &Set{links: make(map[Link]struct{}, len(links))}
	for _, l := range links {
		s.links[l] = struct{}{}
	}
	return s
}

// FromSorted builds a set around a run — links in strictly ascending
// Compare order — which becomes the set's sorted view: no copy, no sort,
// no hashing. The set takes ownership; the caller must not modify run
// afterwards. A slice that is not a run is accepted and costs what
// FromLinks costs.
func FromSorted(run []Link) *Set {
	if !isRun(run) {
		return FromLinks(run)
	}
	if run == nil {
		run = []Link{} // nil would read as "stale"
	}
	return &Set{sorted: run}
}

// index returns the hash index, building it from the run if need be. The
// caller holds the write lock.
func (s *Set) index() map[Link]struct{} {
	if s.links == nil {
		s.links = make(map[Link]struct{}, len(s.sorted))
		for _, l := range s.sorted {
			s.links[l] = struct{}{}
		}
	}
	return s.links
}

// Add inserts the link, reporting whether it was absent.
func (s *Set) Add(l Link) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	links := s.index()
	if _, dup := links[l]; dup {
		return false
	}
	links[l] = struct{}{}
	s.sorted = nil
	return true
}

// Remove deletes the link, reporting whether it was present.
func (s *Set) Remove(l Link) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	links := s.index()
	if _, ok := links[l]; !ok {
		return false
	}
	delete(links, l)
	s.sorted = nil
	return true
}

// Contains reports membership.
func (s *Set) Contains(l Link) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.links == nil {
		_, ok := slices.BinarySearchFunc(s.sorted, l, Compare)
		return ok
	}
	_, ok := s.links[l]
	return ok
}

// Len returns the set size.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.links == nil {
		return len(s.sorted)
	}
	return len(s.links)
}

// Sorted returns the links as a run: ascending Compare order, no
// duplicates. The slice is the set's remembered view, shared with every
// other caller and READ-ONLY; it stays valid (a snapshot of the set as it
// was) when the set changes afterwards. The first call after a change
// sorts, later ones return the remembered run.
func (s *Set) Sorted() []Link {
	s.mu.RLock()
	run := s.sorted
	s.mu.RUnlock()
	if run != nil {
		return run
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sorted == nil {
		run = make([]Link, 0, len(s.links))
		for l := range s.links {
			run = append(run, l)
		}
		s.sorted = Sort(run)
	}
	return s.sorted
}

// Links returns a copy of the links sorted by (Left, Right), which the
// caller owns.
func (s *Set) Links() []Link { return slices.Clone(s.Sorted()) }

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Set{links: maps.Clone(s.links), sorted: s.sorted}
}

// Quality holds the paper's evaluation metrics for one candidate set.
type Quality struct {
	Precision float64
	Recall    float64
	FMeasure  float64
	// Correct is |C ∩ G|, Candidates is |C|, Truth is |G|.
	Correct    int
	Candidates int
	Truth      int
}

// String renders the metrics compactly.
func (q Quality) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F=%.3f (%d/%d candidates correct, %d truth)",
		q.Precision, q.Recall, q.FMeasure, q.Correct, q.Candidates, q.Truth)
}

// Evaluate computes precision P = |C∩G|/|C|, recall R = |C∩G|/|G| and
// F = 2PR/(P+R) of candidates against truth. Empty candidate sets have
// precision 0 by convention; empty truth has recall 0. Each set is read
// under its own lock, one after the other, so any two sets — the same one
// included — can be compared while writers wait on either.
func Evaluate(candidates, truth *Set) Quality {
	c, g := candidates.Sorted(), truth.Sorted()
	q := Quality{Candidates: len(c), Truth: len(g)}
	// |C ∩ G| from the one merge walk: |C| + |G| = 2|C ∩ G| + |C △ G|.
	q.Correct = (len(c) + len(g) - diffCount(c, g)) / 2
	if q.Candidates > 0 {
		q.Precision = float64(q.Correct) / float64(q.Candidates)
	}
	if q.Truth > 0 {
		q.Recall = float64(q.Correct) / float64(q.Truth)
	}
	if q.Precision+q.Recall > 0 {
		q.FMeasure = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
	}
	return q
}

// LoadSameAs reads the owl:sameAs triples of the N-Triples file at path as
// links, interning both ends into dict; the file's other triples are
// skipped. It is the link reader every command-line tool shares.
func LoadSameAs(dict *rdf.Dict, path string) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	triples, _, err := rdf.ParseNTriples(data, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	links := New()
	for _, t := range triples {
		if t.P.Value == rdf.OWLSameAs {
			links.Add(Link{Left: dict.Intern(t.S), Right: dict.Intern(t.O)})
		}
	}
	return links, nil
}
