// Package linkset manages sets of owl:sameAs candidate links between two
// data sets and computes the quality metrics the paper reports: precision,
// recall and F-measure against a ground-truth link set (§7.1).
package linkset

import (
	"fmt"
	"os"
	"slices"

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

// Set is a set of candidate links that never changes once built: one run
// (see Compare), which every method reads and none writes, so a set is
// safe for concurrent use without a lock. A new candidate set is a new Set.
type Set struct {
	run []Link
}

// New returns an empty set.
func New() *Set { return &Set{} }

// FromLinks builds a set from a slice, which may repeat links and is not
// retained.
func FromLinks(links []Link) *Set {
	return &Set{run: Sort(slices.Clone(links))}
}

// FromSorted builds a set around a run — links in strictly ascending
// Compare order — with no copy and no sort. The set takes ownership; the
// caller must not modify run afterwards. A slice that is not a run is
// accepted and costs what FromLinks costs.
func FromSorted(run []Link) *Set {
	if !isRun(run) {
		return FromLinks(run)
	}
	return &Set{run: run}
}

// Contains reports membership, by binary search.
func (s *Set) Contains(l Link) bool {
	_, ok := slices.BinarySearchFunc(s.run, l, Compare)
	return ok
}

// Len returns the set size.
func (s *Set) Len() int { return len(s.run) }

// Sorted returns the links as a run: ascending Compare order, no
// duplicates. The slice is the set's own, shared with every other caller
// and READ-ONLY.
func (s *Set) Sorted() []Link { return s.run }

// Links returns a copy of the links sorted by (Left, Right), which the
// caller owns.
func (s *Set) Links() []Link { return slices.Clone(s.run) }

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
// precision 0 by convention; empty truth has recall 0. A set never
// changes, so any two sets — the same one included — can be compared from
// any goroutine.
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
	chunks, err := rdf.ParseNTriples(data, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var links []Link
	for _, ts := range chunks {
		for _, t := range ts {
			if t.P.Value == rdf.OWLSameAs {
				links = append(links, Link{Left: dict.Intern(t.S), Right: dict.Intern(t.O)})
			}
		}
	}
	return FromLinks(links), nil
}
