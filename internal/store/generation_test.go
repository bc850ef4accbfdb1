package store

import (
	"strings"
	"testing"

	"alex/internal/rdf"
)

// TestGenerationBumps is the invalidation contract of Generation: every
// mutation path that changes the store bumps the counter exactly once per
// call, and calls that change nothing (duplicate adds, absent retracts,
// all-duplicate batches) leave it untouched — so a cached result tagged
// with a generation stays valid exactly as long as the data it was
// computed from.
func TestGenerationBumps(t *testing.T) {
	intern := func(s *Store, t_ rdf.Triple) rdf.TripleID {
		return rdf.TripleID{
			S: s.Dict().Intern(t_.S),
			P: s.Dict().Intern(t_.P),
			O: s.Dict().Intern(t_.O),
		}
	}
	cases := []struct {
		name string
		prep func(s *Store)      // bring the store to the pre-state
		op   func(s *Store) bool // the mutation under test; reports "changed"
		bump uint64              // expected generation delta
	}{
		{
			name: "Add new triple",
			op:   func(s *Store) bool { return s.Add(tri("a", "p", "1")) },
			bump: 1,
		},
		{
			name: "Add duplicate",
			prep: func(s *Store) { s.Add(tri("a", "p", "1")) },
			op:   func(s *Store) bool { return s.Add(tri("a", "p", "1")) },
			bump: 0,
		},
		{
			name: "AddID new triple",
			op:   func(s *Store) bool { return s.AddID(intern(s, tri("a", "p", "1"))) },
			bump: 1,
		},
		{
			name: "AddID duplicate",
			prep: func(s *Store) { s.Add(tri("a", "p", "1")) },
			op:   func(s *Store) bool { return s.AddID(intern(s, tri("a", "p", "1"))) },
			bump: 0,
		},
		{
			name: "AddIDs batch with additions",
			prep: func(s *Store) { s.Add(tri("a", "p", "1")) },
			op: func(s *Store) bool {
				batch := []rdf.TripleID{
					intern(s, tri("a", "p", "1")), // dup
					intern(s, tri("b", "p", "2")),
					intern(s, tri("c", "p", "3")),
				}
				return s.AddIDs(batch) > 0
			},
			bump: 1, // one bump per batch, not per triple
		},
		{
			name: "AddIDs all duplicates",
			prep: func(s *Store) { s.Add(tri("a", "p", "1")); s.Add(tri("b", "p", "2")) },
			op: func(s *Store) bool {
				batch := []rdf.TripleID{intern(s, tri("a", "p", "1")), intern(s, tri("b", "p", "2"))}
				return s.AddIDs(batch) > 0
			},
			bump: 0,
		},
		{
			name: "AddIDs empty batch",
			op:   func(s *Store) bool { return s.AddIDs(nil) > 0 },
			bump: 0,
		},
		{
			name: "Retract present triple",
			prep: func(s *Store) { s.Add(tri("a", "p", "1")) },
			op:   func(s *Store) bool { return s.Retract(tri("a", "p", "1")) },
			bump: 1,
		},
		{
			name: "Retract absent triple",
			prep: func(s *Store) { s.Add(tri("a", "p", "1")) },
			op:   func(s *Store) bool { return s.Retract(tri("a", "p", "2")) },
			bump: 0,
		},
		{
			name: "Retract with unknown terms",
			op:   func(s *Store) bool { return s.Retract(tri("never", "seen", "x")) },
			bump: 0,
		},
		{
			name: "RetractID present",
			prep: func(s *Store) { s.Add(tri("a", "p", "1")) },
			op:   func(s *Store) bool { return s.RetractID(intern(s, tri("a", "p", "1"))) },
			bump: 1,
		},
		{
			name: "RetractID already retracted",
			prep: func(s *Store) { s.Add(tri("a", "p", "1")); s.Retract(tri("a", "p", "1")) },
			op:   func(s *Store) bool { return s.RetractID(intern(s, tri("a", "p", "1"))) },
			bump: 0,
		},
		{
			name: "Load bulk",
			op: func(s *Store) bool {
				s.Load([]rdf.Triple{tri("a", "p", "1"), tri("b", "p", "2")})
				return true
			},
			bump: 1, // Load is one AddIDs batch: one bump
		},
		{
			name: "LoadNTriples stream",
			op: func(s *Store) bool {
				nt := `<http://x/a> <http://x/p> "1" .` + "\n"
				n, err := LoadNTriples(s, strings.NewReader(nt), LoadOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return n > 0
			},
			bump: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New("gen", rdf.NewDict())
			if tc.prep != nil {
				tc.prep(s)
			}
			before := s.Generation()
			changed := tc.op(s)
			got := s.Generation() - before
			if got != tc.bump {
				t.Errorf("generation bumped by %d, want %d", got, tc.bump)
			}
			if changed != (tc.bump > 0) {
				t.Errorf("changed=%t inconsistent with expected bump %d", changed, tc.bump)
			}
			// A second identical call must be a no-op for the idempotent
			// mutations (duplicate-add and absent-retract rows).
			if tc.bump == 0 {
				again := s.Generation()
				tc.op(s)
				if s.Generation() != again {
					t.Error("no-op mutation bumped generation on repeat")
				}
			}
		})
	}
}

// TestRetractRemovesFromReads pins the tombstone semantics: a retracted
// triple disappears from Len, Contains, every indexed Match access path,
// full scans and snapshots, and can be re-added afterwards.
func TestRetractRemovesFromReads(t *testing.T) {
	s := New("retract", rdf.NewDict())
	s.Add(tri("a", "p", "1"))
	s.Add(tri("a", "q", "2"))
	s.Add(tri("b", "p", "3"))
	if !s.Retract(tri("a", "p", "1")) {
		t.Fatal("Retract returned false for a present triple")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d after retract, want 2", s.Len())
	}
	if s.Contains(tri("a", "p", "1")) {
		t.Error("Contains sees the retracted triple")
	}
	id := func(term rdf.Term) rdf.TermID {
		tid, ok := s.Dict().Lookup(term)
		if !ok {
			t.Fatalf("term %v not in dict", term)
		}
		return tid
	}
	if n := len(s.Match(id(rdf.NewIRI("http://x/a")), rdf.NoTerm, rdf.NoTerm)); n != 1 {
		t.Errorf("subject-indexed match = %d rows, want 1", n)
	}
	if n := len(s.Match(rdf.NoTerm, id(rdf.NewIRI("http://x/p")), rdf.NoTerm)); n != 1 {
		t.Errorf("predicate-indexed match = %d rows, want 1", n)
	}
	if n := len(s.Match(rdf.NoTerm, rdf.NoTerm, id(rdf.NewString("1")))); n != 0 {
		t.Errorf("object-indexed match = %d rows, want 0", n)
	}
	if n := len(s.Match(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm)); n != 2 {
		t.Errorf("full scan = %d rows, want 2", n)
	}
	// Re-adding the retracted triple works and is again visible.
	if !s.Add(tri("a", "p", "1")) {
		t.Fatal("re-Add after retract returned false")
	}
	if n := len(s.Match(id(rdf.NewIRI("http://x/a")), rdf.NoTerm, rdf.NoTerm)); n != 2 {
		t.Errorf("subject-indexed match after re-add = %d rows, want 2", n)
	}
}

// TestRetractLastSubjectTriple checks the subject first-sight list: when a
// subject's last triple is retracted the subject leaves Subjects(), and a
// re-add records it exactly once.
func TestRetractLastSubjectTriple(t *testing.T) {
	s := New("subj", rdf.NewDict())
	s.Add(tri("a", "p", "1"))
	s.Add(tri("b", "p", "2"))
	s.Retract(tri("a", "p", "1"))
	if n := len(s.Subjects()); n != 1 {
		t.Fatalf("Subjects = %d after retracting a's only triple, want 1", n)
	}
	s.Add(tri("a", "q", "3"))
	s.Add(tri("a", "r", "4"))
	if n := len(s.Subjects()); n != 2 {
		t.Fatalf("Subjects = %d after re-add, want 2 (no duplicates)", n)
	}
}
