package store

import (
	"strings"
	"testing"

	"alex/internal/rdf"
)

// TestGenerationBumps is the invalidation contract of Generation: every
// mutation path that changes the store bumps the counter exactly once per
// call, and calls that change nothing (duplicate adds, all-duplicate or
// empty batches) leave it untouched — so a cached result tagged
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
			// mutations (the duplicate-add and empty-batch rows).
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
