package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alex/internal/rdf"
)

// TestGenerationBumps is the invalidation contract of Generation: it is
// the log length, so after every mutation path it equals Len(), and a call
// that adds nothing (a duplicate add, an all-duplicate or empty batch)
// leaves it untouched — a cached result tagged with a generation stays
// valid exactly as long as the data it was computed from.
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
			bump: 2, // one per triple added
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
			bump: 2,
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
			if got := s.Generation() - before; got != tc.bump {
				t.Errorf("generation moved by %d, want %d", got, tc.bump)
			}
			if g, n := s.Generation(), s.Len(); g != uint64(n) {
				t.Errorf("generation %d, Len %d", g, n)
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
					t.Error("no-op mutation moved the generation on repeat")
				}
			}
		})
	}
}

// TestOldCheckpointGenerationIgnored: a checkpoint whose header holds a
// nonzero generation, as checkpoints kept a mutation counter there, still
// recovers with Generation() == Len(): the field is read and ignored.
func TestOldCheckpointGenerationIgnored(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		d.Store().Add(tri(fmt.Sprintf("s%d", i), "p", "v"))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Store().Add(tri("after", "p", "v")) // replayed from the log
	d.Kill()

	// Header layout: magic, u16 version, u32 length, then the uvarint
	// name length, the name and the generation, then the header's CRC.
	path := filepath.Join(dir, "ds.snap")
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headAt := len(snapshotMagic) + 2 + 4
	head := snap[headAt : headAt+int(binary.LittleEndian.Uint32(snap[headAt-4:]))]
	if head[0] != 2 || string(head[1:3]) != "ds" || head[3] != 0 {
		t.Fatalf("unexpected header %x", head)
	}
	head[3] = 3 // the mutation count an old checkpoint would hold
	binary.LittleEndian.PutUint32(snap[headAt+len(head):], crc32.Checksum(head, castagnoli))
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Kill()
	if !r.RecoveryStats().SnapshotLoaded {
		t.Fatal("recovery loaded no snapshot")
	}
	if g, n := r.Store().Generation(), r.Store().Len(); n != 7 || g != uint64(n) {
		t.Errorf("recovered generation %d, Len %d, want 7 and 7", g, n)
	}
}
