package store

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"alex/internal/rdf"
)

func TestSnapshotRoundTrip(t *testing.T) {
	src := New("ds", rdf.NewDict())
	src.Add(tri("a", "p", "1"))
	src.Add(tri("a", "q", "2"))
	src.Add(triIRI("b", "p", "c"))
	src.Add(rdf.Triple{S: rdf.NewIRI("http://x/d"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLangString("héllo", "fr")})

	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Restore into a completely fresh dictionary.
	restored, err := ReadSnapshot(&buf, rdf.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name() != "ds" {
		t.Errorf("Name = %q", restored.Name())
	}
	if restored.Len() != src.Len() {
		t.Fatalf("Len = %d, want %d", restored.Len(), src.Len())
	}
	for _, tr := range src.MatchTerms(rdf.Term{}, rdf.Term{}, rdf.Term{}) {
		if !restored.Contains(tr) {
			t.Errorf("restored store missing %v", tr)
		}
	}
	// Insertion order (and thus Subjects order) is preserved.
	wantSubjects := src.Subjects()
	gotSubjects := restored.Subjects()
	if len(wantSubjects) != len(gotSubjects) {
		t.Fatalf("subject count %d vs %d", len(gotSubjects), len(wantSubjects))
	}
	for i := range wantSubjects {
		w := src.Dict().Term(wantSubjects[i])
		g := restored.Dict().Term(gotSubjects[i])
		if w != g {
			t.Errorf("subject %d: %v vs %v", i, g, w)
		}
	}
}

func TestSnapshotSharedDict(t *testing.T) {
	dict := rdf.NewDict()
	src := New("a", dict)
	src.Add(tri("s", "p", "v"))
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Restoring into the SAME dict reuses interned ids.
	restored, err := ReadSnapshot(&buf, dict)
	if err != nil {
		t.Fatal(err)
	}
	sID, _ := dict.Lookup(rdf.NewIRI("http://x/s"))
	if _, ok := restored.Entity(sID); !ok {
		t.Error("restored store does not share ids with the dictionary")
	}
}

// TestSharedDictRestoreMatchesColdLoad: two stores cold-loaded into one
// dictionary, snapshotted, and restored in the same order into a fresh
// shared dictionary get back every term id the cold load assigned, and
// re-emit byte-identical snapshots. The first restore takes the empty-dict
// bulk path, the second the shared-dict InternAll path; the last case has
// the second store bring more than 4,096 new terms.
func TestSharedDictRestoreMatchesColdLoad(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		sizes  [2]int // genNTriples statements per store, seeds 1 and 2
		minNew int    // terms the second store must add
	}{
		{[2]int{300, 300}, 1},
		{[2]int{3000, 3000}, 1},
		{[2]int{20000, 60000}, 4097},
	} {
		t.Run(fmt.Sprintf("%d+%d", tc.sizes[0], tc.sizes[1]), func(t *testing.T) {
			cold := rdf.NewDict()
			var snaps [2][]byte
			firstLen := 0
			for i, n := range tc.sizes {
				st := New(fmt.Sprintf("ds%d", i), cold)
				if _, err := LoadNTriples(st, strings.NewReader(genNTriples(n, int64(i+1))), LoadOptions{}); err != nil {
					t.Fatal(err)
				}
				snaps[i] = snapshotBytes(t, st)
				if i == 0 {
					firstLen = cold.Len()
				}
			}
			if added := cold.Len() - firstLen; added < tc.minNew {
				t.Fatalf("second store adds %d terms, want at least %d", added, tc.minNew)
			}
			warm := rdf.NewDict()
			for i, snap := range snaps {
				st, err := ReadSnapshot(bytes.NewReader(snap), warm)
				if err != nil {
					t.Fatal(err)
				}
				if got := snapshotBytes(t, st); !bytes.Equal(got, snap) {
					t.Errorf("store %d: restored snapshot differs from the cold load's", i)
				}
			}
			if warm.Len() != cold.Len() {
				t.Fatalf("restored dict holds %d terms, cold load %d", warm.Len(), cold.Len())
			}
			differ, first := 0, rdf.NoTerm
			for id := rdf.TermID(1); int(id) <= cold.Len(); id++ {
				if warm.Term(id) != cold.Term(id) {
					if differ == 0 {
						first = id
					}
					differ++
				}
			}
			if differ > 0 {
				t.Fatalf("%d of %d ids name a different term than in the cold load; first: id %d is %v, was %v",
					differ, cold.Len(), first, warm.Term(first), cold.Term(first))
			}
		})
	}
}

func TestSnapshotCorruptInput(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("not a gob stream"), rdf.NewDict()); err == nil {
		t.Error("corrupt snapshot decoded without error")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := New("empty", rdf.NewDict()).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf, rdf.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 0 || restored.Name() != "empty" {
		t.Errorf("restored = %v", restored.Stats())
	}
}
