package store

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alex/internal/rdf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.snap and golden.wal from the current writers")

// goldenStore is the fixed fixture content: every term kind and a
// duplicate add.
func goldenStore() *Store {
	s := New("golden", rdf.NewDict())
	for i := 0; i < 12; i++ {
		if i == 2 {
			continue // e2 p2 v2: not in the fixture
		}
		s.Add(tri(fmt.Sprintf("e%d", i%5), fmt.Sprintf("p%d", i%3), fmt.Sprintf("v%d", i)))
	}
	s.Add(triIRI("e0", "link", "e1"))
	s.Add(rdf.Triple{S: rdf.NewIRI("http://x/e1"), P: rdf.NewIRI("http://x/label"), O: rdf.NewLangString("eins", "de")})
	s.Add(rdf.Triple{S: rdf.NewBlank("b0"), P: rdf.NewIRI("http://x/count"), O: rdf.NewTyped("7", rdf.XSDInteger)})
	s.Add(tri("e0", "p0", "v0")) // duplicate: ignored
	return s
}

// TestGoldenSnapshot is the format-compatibility gate: HEAD must still
// open the committed fixture, and HEAD's writer must still produce its
// exact bytes — so any encoding change, version bump included, fails
// until the fixture is regenerated (go test ./internal/store/ -run
// TestGoldenSnapshot -update) and the change is documented in FORMAT.md.
func TestGoldenSnapshot(t *testing.T) {
	path := filepath.Join("testdata", "golden.snap")
	var buf bytes.Buffer
	if err := goldenStore().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update): %v", err)
	}
	if got := binary.LittleEndian.Uint16(want[8:10]); got != snapshotVersion {
		t.Fatalf("fixture is format version %d, code reads version %d: regenerate the fixture and add a FORMAT.md note", got, snapshotVersion)
	}
	st, err := ReadSnapshot(bytes.NewReader(want), rdf.NewDict())
	if err != nil {
		t.Fatalf("HEAD cannot open the committed golden snapshot: %v", err)
	}
	if got, ref := st.Len(), goldenStore().Len(); got != ref {
		t.Errorf("fixture decoded to %d triples, want %d", got, ref)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot encoding changed: writer output (%d bytes) differs from the committed fixture (%d bytes); bump the format deliberately — regenerate with -update and document it in FORMAT.md", buf.Len(), len(want))
	}
}

// TestSnapshotFormatNote keeps FORMAT.md honest: the current version must
// have a section there, so a silent version bump cannot land without a
// format note.
func TestSnapshotFormatNote(t *testing.T) {
	b, err := os.ReadFile("FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("## Version %d", snapshotVersion)
	if !strings.Contains(string(b), want) {
		t.Fatalf("FORMAT.md lacks a %q section: document the format before shipping it", want)
	}
}

// goldenWALScript is the fixed mutation script behind testdata/golden.wal:
// single adds over every term kind, a duplicate add (which logs nothing),
// an AddIDs batch with an in-batch duplicate, and a Load batch holding an
// already stored triple.
func goldenWALScript(s *Store) {
	s.Add(tri("w0", "name", "plain"))
	s.Add(triIRI("w0", "link", "w1"))
	s.Add(rdf.Triple{S: rdf.NewBlank("b0"), P: rdf.NewIRI("http://x/label"), O: rdf.NewLangString("eins", "de")})
	s.Add(rdf.Triple{S: rdf.NewIRI("http://x/w1"), P: rdf.NewIRI("http://x/count"), O: rdf.NewTyped("7", rdf.XSDInteger)})
	s.Add(tri("w0", "name", "plain")) // duplicate: no record
	d := s.Dict()
	var ids []rdf.TripleID
	for _, tr := range []rdf.Triple{
		tri("w2", "name", "zwei"),
		triIRI("w2", "link", "w0"),
		tri("w2", "name", "zwei"), // in-batch duplicate
		{S: rdf.NewIRI("http://x/w2"), P: rdf.NewIRI("http://x/knows"), O: rdf.NewBlank("b0")},
	} {
		ids = append(ids, rdf.TripleID{S: d.Intern(tr.S), P: d.Intern(tr.P), O: d.Intern(tr.O)})
	}
	s.AddIDs(ids)
	s.Load([]rdf.Triple{
		tri("w3", "name", "drei"),
		triIRI("w0", "link", "w1"), // already stored
		{S: rdf.NewBlank("b1"), P: rdf.NewIRI("http://x/count"), O: rdf.NewTyped("3.5", rdf.XSDDouble)},
		{S: rdf.NewIRI("http://x/w3"), P: rdf.NewIRI("http://x/label"), O: rdf.NewLangString("three", "en")},
	})
}

// TestGoldenWAL is the log's format-compatibility gate: HEAD's writer
// must produce the committed log byte for byte, and recovering that log
// alone must reproduce the script's store, generation included. Regenerate
// with go test ./internal/store/ -run TestGoldenWAL -update, and document
// the change in FORMAT.md.
func TestGoldenWAL(t *testing.T) {
	path := filepath.Join("testdata", "golden.wal")
	dir := t.TempDir()
	d, err := OpenDurable("golden", rdf.NewDict(), DurableOptions{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	goldenWALScript(d.Store())
	wantSnap, wantGen := snapshotBytes(t, d.Store()), d.Store().Generation()
	d.Kill()
	got, err := os.ReadFile(filepath.Join(dir, "golden.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wal encoding changed: writer output (%d bytes) differs from the committed fixture (%d bytes); regenerate with -update and document it in FORMAT.md", len(got), len(want))
	}

	rdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(rdir, "golden.wal"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDurable("golden", rdf.NewDict(), DurableOptions{Dir: rdir})
	if err != nil {
		t.Fatalf("HEAD cannot recover the committed golden log: %v", err)
	}
	defer r.Kill()
	if rec := r.RecoveryStats(); rec.WALRecords != 6 || rec.TornBytes != 0 {
		t.Errorf("recovery = %+v, want 6 records and no torn tail", rec)
	}
	if !bytes.Equal(snapshotBytes(t, r.Store()), wantSnap) {
		t.Error("recovered store differs from the script's store")
	}
	if got := r.Store().Generation(); got != wantGen {
		t.Errorf("recovered generation %d, want %d", got, wantGen)
	}
}
