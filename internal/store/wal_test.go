package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alex/internal/rdf"
)

// fileSize returns the current size of path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestWALTornTailEveryOffset truncates the log at every byte offset —
// covering every position inside the final (and every other) record —
// and requires recovery to succeed cleanly, yielding exactly the store
// of the records that fit entirely before the cut.
func TestWALTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "ds.wal")

	// bounds[k] is the log size after k adds; refs[k] the reference
	// snapshot of the first k adds.
	const adds = 12
	bounds := []int64{fileSize(t, walPath)}
	ref := New("ds", rdf.NewDict())
	refs := [][]byte{snapshotBytes(t, ref)}
	for i := 0; i < adds; i++ {
		tr := tri(fmt.Sprintf("s%d", i%5), "p", fmt.Sprintf("v%d", i))
		if !d.Store().Add(tr) {
			t.Fatalf("add %d was a duplicate", i)
		}
		ref.Add(tr)
		bounds = append(bounds, fileSize(t, walPath))
		refs = append(refs, snapshotBytes(t, ref))
	}
	d.Kill()
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	cutDir := t.TempDir()
	cutWAL := filepath.Join(cutDir, "ds.wal")
	for cut := 0; cut <= len(walBytes); cut++ {
		if err := os.WriteFile(cutWAL, walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d2, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: cutDir, Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		k := 0
		for k+1 < len(bounds) && bounds[k+1] <= int64(cut) {
			k++
		}
		if got := snapshotBytes(t, d2.Store()); !bytes.Equal(got, refs[k]) {
			t.Fatalf("cut %d: recovered store differs from %d-add reference", cut, k)
		}
		if g, w := d2.Store().Generation(), uint64(k); g != w {
			t.Fatalf("cut %d: generation %d, want %d", cut, g, w)
		}
		rec := d2.RecoveryStats()
		if int64(cut) > bounds[k] && rec.TornBytes != int64(cut)-bounds[k] {
			t.Fatalf("cut %d: torn bytes %d, want %d", cut, rec.TornBytes, int64(cut)-bounds[k])
		}
		d2.Kill()
	}
}

// walRecord frames a single-triple payload under op as one log record
// with a valid length and checksum.
func walRecord(op byte, tr rdf.Triple) []byte {
	payload := []byte{op, 1}
	for _, term := range []rdf.Term{tr.S, tr.P, tr.O} {
		payload = rdf.AppendTermBinary(payload, term)
	}
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, castagnoli))
	return append(rec, payload...)
}

// TestWALUndecodableRecordFails: a record whose length and checksum hold
// but whose payload does not decode cannot come from a crash mid-append,
// so recovery must fail naming its offset and op, leaving the log as it
// was, instead of truncating it and the valid records after it. Op 9 was
// never assigned; op 3 was a retraction, which no build writes.
func TestWALUndecodableRecordFails(t *testing.T) {
	for _, op := range []byte{9, 3} {
		dir := t.TempDir()
		d, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir, Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		d.Store().Add(tri("a", "p", "1"))
		d.Store().Add(tri("b", "p", "2"))
		d.Kill()
		walPath := filepath.Join(dir, "ds.wal")
		good, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		log := append(append(good, walRecord(op, tri("a", "p", "1"))...), walRecord(walOpAdd, tri("c", "p", "3"))...)
		if err := os.WriteFile(walPath, log, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir, Fsync: FsyncOff})
		if err == nil {
			r.Kill()
			t.Errorf("op %d: recovery succeeded with %+v, want an error", op, r.RecoveryStats())
			continue
		}
		if want := fmt.Sprintf("offset %d (op %d)", len(good), op); !strings.Contains(err.Error(), want) {
			t.Errorf("op %d: error %q does not name %q", op, err, want)
		}
		if after, err := os.ReadFile(walPath); err != nil || !bytes.Equal(after, log) {
			t.Errorf("op %d: failed recovery changed the log (%d bytes, was %d; %v)", op, len(after), len(log), err)
		}
	}
}

// TestWALReplayAfterSnapshotEqualsFromScratch drives the same mutation
// sequence through a store that checkpoints halfway and one that never
// does; after a kill, both recoveries must converge to the same bytes and
// generation.
func TestWALReplayAfterSnapshotEqualsFromScratch(t *testing.T) {
	script := func(s *Store, at int, hook func()) {
		for i := 0; i < 30; i++ {
			if i == at {
				hook()
			}
			switch {
			case i%5 == 4:
				ids := make([]rdf.TripleID, 0, 6)
				for j := 0; j < 6; j++ {
					tr := triIRI(fmt.Sprintf("b%d", (i+j)%4), "link", fmt.Sprintf("t%d", j%3))
					ids = append(ids, rdf.TripleID{
						S: s.Dict().Intern(tr.S),
						P: s.Dict().Intern(tr.P),
						O: s.Dict().Intern(tr.O),
					})
				}
				s.AddIDs(ids)
			default:
				s.Add(tri(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("v%d", i)))
			}
		}
	}

	dirMid, dirNone := t.TempDir(), t.TempDir()
	dMid, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dirMid})
	if err != nil {
		t.Fatal(err)
	}
	dNone, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dirNone})
	if err != nil {
		t.Fatal(err)
	}
	script(dMid.Store(), 15, func() {
		if err := dMid.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	script(dNone.Store(), -1, nil)
	preBytes := snapshotBytes(t, dMid.Store())
	preGen := dMid.Store().Generation()
	dMid.Kill()
	dNone.Kill()

	rMid, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dirMid})
	if err != nil {
		t.Fatal(err)
	}
	rNone, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dirNone})
	if err != nil {
		t.Fatal(err)
	}
	defer rMid.Kill()
	defer rNone.Kill()
	if !rMid.RecoveryStats().SnapshotLoaded {
		t.Error("mid-checkpoint recovery loaded no snapshot")
	}
	if rNone.RecoveryStats().SnapshotLoaded {
		t.Error("from-scratch recovery loaded a snapshot")
	}
	gMid, gNone := snapshotBytes(t, rMid.Store()), snapshotBytes(t, rNone.Store())
	if !bytes.Equal(gMid, preBytes) {
		t.Error("replay-after-snapshot differs from the pre-crash store")
	}
	if !bytes.Equal(gNone, preBytes) {
		t.Error("replay-from-scratch differs from the pre-crash store")
	}
	if g := rMid.Store().Generation(); g != preGen {
		t.Errorf("replay-after-snapshot generation %d, want %d", g, preGen)
	}
	if g := rNone.Store().Generation(); g != preGen {
		t.Errorf("replay-from-scratch generation %d, want %d", g, preGen)
	}
}

// TestWALGenerationMonotonicAcrossRecovery: the generation counter never
// moves backwards through kill/recover cycles, and each recovery resumes
// at exactly the pre-crash value.
func TestWALGenerationMonotonicAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	last := uint64(0)
	for cycle := 0; cycle < 4; cycle++ {
		for i := 0; i < 5; i++ {
			d.Store().Add(tri(fmt.Sprintf("c%ds%d", cycle, i), "p", "v"))
			if g := d.Store().Generation(); g <= last {
				t.Fatalf("cycle %d: generation %d not above %d", cycle, g, last)
			} else {
				last = g
			}
		}
		if cycle == 1 {
			// A checkpoint must not disturb the counter.
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if g := d.Store().Generation(); g != last {
				t.Fatalf("checkpoint moved generation from %d to %d", last, g)
			}
		}
		pre := d.Store().Generation()
		d.Kill()
		d, err = OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if g := d.Store().Generation(); g != pre {
			t.Fatalf("cycle %d: recovered generation %d, want %d", cycle, g, pre)
		}
	}
	d.Kill()
}

func TestParseFsyncMode(t *testing.T) {
	for in, want := range map[string]FsyncMode{"": FsyncBatch, "batch": FsyncBatch, "always": FsyncAlways, "off": FsyncOff} {
		got, err := ParseFsyncMode(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Error("ParseFsyncMode accepted an unknown mode")
	}
}
