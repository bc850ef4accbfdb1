package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"alex/internal/obs"
	"alex/internal/rdf"
)

func TestDurableCloseAndReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.Store().Add(tri(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("v%d", i)))
	}
	want := snapshotBytes(t, d.Store())
	wantGen := d.Store().Generation()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	r, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Kill()
	rec := r.RecoveryStats()
	if !rec.SnapshotLoaded || rec.WALRecords != 0 {
		t.Errorf("clean shutdown should recover snapshot-only, got %+v", rec)
	}
	if got := snapshotBytes(t, r.Store()); !bytes.Equal(got, want) {
		t.Error("reopened store differs")
	}
	if got := r.Store().Generation(); got != wantGen {
		t.Errorf("generation %d, want %d", got, wantGen)
	}
}

func TestDurableReplayMixedMutations(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ref := New("ds", rdf.NewDict())
	both := func(f func(s *Store)) { f(d.Store()); f(ref) }
	both(func(s *Store) { s.Add(tri("a", "p", "1")) })
	both(func(s *Store) { s.Add(tri("a", "p", "1")) }) // duplicate: no record
	both(func(s *Store) {
		ids := make([]rdf.TripleID, 0, 8)
		for j := 0; j < 8; j++ {
			tr := triIRI(fmt.Sprintf("b%d", j%3), "link", "t")
			ids = append(ids, rdf.TripleID{
				S: s.Dict().Intern(tr.S), P: s.Dict().Intern(tr.P), O: s.Dict().Intern(tr.O),
			})
		}
		s.AddIDs(ids) // in-batch duplicates exercised too
	})
	both(func(s *Store) { s.AddIDs(nil) }) // empty batch: no record, no bump
	d.Kill()

	r, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Kill()
	if got, want := snapshotBytes(t, r.Store()), snapshotBytes(t, ref); !bytes.Equal(got, want) {
		t.Error("recovered store differs from reference")
	}
	if got, want := r.Store().Generation(), ref.Generation(); got != want {
		t.Errorf("generation %d, want %d", got, want)
	}
}

func TestDurableRotation(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	d, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir, RotateBytes: 512, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "ds.wal")
	rotated := false
	for i := 0; i < 200 && !rotated; i++ {
		d.Store().Add(tri(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("v%d", i)))
		rotated, err = d.MaybeRotate()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !rotated {
		t.Fatal("log never reached the rotation threshold")
	}
	if got := fileSize(t, walPath); got != int64(walHeaderSize) {
		t.Errorf("rotated log is %d bytes, want bare header (%d)", got, walHeaderSize)
	}
	if got := reg.Counter(obs.StoreWALRotations).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.StoreWALRotations, got)
	}
	if reg.Counter(obs.StoreWALAppends).Value() == 0 {
		t.Errorf("%s never incremented", obs.StoreWALAppends)
	}
	want := snapshotBytes(t, d.Store())
	d.Kill()

	r, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Kill()
	if got := snapshotBytes(t, r.Store()); !bytes.Equal(got, want) {
		t.Error("post-rotation recovery differs")
	}
}

func TestDurableStaleWALDiscarded(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d.Store().Add(tri("a", "p", "1"))
	walPath := filepath.Join(dir, "ds.wal")
	oldWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, d.Store())
	d.Kill()
	// Simulate a crash between the checkpoint's snapshot rename and its
	// log reset: the old (already-folded-in) log sits next to the new
	// snapshot. Recovery must discard it, not double-apply.
	if err := os.WriteFile(walPath, oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Kill()
	rec := r.RecoveryStats()
	if !rec.WALDiscarded || rec.WALRecords != 0 {
		t.Errorf("stale log should be discarded, got %+v", rec)
	}
	if got := snapshotBytes(t, r.Store()); !bytes.Equal(got, want) {
		t.Error("stale-log recovery differs from checkpoint image")
	}
}

func TestDurableFutureWALRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // snapshot at epoch 1
		t.Fatal(err)
	}
	d.Kill()
	// A log claiming an epoch the snapshot never reached is corruption,
	// not something recovery can silently reconcile.
	if err := os.WriteFile(filepath.Join(dir, "ds.wal"), walHeader(99), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir}); err == nil {
		t.Fatal("future-epoch log accepted")
	}
}

func TestAttachDurable(t *testing.T) {
	dir := t.TempDir()
	s := New("ds", rdf.NewDict())
	for i := 0; i < 20; i++ {
		s.Add(tri(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("v%d", i)))
	}
	d, err := AttachDurable(s, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Mutations after attach land in the log.
	s.Add(tri("post", "p", "attach"))
	s.Add(tri("post", "p", "again"))
	want := snapshotBytes(t, s)
	wantGen := s.Generation()
	d.Kill()

	r, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Kill()
	rec := r.RecoveryStats()
	if !rec.SnapshotLoaded || rec.WALRecords != 2 {
		t.Errorf("want snapshot + 2 replayed records, got %+v", rec)
	}
	if got := snapshotBytes(t, r.Store()); !bytes.Equal(got, want) {
		t.Error("recovered store differs")
	}
	if got := r.Store().Generation(); got != wantGen {
		t.Errorf("generation %d, want %d", got, wantGen)
	}
}

func TestOpenDurableValidation(t *testing.T) {
	if _, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{}); err == nil {
		t.Error("OpenDurable accepted an empty Dir")
	}
	if _, err := AttachDurable(New("ds", rdf.NewDict()), DurableOptions{}); err == nil {
		t.Error("AttachDurable accepted an empty Dir")
	}
	// A name mismatch between the snapshot on disk and the requested
	// store is an error, not a silent rename.
	dir := t.TempDir()
	d, err := OpenDurable("one", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d.Store().Add(tri("a", "p", "1"))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "one.snap"), filepath.Join(dir, "two.snap")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable("two", rdf.NewDict(), DurableOptions{Dir: dir}); err == nil {
		t.Error("snapshot name mismatch accepted")
	}
}

func TestDurableCheckpointConcurrentWithReaders(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable("ds", rdf.NewDict(), DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	s := d.Store()
	for i := 0; i < 500; i++ {
		s.Add(tri(fmt.Sprintf("s%d", i), "p", "v"))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = s.Len()
			_ = s.Match(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm)
		}
	}()
	for i := 0; i < 5; i++ {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
