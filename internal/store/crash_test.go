//go:build unix

package store

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"alex/internal/rdf"
)

// Kill-9 crash-recovery matrix. TestCrashRecoveryMatrix re-executes this
// test binary as a child process that applies a deterministic mutation
// script against a durable store and SIGKILLs itself — no deferred
// cleanup, no Close, exactly the crash the WAL exists for. The parent
// recovers the directory and requires the result to be byte-identical
// (WriteSnapshot image) and generation-identical to an in-process
// reference store that ran the same script. It then recovers a copy of
// the killed directory into a dictionary that already holds another
// store's terms, as a durable federation's second member is, and requires
// the same. Modes:
//
//	snapshot — child checkpoints after the script: snapshot-only recovery
//	wal      — child never checkpoints: full replay from an empty store
//	tail     — child checkpoints mid-script: snapshot + log-tail replay
//
// CRASH_MODE selects a single mode (the CI matrix runs one per job).

// crashOps is the deterministic script: single adds, duplicate adds and
// bulk batches with in-batch duplicates.
func crashOps() []func(s *Store) {
	var ops []func(s *Store)
	for i := 0; i < 40; i++ {
		i := i
		ops = append(ops, func(s *Store) {
			s.Add(tri(fmt.Sprintf("s%d", i%13), fmt.Sprintf("p%d", i%5), fmt.Sprintf("v%d", i)))
		})
	}
	ops = append(ops,
		func(s *Store) { s.Add(tri("s0", "p0", "v0")) }, // duplicate: no-op
		func(s *Store) {
			ids := make([]rdf.TripleID, 0, 64)
			for j := 0; j < 64; j++ {
				tr := triIRI(fmt.Sprintf("b%d", j%17), "link", fmt.Sprintf("t%d", j%6))
				ids = append(ids, rdf.TripleID{
					S: s.Dict().Intern(tr.S), P: s.Dict().Intern(tr.P), O: s.Dict().Intern(tr.O),
				})
			}
			s.AddIDs(ids)
		},
	)
	for i := 0; i < 20; i++ {
		i := i
		ops = append(ops, func(s *Store) {
			s.Add(tri(fmt.Sprintf("z%d", i%9), "p0", fmt.Sprintf("w%d", i)))
		})
	}
	return ops
}

// TestCrashChild is the re-executed child; it skips unless spawned by
// TestCrashRecoveryMatrix.
func TestCrashChild(t *testing.T) {
	if os.Getenv("ALEX_CRASH_CHILD") == "" {
		t.Skip("crash child: only runs re-executed by TestCrashRecoveryMatrix")
	}
	dir := os.Getenv("ALEX_CRASH_DIR")
	mode := os.Getenv("ALEX_CRASH_MODE")
	d, err := OpenDurable("crash", rdf.NewDict(), DurableOptions{Dir: dir, Fsync: FsyncBatch, FsyncEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	ops := crashOps()
	cpAt := -1
	if mode == "tail" {
		cpAt = len(ops) / 2
	}
	for i, op := range ops {
		if i == cpAt {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		op(d.Store())
	}
	if mode == "snapshot" {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Mark the script complete for the parent, then die uncleanly.
	if err := os.WriteFile(filepath.Join(dir, "ready"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
}

func TestCrashRecoveryMatrix(t *testing.T) {
	modes := []string{"snapshot", "wal", "tail"}
	if m := os.Getenv("CRASH_MODE"); m != "" {
		modes = []string{m}
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChild$")
			cmd.Env = append(os.Environ(),
				"ALEX_CRASH_CHILD=1", "ALEX_CRASH_DIR="+dir, "ALEX_CRASH_MODE="+mode)
			out, _ := cmd.CombinedOutput() // SIGKILL makes the exit error expected
			if _, err := os.Stat(filepath.Join(dir, "ready")); err != nil {
				t.Fatalf("child did not finish its script:\n%s", out)
			}

			// Copy the directory before the first recovery truncates a
			// torn tail or otherwise touches it.
			sharedDir := t.TempDir()
			for _, name := range []string{"crash.snap", "crash.wal"} {
				b, err := os.ReadFile(filepath.Join(dir, name))
				if os.IsNotExist(err) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(sharedDir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			t0 := time.Now()
			d, err := OpenDurable("crash", rdf.NewDict(), DurableOptions{Dir: dir})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer d.Kill()
			recoverMS := float64(time.Since(t0).Microseconds()) / 1000
			rec := d.RecoveryStats()

			ref := New("crash", rdf.NewDict())
			for _, op := range crashOps() {
				op(ref)
			}
			got, want := snapshotBytes(t, d.Store()), snapshotBytes(t, ref)
			if !bytes.Equal(got, want) {
				t.Errorf("recovered store is not byte-identical to the reference (%d vs %d snapshot bytes)", len(got), len(want))
			}
			if g, w := d.Store().Generation(), ref.Generation(); g != w {
				t.Errorf("recovered generation %d, want %d", g, w)
			}

			// The other member's terms overlap the script's (s0, p0, v0)
			// and add their own, so the recovery meets hits and misses.
			shared := rdf.NewDict()
			other := New("other", shared)
			for i := 0; i < 30; i++ {
				other.Add(tri(fmt.Sprintf("s%d", i%4), fmt.Sprintf("p%d", i%7), fmt.Sprintf("v%d", 3*i)))
			}
			sd, err := OpenDurable("crash", shared, DurableOptions{Dir: sharedDir})
			if err != nil {
				t.Fatalf("recovery into a shared dictionary: %v", err)
			}
			defer sd.Kill()
			if got := snapshotBytes(t, sd.Store()); !bytes.Equal(got, want) {
				t.Errorf("recovered into a shared dictionary, the store is not byte-identical to the reference (%d vs %d snapshot bytes)", len(got), len(want))
			}
			if g, w := sd.Store().Generation(), ref.Generation(); g != w {
				t.Errorf("recovered into a shared dictionary: generation %d, want %d", g, w)
			}
			switch mode {
			case "snapshot":
				if !rec.SnapshotLoaded || rec.WALRecords != 0 {
					t.Errorf("snapshot mode: want snapshot-only recovery, got %+v", rec)
				}
			case "wal":
				if rec.SnapshotLoaded || rec.WALRecords == 0 {
					t.Errorf("wal mode: want replay-only recovery, got %+v", rec)
				}
			case "tail":
				if !rec.SnapshotLoaded || rec.WALRecords == 0 {
					t.Errorf("tail mode: want snapshot + tail replay, got %+v", rec)
				}
			}
			// One greppable line per mode for the CI step summary.
			t.Logf("recovery: mode=%s recover_ms=%.2f wal_records=%d wal_triples=%d snapshot_triples=%d torn_bytes=%d triples=%d",
				mode, recoverMS, rec.WALRecords, rec.WALTriples, rec.SnapshotTriples, rec.TornBytes, d.Store().Len())
		})
	}
}
