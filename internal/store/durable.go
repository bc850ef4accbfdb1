package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"alex/internal/obs"
	"alex/internal/rdf"
)

// Durable couples a Store with its on-disk state: a snapshot file plus a
// write-ahead log in one directory (<dir>/<name>.snap, <dir>/<name>.wal).
// OpenDurable recovers the exact pre-crash store — snapshot, then WAL
// replay, torn tail truncated — and every later mutation is logged before
// it is applied. Checkpoint (and the size-triggered MaybeRotate) folds
// the log into a fresh snapshot.
//
// Atomicity of a checkpoint rests on the rename and the epoch: the new
// snapshot is written to a temp file with epoch E+1 and renamed into
// place, then the log is reset to epoch E+1. A crash between those two
// steps leaves an epoch-E log next to an epoch-E+1 snapshot; recovery
// sees the stale epoch and discards the log instead of double-applying
// records the snapshot already contains.

// DurableOptions configures OpenDurable and AttachDurable.
type DurableOptions struct {
	// Dir is the directory holding the snapshot and log files. Required.
	Dir string
	// Fsync is the WAL fsync policy (default FsyncBatch).
	Fsync FsyncMode
	// FsyncEvery is the FsyncBatch record interval; 0 means 64.
	FsyncEvery int
	// RotateBytes is the log size at which MaybeRotate checkpoints;
	// 0 means 4 MiB.
	RotateBytes int64
	// Obs receives the store.wal.* and store.snapshot.* metrics; nil
	// disables them.
	Obs *obs.Registry
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = defaultFsyncEvery
	}
	if o.RotateBytes <= 0 {
		o.RotateBytes = 4 << 20
	}
	return o
}

// RecoveryStats reports what OpenDurable found on disk.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a snapshot file was restored.
	SnapshotLoaded bool
	// SnapshotTriples is the triple count restored from the snapshot.
	SnapshotTriples int
	// WALRecords and WALTriples count the replayed log records and the
	// triples they carried.
	WALRecords int
	WALTriples int
	// WALDiscarded reports a stale log (epoch older than the snapshot's:
	// a crash hit between a checkpoint's snapshot rename and log reset),
	// whose records the snapshot already contains.
	WALDiscarded bool
	// TornBytes is the length of the truncated torn tail, if any.
	TornBytes int64
}

// Durable manages the on-disk state of one Store.
type Durable struct {
	mu     sync.Mutex
	s      *Store
	wal    *walWriter
	opts   DurableOptions
	snap   string
	epoch  uint64
	rec    RecoveryStats
	closed bool

	cSnapWrites *obs.Counter
	cSnapBytes  *obs.Counter
	cRotations  *obs.Counter
}

// OpenDurable opens (or creates) the durable store name in opts.Dir,
// recovering any existing snapshot and log: the result is the exact store
// a crashed process held — insertion order, subject order and so
// generation included — with durability attached for subsequent mutations.
func OpenDurable(name string, dict *rdf.Dict, opts DurableOptions) (*Durable, error) {
	d, err := newDurable("open", name, opts)
	if err != nil {
		return nil, err
	}

	var (
		s         *Store
		rec       RecoveryStats
		snapEpoch uint64
	)
	sf, err := os.Open(d.snap)
	switch {
	case err == nil:
		dec, derr := newSnapDecoder(sf)
		if derr == nil {
			s, derr = restoreStore(dec, dict)
		}
		cerr := sf.Close()
		if derr != nil {
			return nil, fmt.Errorf("store: open durable %s: snapshot: %w", name, derr)
		}
		if cerr != nil {
			return nil, fmt.Errorf("store: open durable %s: %w", name, cerr)
		}
		if s.Name() != name {
			return nil, fmt.Errorf("store: open durable %s: snapshot holds store %q", name, s.Name())
		}
		snapEpoch = dec.hdr.WALEpoch
		rec.SnapshotLoaded = true
		rec.SnapshotTriples = s.Len()
	case os.IsNotExist(err):
		s = New(name, dict)
	default:
		return nil, fmt.Errorf("store: open durable %s: %w", name, err)
	}

	w, err := d.openWAL(name, dict, 0)
	if err != nil {
		return nil, fmt.Errorf("store: open durable %s: %w", name, err)
	}
	if err := recoverWAL(w.f, w, s, snapEpoch, &rec); err != nil {
		_ = w.f.Close()
		return nil, fmt.Errorf("store: open durable %s: %w", name, err)
	}
	if reg := d.opts.Obs; reg != nil {
		reg.Counter(obs.StoreWALReplayRecords).Add(int64(rec.WALRecords))
		reg.Counter(obs.StoreWALTruncatedBytes).Add(rec.TornBytes)
		reg.Counter(obs.StoreSnapshotLoads).Inc()
		reg.Counter(obs.StoreSnapshotLoadTriples).Add(int64(rec.SnapshotTriples))
	}
	s.setWAL(w)
	d.s, d.wal, d.epoch, d.rec = s, w, snapEpoch, rec
	return d, nil
}

// recoverWAL brings the freshly opened log file wf and writer w in line
// with the snapshot at snapEpoch: replaying a matching-epoch log into s,
// discarding a stale one, or rejecting a future one.
func recoverWAL(wf *os.File, w *walWriter, s *Store, snapEpoch uint64, rec *RecoveryStats) error {
	st, err := wf.Stat()
	if err != nil {
		return err
	}
	if st.Size() < int64(walHeaderSize) {
		// Fresh file, or a crash during initial creation: no records yet.
		return w.reset(snapEpoch)
	}
	epoch, ok, err := readWALHeader(wf)
	if err != nil {
		return err
	}
	if !ok || epoch < snapEpoch {
		// Stale: the snapshot already contains these records (crash
		// between a checkpoint's rename and log reset). Discard.
		if epoch < snapEpoch {
			rec.WALDiscarded = true
		}
		return w.reset(snapEpoch)
	}
	if epoch > snapEpoch {
		return fmt.Errorf("wal epoch %d ahead of snapshot epoch %d: inconsistent durable state", epoch, snapEpoch)
	}
	stats, err := replayWAL(wf, func(op byte, triples []rdf.Triple) error {
		switch op {
		case walOpAdd:
			s.Add(triples[0])
		case walOpBatch:
			s.Load(triples)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rec.WALRecords = stats.records
	rec.WALTriples = stats.triples
	rec.TornBytes = stats.tornBytes
	// Position the writer at the end of the valid records.
	end, err := wf.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.epoch = snapEpoch
	w.size = end
	w.mu.Unlock()
	return nil
}

// AttachDurable starts durability for an already-populated store: it
// checkpoints s into opts.Dir (overwriting any prior state there) and
// attaches a fresh log, so every later mutation is recoverable.
func AttachDurable(s *Store, opts DurableOptions) (*Durable, error) {
	d, err := newDurable("attach", s.Name(), opts)
	if err != nil {
		return nil, err
	}
	d.s = s
	w, err := d.openWAL(s.Name(), s.Dict(), os.O_TRUNC)
	if err != nil {
		return nil, fmt.Errorf("store: attach durable %s: %w", s.Name(), err)
	}
	d.wal = w
	if err := d.Checkpoint(); err != nil {
		_ = w.f.Close()
		return nil, err
	}
	s.setWAL(w)
	return d, nil
}

// newDurable is the setup OpenDurable and AttachDurable share for the
// store name: default opts, require and create opts.Dir, and resolve the
// snapshot instruments. op ("open" or "attach") names the caller in errors.
func newDurable(op, name string, opts DurableOptions) (*Durable, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: %s durable %s: DurableOptions.Dir is required", op, name)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %s durable %s: %w", op, name, err)
	}
	d := &Durable{opts: opts, snap: filepath.Join(opts.Dir, name+".snap")}
	if reg := opts.Obs; reg != nil {
		d.cSnapWrites = reg.Counter(obs.StoreSnapshotWrites)
		d.cSnapBytes = reg.Counter(obs.StoreSnapshotWriteBytes)
		d.cRotations = reg.Counter(obs.StoreWALRotations)
	}
	return d, nil
}

// openWAL opens the log of the store name in d's directory (flag adds to
// O_RDWR|O_CREATE) behind a writer that encodes terms through dict.
func (d *Durable) openWAL(name string, dict *rdf.Dict, flag int) (*walWriter, error) {
	wf, err := os.OpenFile(filepath.Join(d.opts.Dir, name+".wal"), os.O_RDWR|os.O_CREATE|flag, 0o644)
	if err != nil {
		return nil, err
	}
	w := &walWriter{f: wf, dict: dict, mode: d.opts.Fsync, every: d.opts.FsyncEvery, buf: make([]byte, 0, 4096)}
	if reg := d.opts.Obs; reg != nil {
		w.cAppends = reg.Counter(obs.StoreWALAppends)
		w.cBytes = reg.Counter(obs.StoreWALAppendBytes)
		w.cFsyncs = reg.Counter(obs.StoreWALFsyncs)
	}
	return w, nil
}

// Store returns the managed store.
func (d *Durable) Store() *Store { return d.s }

// RecoveryStats reports what OpenDurable found on disk; zero for a store
// attached with AttachDurable.
func (d *Durable) RecoveryStats() RecoveryStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rec
}

// Err returns the log's sticky I/O error, if any append or fsync failed
// since the last successful checkpoint.
func (d *Durable) Err() error { return d.wal.stickyErr() }

// Checkpoint folds the current store image and log into a fresh snapshot:
// temp write, fsync, rename, log reset — all while holding the store's
// read lock, so no mutation can slip between the image and the reset.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("store: durable store is closed")
	}
	return d.checkpointLocked()
}

func (d *Durable) checkpointLocked() error {
	next := d.epoch + 1
	var cw countingWriter
	d.s.mu.RLock()
	err := WriteFile(d.snap, func(w io.Writer) error {
		cw.w = w
		return d.s.writeSnapshotLocked(&cw, next)
	})
	if err == nil {
		err = d.wal.reset(next)
	}
	d.s.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", d.s.Name(), err)
	}
	d.epoch = next
	d.cSnapWrites.Inc()
	d.cSnapBytes.Add(cw.n)
	return nil
}

// WriteFile replaces path with what write writes, crash-safely: into
// path+".tmp", synced, closed and renamed over path. On any failure the
// temporary file is removed and path is left whole, as it was.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if err = errors.Join(err, f.Close()); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: path is what counts
	}
	return err
}

// MaybeRotate checkpoints when the log has grown past RotateBytes,
// reporting whether it did. sparqld's rotation loop and the traffic
// simulator's round boundary call it; the size trigger keeps rotation
// deterministic for the simulator.
func (d *Durable) MaybeRotate() (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, errors.New("store: durable store is closed")
	}
	if d.wal.sizeNow() < d.opts.RotateBytes {
		return false, nil
	}
	if err := d.checkpointLocked(); err != nil {
		return false, err
	}
	d.cRotations.Inc()
	return true, nil
}

// Close checkpoints and releases the durable state. After Close the store
// remains usable in memory but is no longer logged. Closing twice is a
// no-op.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.checkpointLocked()
	d.s.setWAL(nil)
	if cerr := d.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// Kill abruptly severs the durable state: no checkpoint, no fsync — the
// on-disk bytes are left exactly as SIGKILL would leave them. It exists
// for crash testing (the simulator's crash_restart op) and for abandoning
// a store whose cold start failed; production shutdown uses Close.
func (d *Durable) Kill() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	d.s.setWAL(nil)
	d.wal.kill()
}

// countingWriter counts bytes for the snapshot write metrics.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
