package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"alex/internal/obs"
	"alex/internal/rdf"
)

// Write-ahead log (see FORMAT.md):
//
//	file header — magic "ALEXWAL1" · version u16 LE · epoch u64 LE
//	record      — length u32 LE · crc32c u32 LE (over payload) · payload
//	payload     — op byte (1 add · 2 batch) · uvarint count
//	              · count triples as binary terms (S, P, O by value)
//
// Every mutating Store entry point appends its record — terms by value,
// so replay interns into whatever dict the recovering process holds —
// with write(2) before the index mutation: a SIGKILLed process loses
// nothing (the page cache survives process death), and the fsync policy
// only governs power-loss durability. Recovery truncates the log at the
// first torn record (a crash mid-append) and replays the rest through the
// normal entry points.
//
// The epoch in the file header ties a log to the snapshot it extends:
// a checkpoint writes the snapshot with epoch E+1, then resets the log to
// epoch E+1. Recovery replays the log only when the epochs match (see
// durable.go).

// FsyncMode selects the WAL fsync policy.
type FsyncMode int

const (
	// FsyncBatch fsyncs after every FsyncEvery records. The trigger is
	// count-based, not timer-based, so the policy is clock-free and the
	// deterministic traffic simulator can run over it.
	FsyncBatch FsyncMode = iota
	// FsyncAlways fsyncs after every record.
	FsyncAlways
	// FsyncOff never fsyncs; the OS flushes on its own schedule.
	FsyncOff
)

// ParseFsyncMode maps the -wal-fsync flag values to a FsyncMode. The
// empty string means FsyncBatch.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "", "batch":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown wal fsync mode %q (want batch, always or off)", s)
}

const (
	walMagic   = "ALEXWAL1"
	walVersion = 1
	// walHeaderSize is magic + version u16 + epoch u64.
	walHeaderSize = len(walMagic) + 2 + 8

	// defaultFsyncEvery is the FsyncBatch record interval when
	// DurableOptions.FsyncEvery is unset.
	defaultFsyncEvery = 64

	walOpAdd   = 1
	walOpBatch = 2

	// maxWALRecordBytes rejects implausible record lengths during replay
	// before they drive an allocation.
	maxWALRecordBytes = 1 << 30
)

// walWriter appends checksummed mutation records to the log file. The
// mutators call logAdd/logBatch under Store.mu before applying the index
// write, so the on-disk log always runs ahead of memory. I/O errors are
// sticky: the first one is kept (surfaced via Durable.Err) and later
// appends become no-ops rather than logging a gapped history.
type walWriter struct {
	mu        sync.Mutex
	f         *os.File
	dict      *rdf.Dict
	mode      FsyncMode
	every     int
	sinceSync int
	epoch     uint64
	size      int64
	err       error
	buf       []byte

	// Counters are nil-safe no-ops when no registry is attached.
	cAppends *obs.Counter
	cBytes   *obs.Counter
	cFsyncs  *obs.Counter
}

// walHeader renders the file header for epoch.
func walHeader(epoch uint64) []byte {
	b := make([]byte, 0, walHeaderSize)
	b = append(b, walMagic...)
	b = binary.LittleEndian.AppendUint16(b, walVersion)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	return b
}

// logAdd appends a single-triple add record.
func (w *walWriter) logAdd(t rdf.TripleID) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.f == nil {
		return
	}
	buf := append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	buf = append(buf, walOpAdd)
	buf = binary.AppendUvarint(buf, 1)
	buf = appendTripleBinary(buf, w.dict, t)
	w.buf = buf
	w.commitRecord()
}

// logBatch appends one record holding the whole (pre-dedup) batch.
func (w *walWriter) logBatch(ids []rdf.TripleID) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.f == nil {
		return
	}
	buf := append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	buf = append(buf, walOpBatch)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, t := range ids {
		buf = appendTripleBinary(buf, w.dict, t)
	}
	w.buf = buf
	w.commitRecord()
}

func appendTripleBinary(buf []byte, dict *rdf.Dict, t rdf.TripleID) []byte {
	buf = rdf.AppendTermBinary(buf, dict.Term(t.S))
	buf = rdf.AppendTermBinary(buf, dict.Term(t.P))
	buf = rdf.AppendTermBinary(buf, dict.Term(t.O))
	return buf
}

// commitRecord fills in the length/crc prelude of w.buf, writes the
// record and applies the fsync policy. Caller holds w.mu.
func (w *walWriter) commitRecord() {
	payload := w.buf[8:]
	binary.LittleEndian.PutUint32(w.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = fmt.Errorf("store: wal append: %w", err)
		return
	}
	w.size += int64(len(w.buf))
	w.cAppends.Inc()
	w.cBytes.Add(int64(len(w.buf)))
	switch w.mode {
	case FsyncAlways:
		w.syncLocked()
	case FsyncBatch:
		w.sinceSync++
		if w.sinceSync >= w.every {
			w.syncLocked()
		}
	}
}

func (w *walWriter) syncLocked() {
	if err := w.f.Sync(); err != nil && w.err == nil {
		w.err = fmt.Errorf("store: wal fsync: %w", err)
	}
	w.sinceSync = 0
	w.cFsyncs.Inc()
}

// reset truncates the log and starts a fresh epoch; the checkpoint path
// calls it after the new snapshot has been renamed into place.
func (w *walWriter) reset(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("store: wal closed")
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: wal reset: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: wal reset: %w", err)
	}
	hdr := walHeader(epoch)
	if _, err := w.f.Write(hdr); err != nil {
		return fmt.Errorf("store: wal reset: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal reset: %w", err)
	}
	w.epoch = epoch
	w.size = int64(len(hdr))
	w.sinceSync = 0
	w.err = nil
	return nil
}

// sizeNow returns the current log size in bytes.
func (w *walWriter) sizeNow() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// stickyErr returns the first append or fsync error, if any.
func (w *walWriter) stickyErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// close syncs and closes the log file.
func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if err != nil {
		return fmt.Errorf("store: wal close: %w", err)
	}
	return nil
}

// kill closes the file descriptor without syncing or checkpointing,
// leaving the on-disk bytes exactly as a SIGKILL would. Crash tests and
// the traffic simulator's crash_restart op use it.
func (w *walWriter) kill() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
}

// walReplayStats summarizes one recovery replay.
type walReplayStats struct {
	records   int
	triples   int
	tornBytes int64
}

// readWALHeader validates the file header of an open log and returns its
// epoch. ok is false when the file is too short to hold a header (a
// crash during initial creation): such a file contains no records and
// the caller reinitializes it.
func readWALHeader(f *os.File) (epoch uint64, ok bool, err error) {
	hdr := make([]byte, walHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("store: reading wal header: %w", err)
	}
	if string(hdr[:len(walMagic)]) != walMagic {
		return 0, false, fmt.Errorf("store: wal: bad magic %q", hdr[:len(walMagic)])
	}
	if v := binary.LittleEndian.Uint16(hdr[len(walMagic):]); v != walVersion {
		return 0, false, fmt.Errorf("store: wal: unsupported version %d", v)
	}
	return binary.LittleEndian.Uint64(hdr[len(walMagic)+2:]), true, nil
}

// replayWAL reads records from f (positioned anywhere; it reads from the
// header end), applies each complete, checksummed record via apply, and
// truncates the file after the last valid record when a record fails its
// length or checksum test — that tail is a crash mid-append, not data
// loss, because the corresponding index write never happened either. A
// checksummed record that does not decode was written whole, by a writer
// this build does not understand: replay fails and leaves the file as it
// is.
func replayWAL(f *os.File, apply func(op byte, triples []rdf.Triple) error) (walReplayStats, error) {
	var stats walReplayStats
	st, err := f.Stat()
	if err != nil {
		return stats, fmt.Errorf("store: wal replay: %w", err)
	}
	fileSize := st.Size()
	if _, err := f.Seek(int64(walHeaderSize), io.SeekStart); err != nil {
		return stats, fmt.Errorf("store: wal replay: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	off := int64(walHeaderSize)
	torn := false
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				break // clean end
			}
			torn = true
			break
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxWALRecordBytes || length > fileSize-off-8 {
			torn = true
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			torn = true
			break
		}
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			torn = true
			break
		}
		op, triples, err := decodeWALPayload(payload)
		if err != nil {
			return stats, fmt.Errorf("store: wal replay: record at offset %d (op %d) does not decode: %w", off, payload[0], err)
		}
		if err := apply(op, triples); err != nil {
			return stats, fmt.Errorf("store: wal replay: %w", err)
		}
		off += 8 + length
		stats.records++
		stats.triples += len(triples)
	}
	if torn {
		stats.tornBytes = fileSize - off
		if err := f.Truncate(off); err != nil {
			return stats, fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
	}
	return stats, nil
}

// decodeWALPayload decodes a record payload into its op and triples.
func decodeWALPayload(b []byte) (byte, []rdf.Triple, error) {
	if len(b) == 0 {
		return 0, nil, errors.New("empty payload")
	}
	op := b[0]
	if op != walOpAdd && op != walOpBatch {
		return 0, nil, fmt.Errorf("unknown op %d", op)
	}
	count, n := binary.Uvarint(b[1:])
	if n <= 0 {
		return 0, nil, errors.New("truncated count")
	}
	if op == walOpAdd && count != 1 {
		return 0, nil, fmt.Errorf("op %d with count %d", op, count)
	}
	// Each triple needs at least six bytes (three kind+empty-value terms).
	if count > uint64(len(b))/6 {
		return 0, nil, fmt.Errorf("implausible triple count %d in %d bytes", count, len(b))
	}
	rest := b[1+n:]
	triples := make([]rdf.Triple, 0, count)
	for i := uint64(0); i < count; i++ {
		var tr rdf.Triple
		for _, slot := range []*rdf.Term{&tr.S, &tr.P, &tr.O} {
			t, adv, err := rdf.DecodeTermBinary(rest)
			if err != nil {
				return 0, nil, fmt.Errorf("triple %d: %w", i, err)
			}
			*slot = t
			rest = rest[adv:]
		}
		triples = append(triples, tr)
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%d trailing payload bytes", len(rest))
	}
	return op, triples, nil
}
