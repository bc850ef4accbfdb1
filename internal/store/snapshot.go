package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"alex/internal/rdf"
)

// Snapshot format v1 (see FORMAT.md for the normative layout):
//
//	magic "ALEXSNAP" · version u16 LE
//	header  — u32 LE length · header bytes · crc32c u32 LE
//	dict    — termCount binary terms (rdf.AppendTermBinary) · crc32c
//	segment — u32 LE length · uvarint rowCount · rowCount×12 row bytes
//	          · crc32c, repeated until tripleCount rows are written
//
// The header bytes are uvarint-encoded fields: name (length-prefixed),
// generation, walEpoch, termCount, tripleCount, segmentSize, dictBytes.
// Rows are three u32 LE local term ids, 1-based in first-use order over
// the triples — local ids make the byte stream canonical for the
// logical store content no matter how a shared dict assigned TermIDs,
// which is what lets the crash-recovery gate compare stores byte for
// byte. Every full segment holds exactly segmentSize rows (the last holds
// the remainder), so the segmentation is canonical too.
//
// All checksums are CRC-32C (Castagnoli). The generation field is
// reserved: it is written 0 and ignored on read, since a store's
// generation is its triple count. The public WriteSnapshot writes walEpoch
// 0 too, so independently built stores with equal content are
// byte-identical — the invariant the crash-recovery gate and
// TestAddIDsMatchesAddID rely on. Only the checkpoint path (durable.go)
// embeds the real epoch.

const (
	snapshotMagic   = "ALEXSNAP"
	snapshotVersion = 1

	// snapshotSegmentSize is the row count of every full triple segment.
	snapshotSegmentSize = 8192

	// Decode-side sanity bounds: a corrupt header must not drive huge
	// allocations, so preallocation is capped and oversized blocks rejected.
	maxSnapshotHeaderBytes = 1 << 20
	maxSnapshotPrealloc    = 1 << 20
	maxDictChunkBytes      = 4 << 20
)

// castagnoli is the CRC-32C table shared by snapshot and WAL checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot serializes the triples in insertion order. The snapshot
// restores into an empty or shared dictionary via ReadSnapshot.
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.writeSnapshotLocked(w, 0); err != nil {
		return fmt.Errorf("store: writing snapshot of %s: %w", s.name, err)
	}
	return nil
}

// writeSnapshotLocked emits the snapshot under a held read lock. The
// checkpoint path embeds the real walEpoch; every other caller passes 0.
func (s *Store) writeSnapshotLocked(w io.Writer, walEpoch uint64) error {
	bw := bufio.NewWriterSize(w, 1<<16)

	// Local term ids: 1-based, in first-use order over the triples.
	local := make(map[rdf.TermID]uint32, len(s.triples))
	order := make([]rdf.TermID, 0, len(s.triples))
	for _, t := range s.triples {
		for _, id := range [3]rdf.TermID{t.S, t.P, t.O} {
			if _, ok := local[id]; !ok {
				local[id] = uint32(len(order) + 1)
				order = append(order, id)
			}
		}
	}

	dictBlock := make([]byte, 0, 16*len(order))
	for _, id := range order {
		dictBlock = rdf.AppendTermBinary(dictBlock, s.dict.Term(id))
	}

	var head []byte
	head = binary.AppendUvarint(head, uint64(len(s.name)))
	head = append(head, s.name...)
	head = binary.AppendUvarint(head, 0) // reserved generation field
	head = binary.AppendUvarint(head, walEpoch)
	head = binary.AppendUvarint(head, uint64(len(order)))
	head = binary.AppendUvarint(head, uint64(len(s.triples)))
	head = binary.AppendUvarint(head, snapshotSegmentSize)
	head = binary.AppendUvarint(head, uint64(len(dictBlock)))

	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	var n4 [4]byte
	binary.LittleEndian.PutUint16(n4[:2], snapshotVersion)
	if _, err := bw.Write(n4[:2]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(n4[:], uint32(len(head)))
	if _, err := bw.Write(n4[:]); err != nil {
		return err
	}
	writeChecksummed := func(b []byte) error {
		if _, err := bw.Write(b); err != nil {
			return err
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(b, castagnoli))
		_, err := bw.Write(crc[:])
		return err
	}
	if err := writeChecksummed(head); err != nil {
		return err
	}
	if err := writeChecksummed(dictBlock); err != nil {
		return err
	}

	seg := make([]byte, 0, snapshotSegmentSize*12)
	scratch := make([]byte, 0, snapshotSegmentSize*12+binary.MaxVarintLen64)
	flush := func() error {
		rows := len(seg) / 12
		if rows == 0 {
			return nil
		}
		block := binary.AppendUvarint(scratch[:0], uint64(rows))
		block = append(block, seg...)
		binary.LittleEndian.PutUint32(n4[:], uint32(len(block)))
		if _, err := bw.Write(n4[:]); err != nil {
			return err
		}
		seg = seg[:0]
		return writeChecksummed(block)
	}
	for _, t := range s.triples {
		seg = binary.LittleEndian.AppendUint32(seg, local[t.S])
		seg = binary.LittleEndian.AppendUint32(seg, local[t.P])
		seg = binary.LittleEndian.AppendUint32(seg, local[t.O])
		if len(seg) == snapshotSegmentSize*12 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return bw.Flush()
}

// snapshotHeader is the decoded snapshot prelude.
type snapshotHeader struct {
	Name        string
	WALEpoch    uint64
	Terms       int
	Triples     int
	SegmentSize int
}

// snapDecoder reads and validates the snapshot prelude and then yields
// raw row segments one at a time, for ReadSnapshot to restore.
type snapDecoder struct {
	br        *bufio.Reader
	hdr       snapshotHeader
	dictBytes int
	blockStr  string // checksummed dict block, interned by restoreStore
	remaining int    // rows not yet yielded
}

func newSnapDecoder(r io.Reader) (*snapDecoder, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	pre := make([]byte, len(snapshotMagic)+2+4)
	if _, err := io.ReadFull(br, pre); err != nil {
		return nil, fmt.Errorf("reading prelude: %w", err)
	}
	if string(pre[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("bad magic %q", pre[:len(snapshotMagic)])
	}
	version := binary.LittleEndian.Uint16(pre[8:10])
	if version != snapshotVersion {
		return nil, fmt.Errorf("unsupported format version %d (this build reads version %d)", version, snapshotVersion)
	}
	headLen := binary.LittleEndian.Uint32(pre[10:14])
	if headLen == 0 || headLen > maxSnapshotHeaderBytes {
		return nil, fmt.Errorf("implausible header length %d", headLen)
	}
	head, err := readChecksummed(br, int(headLen), "header")
	if err != nil {
		return nil, err
	}
	d := &snapDecoder{br: br}
	if err := d.parseHeader(head); err != nil {
		return nil, err
	}
	if err := d.readDict(); err != nil {
		return nil, err
	}
	d.remaining = d.hdr.Triples
	return d, nil
}

// readChecksummed reads n block bytes plus the trailing CRC-32C and
// verifies them. n must already be bounds-checked by the caller.
func readChecksummed(br *bufio.Reader, n int, what string) ([]byte, error) {
	b := make([]byte, n+4)
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, fmt.Errorf("reading %s: %w", what, err)
	}
	block := b[:n]
	want := binary.LittleEndian.Uint32(b[n:])
	if got := crc32.Checksum(block, castagnoli); got != want {
		return nil, fmt.Errorf("%s checksum mismatch: got %08x, want %08x", what, got, want)
	}
	return block, nil
}

func (d *snapDecoder) parseHeader(head []byte) error {
	u := func() (uint64, bool) {
		v, n := binary.Uvarint(head)
		if n <= 0 {
			return 0, false
		}
		head = head[n:]
		return v, true
	}
	nameLen, ok := u()
	if !ok || nameLen > uint64(len(head)) {
		return fmt.Errorf("header: bad name length")
	}
	d.hdr.Name = string(head[:nameLen])
	head = head[nameLen:]
	_, ok1 := u() // reserved generation field, ignored
	epoch, ok2 := u()
	if !ok1 || !ok2 {
		return fmt.Errorf("header: truncated")
	}
	d.hdr.WALEpoch = epoch
	for _, f := range []*int{&d.hdr.Terms, &d.hdr.Triples, &d.hdr.SegmentSize, &d.dictBytes} {
		v, ok := u()
		if !ok || v > 1<<31 {
			return fmt.Errorf("header: truncated or implausible count")
		}
		*f = int(v)
	}
	if len(head) != 0 {
		return fmt.Errorf("header: %d trailing bytes", len(head))
	}
	if d.hdr.SegmentSize <= 0 || d.hdr.SegmentSize > 1<<24 {
		return fmt.Errorf("header: implausible segment size %d", d.hdr.SegmentSize)
	}
	if d.hdr.Triples > 0 && d.hdr.Terms == 0 {
		return fmt.Errorf("header: %d triples but no terms", d.hdr.Triples)
	}
	if d.hdr.Terms > 0 && d.dictBytes < 2*d.hdr.Terms {
		// Every encoded term is at least two bytes (kind + empty value).
		return fmt.Errorf("header: dict block of %d bytes cannot hold %d terms", d.dictBytes, d.hdr.Terms)
	}
	return nil
}

// readDict reads the dict block in bounded chunks — allocation stays
// proportional to bytes actually present, not to a possibly lying length
// field — verifies its checksum and decodes the terms.
func (d *snapDecoder) readDict() error {
	// The block accumulates in a strings.Builder — its String() is free,
	// so the block costs one allocation (plus builder growth when a lying
	// header understated nothing: Grow is capped, genuine bytes earn the
	// larger buffer). The checksum runs incrementally over the same reads.
	var sb strings.Builder
	sb.Grow(minInt(d.dictBytes, maxDictChunkBytes))
	var buf [64 << 10]byte
	got := uint32(0)
	for read := 0; read < d.dictBytes; {
		n := minInt(d.dictBytes-read, len(buf))
		if _, err := io.ReadFull(d.br, buf[:n]); err != nil {
			return fmt.Errorf("reading dict block: %w", err)
		}
		got = crc32.Update(got, castagnoli, buf[:n])
		sb.Write(buf[:n])
		read += n
	}
	var crc [4]byte
	if _, err := io.ReadFull(d.br, crc[:]); err != nil {
		return fmt.Errorf("reading dict checksum: %w", err)
	}
	if want := binary.LittleEndian.Uint32(crc[:]); got != want {
		return fmt.Errorf("dict checksum mismatch: got %08x, want %08x", got, want)
	}
	// The block is one immutable string; Dict.InternEncoded keys and
	// stores the new terms as zero-copy substrings of it. The dict pins
	// the block's memory, which is fine: the terms collectively reference
	// most of it anyway.
	d.blockStr = sb.String()
	return nil
}

// nextSegment returns the raw row bytes and row count of the next
// segment, reusing readChecksummed's buffer (valid until the next call).
// It enforces the canonical segmentation — every segment but the last
// holds exactly hdr.SegmentSize rows — and that every row references a
// declared term. io.EOF signals a clean end.
func (d *snapDecoder) nextSegment() ([]byte, int, error) {
	if d.remaining == 0 {
		return nil, 0, io.EOF
	}
	want := d.remaining
	if want > d.hdr.SegmentSize {
		want = d.hdr.SegmentSize
	}
	var n4 [4]byte
	if _, err := io.ReadFull(d.br, n4[:]); err != nil {
		return nil, 0, fmt.Errorf("reading segment length: %w", err)
	}
	segLen := int(binary.LittleEndian.Uint32(n4[:]))
	wantLen := want*12 + uvarintLen(uint64(want))
	if segLen != wantLen {
		return nil, 0, fmt.Errorf("segment length %d, want %d for %d rows", segLen, wantLen, want)
	}
	block, err := readChecksummed(d.br, segLen, "segment")
	if err != nil {
		return nil, 0, err
	}
	rows, n := binary.Uvarint(block)
	if n <= 0 || int(rows) != want {
		return nil, 0, fmt.Errorf("segment row count %d, want %d", rows, want)
	}
	raw := block[n:]
	for i := 0; i < want*3; i++ {
		id := binary.LittleEndian.Uint32(raw[i*4:])
		if id == 0 || id > uint32(d.hdr.Terms) {
			return nil, 0, fmt.Errorf("segment row references term %d of %d", id, d.hdr.Terms)
		}
	}
	d.remaining -= want
	return raw, want, nil
}

// ReadSnapshot restores a store from a snapshot written by WriteSnapshot,
// interning every term into dict (which may be empty or shared). The
// restored store preserves insertion order and subject first-sight order,
// and so its generation. Corrupt or truncated input returns an error,
// never a panic.
func ReadSnapshot(r io.Reader, dict *rdf.Dict) (*Store, error) {
	dec, err := newSnapDecoder(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	s, err := restoreStore(dec, dict)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return s, nil
}

// restoreStore builds a Store from a decoded snapshot, the same way into
// an empty dictionary or a shared one. Every segment is read and checked
// before the dict block is interned, so a bad segment interns nothing.
// The rows are remapped from local to dict ids, then the dedup table and
// the indexes are built from the whole log at once (Store.index): array
// arithmetic instead of per-triple appends, so only the dedup table touches
// a hash table, and a repeated row is an error. The store is not shared
// yet, so no lock is taken.
func restoreStore(dec *snapDecoder, dict *rdf.Dict) (*Store, error) {
	triples := make([]rdf.TripleID, 0, minInt(dec.hdr.Triples, maxSnapshotPrealloc))
	for {
		raw, rows, err := dec.nextSegment()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < rows; i++ {
			triples = append(triples, rdf.TripleID{
				S: rdf.TermID(binary.LittleEndian.Uint32(raw[i*12:])),
				P: rdf.TermID(binary.LittleEndian.Uint32(raw[i*12+4:])),
				O: rdf.TermID(binary.LittleEndian.Uint32(raw[i*12+8:])),
			})
		}
	}
	// ids[local-1] is the dict id of 1-based local id local. A cold load
	// interns in first-use order, which is block order, so every term gets
	// the id a cold load into this dictionary would have given it.
	ids, err := dict.InternEncoded(dec.blockStr, dec.hdr.Terms)
	if err != nil {
		return nil, fmt.Errorf("dict block: %w", err)
	}
	// The writer lists each term once. Two local ids on one dict id would
	// merge their posting lists, so a repeat is rejected, whether or not a
	// row uses it.
	seen := make([]uint64, dict.Len()/64+1)
	for local, id := range ids {
		if seen[id/64]&(1<<(id%64)) != 0 {
			return nil, fmt.Errorf("dict block: term %d repeats an earlier term", local+1)
		}
		seen[id/64] |= 1 << (id % 64)
	}

	for r, t := range triples {
		triples[r] = rdf.TripleID{S: ids[t.S-1], P: ids[t.P-1], O: ids[t.O-1]}
	}
	s := New(dec.hdr.Name, dict)
	if r, first := s.index(triples); r >= 0 {
		return nil, fmt.Errorf("snapshot row %d repeats row %d", r+1, first+1)
	}
	return s, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
