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
// the live triples — local ids make the byte stream canonical for the
// logical store content no matter how a shared dict assigned TermIDs,
// which is what lets the crash-recovery gate compare stores byte for
// byte. Every full segment holds exactly segmentSize rows (the last holds
// the remainder), so the segmentation is canonical too.
//
// All checksums are CRC-32C (Castagnoli). The public WriteSnapshot always
// writes generation and walEpoch 0: both are runtime history, not store
// content (a serial AddID loop and one AddIDs batch of the same triples
// differ in generation but not in content), and pinning them keeps
// independently built stores with equal content byte-identical — the
// invariant the crash-recovery gate and TestAddIDsMatchesAddID rely on.
// Only the checkpoint path (durable.go) embeds the real values, which is
// how recovery restores the exact pre-crash counter.

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

// WriteSnapshot serializes the live triples (tombstones are compacted
// away) in insertion order. The snapshot restores into an empty or shared
// dictionary via ReadSnapshot.
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.writeSnapshotLocked(w, 0, 0); err != nil {
		return fmt.Errorf("store: writing snapshot of %s: %w", s.name, err)
	}
	return nil
}

// writeSnapshotLocked emits the snapshot under a held read lock. The
// checkpoint path embeds the real walEpoch and generation; every other
// caller passes 0 for both.
func (s *Store) writeSnapshotLocked(w io.Writer, walEpoch, gen uint64) error {
	bw := bufio.NewWriterSize(w, 1<<16)

	// Local term ids: 1-based, in first-use order over the live triples.
	local := make(map[rdf.TermID]uint32, s.present.Len())
	order := make([]rdf.TermID, 0, s.present.Len())
	live := 0
	for _, t := range s.triples {
		if t == (rdf.TripleID{}) {
			continue
		}
		live++
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
	head = binary.AppendUvarint(head, gen)
	head = binary.AppendUvarint(head, walEpoch)
	head = binary.AppendUvarint(head, uint64(len(order)))
	head = binary.AppendUvarint(head, uint64(live))
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
		if t == (rdf.TripleID{}) {
			continue
		}
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
	Version     int
	Generation  uint64
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
	blockStr  string     // checksummed dict block, decoded lazily
	terms     []rdf.Term // terms[i] is local id i+1; see decodeTerms
	remaining int        // rows not yet yielded
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
	d.hdr.Version = int(version)
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
	gen, ok1 := u()
	epoch, ok2 := u()
	if !ok1 || !ok2 {
		return fmt.Errorf("header: truncated")
	}
	d.hdr.Generation, d.hdr.WALEpoch = gen, epoch
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
	// The block is one immutable string; whoever consumes it — the dict's
	// bulk-intern fast path or decodeTerms — yields terms whose fields are
	// zero-copy substrings of it. The dict pins the block's memory, which
	// is fine: the terms collectively reference most of it anyway.
	d.blockStr = sb.String()
	return nil
}

// decodeTerms materializes the dict block for restores into an
// already-populated dict, which intern terms one by one. The empty-dict
// restore fast path (rdf.Dict.BulkInternEncoded) never calls it.
// Idempotent; validates the block fully.
func (d *snapDecoder) decodeTerms() error {
	if d.terms != nil {
		return nil
	}
	d.terms = make([]rdf.Term, 0, minInt(d.hdr.Terms, maxSnapshotPrealloc))
	off := 0
	for i := 0; i < d.hdr.Terms; i++ {
		t, n, err := rdf.DecodeTermBinaryString(d.blockStr[off:])
		if err != nil {
			return fmt.Errorf("dict term %d: %w", i, err)
		}
		d.terms = append(d.terms, t)
		off += n
	}
	if off != len(d.blockStr) {
		return fmt.Errorf("dict block: %d trailing bytes", len(d.blockStr)-off)
	}
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
// restored store preserves insertion order, subject first-sight order and
// the generation counter. Corrupt or truncated input returns an error,
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

// restoreStore builds a Store from a decoded snapshot. Rows keep their
// LOCAL term ids until the very end: nextSegment has already bounds-checked
// every id into [1, Terms], so the whole store can be assembled with array
// arithmetic — per-id posting counts, a prefix sum, one shared backing
// array per index — instead of per-triple hash operations. Only the
// present map and the final per-key index installs touch a hash table,
// which is what makes recovery an order of magnitude faster than
// re-parsing the source text. The store is not shared yet, so no lock is
// taken.
func restoreStore(dec *snapDecoder, dict *rdf.Dict) (*Store, error) {
	// Empty-dict fast path — the recovery case: the dict bulk-interns the
	// encoded block directly and assigns ids 1..Terms in block order, so
	// every local id IS its dict id (ids == nil signals the identity
	// mapping below). A shared, already-populated dict takes the general
	// InternAll path instead.
	var ids []rdf.TermID
	bulk, err := dict.BulkInternEncoded(dec.blockStr, dec.hdr.Terms)
	if err != nil {
		return nil, fmt.Errorf("dict block: %w", err)
	}
	if !bulk {
		if err := dec.decodeTerms(); err != nil {
			return nil, err
		}
		// ids[local] is the dict id of 1-based local id local. A cold load
		// interns in first-use order, which is block order, so interning the
		// block in order gives every term the id a cold load into this
		// dictionary would have.
		ids = append([]rdf.TermID{rdf.NoTerm}, dict.InternAll(dec.terms)...)
	}
	s := New(dec.hdr.Name, dict)
	capHint := minInt(dec.hdr.Triples, maxSnapshotPrealloc)
	// Rows are decoded straight into the triple array as LOCAL ids; on the
	// identity path they already are the final dict ids, so no second copy
	// of the rows is ever allocated.
	triples := make([]rdf.TripleID, 0, capHint)
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
	n := len(triples)
	nTerms := dec.hdr.Terms
	s.triples = triples
	s.present = newTripleSet(n)
	var counts [3][]int32
	for role := range counts {
		counts[role] = make([]int32, nTerms+1)
	}
	// With a shared dict the rows must be remapped to dict ids, but the
	// index fill still needs the local ids (counts is indexed by them), so
	// only this path keeps a flat copy.
	var local []uint32
	if ids != nil {
		local = make([]uint32, 0, 3*n)
	}
	// One pass fixes positions, the dedup table, per-role posting counts
	// and the subject first-sight order (rows arrive in insertion order, so
	// "first count" is "first sight" — exactly what a serial AddID loop
	// would have recorded).
	for r := 0; r < n; r++ {
		t := triples[r]
		sL, pL, oL := uint32(t.S), uint32(t.P), uint32(t.O)
		if ids != nil {
			local = append(local, sL, pL, oL)
			t = rdf.TripleID{S: ids[sL], P: ids[pL], O: ids[oL]}
			triples[r] = t
		}
		s.present.put(t, int32(r))
		if counts[0][sL] == 0 {
			s.subjects = append(s.subjects, t.S)
		}
		counts[0][sL]++
		counts[1][pL]++
		counts[2][oL]++
	}
	if s.present.Len() != n {
		return nil, fmt.Errorf("snapshot contains %d duplicate rows", n-s.present.Len())
	}
	for role, ix := range [3]*tripleIndex{&s.ixSubj, &s.ixPred, &s.ixObj} {
		if *ix, err = fillIndex(triples, local, counts[role], ids, role, n); err != nil {
			return nil, err
		}
	}
	s.gen.Store(dec.hdr.Generation)
	return s, nil
}

// fillIndex builds one triple index from the decoded rows. A prefix sum
// over the per-id posting counts carves one shared backing array into the
// per-key posting lists — sliced with full capacity so a later append to
// one list reallocates instead of bleeding into its neighbour — which are
// installed into one presized map. Rows are visited in position
// order, so every list is ordered exactly as serial AddID appends would
// have built it. ids maps local to dict ids; nil means they are identical
// (the empty-dict fast path), in which case local is also nil and the
// local ids are read out of triples directly. The prefix sum runs in
// place: counts[id] turns into the fill cursor, and each id's list is
// recovered afterwards as the span between consecutive cursor ends, so
// the pass allocates nothing beyond the backing array.
func fillIndex(triples []rdf.TripleID, local []uint32, counts []int32, ids []rdf.TermID, role, n int) (tripleIndex, error) {
	distinct := 0
	var sum int32
	for id := 1; id < len(counts); id++ {
		c := counts[id]
		if c > 0 {
			distinct++
		}
		counts[id] = sum
		sum += c
	}
	backing := make([]int32, n)
	if local != nil {
		for r := 0; r < n; r++ {
			id := local[3*r+role]
			backing[counts[id]] = int32(r)
			counts[id]++
		}
	} else {
		switch role {
		case 0:
			for r := 0; r < n; r++ {
				backing[counts[triples[r].S]] = int32(r)
				counts[triples[r].S]++
			}
		case 1:
			for r := 0; r < n; r++ {
				backing[counts[triples[r].P]] = int32(r)
				counts[triples[r].P]++
			}
		default:
			for r := 0; r < n; r++ {
				backing[counts[triples[r].O]] = int32(r)
				counts[triples[r].O]++
			}
		}
	}
	ix := make(tripleIndex, distinct)
	prev := int32(0)
	for id := 1; id < len(counts); id++ {
		end := counts[id]
		if end == prev {
			continue
		}
		list := backing[prev:end:end]
		prev = end
		gid := rdf.TermID(id)
		if ids != nil {
			gid = ids[id]
			if _, dup := ix[gid]; dup {
				// The writer assigns each term exactly one local id; two
				// local ids landing on one dict id means a malformed dict
				// block, and installing the second list would shadow the
				// first. With the identity mapping (ids == nil) distinct
				// local ids are distinct dict ids, so no check is needed.
				return nil, fmt.Errorf("dict block assigns duplicate local ids to one term")
			}
		}
		ix[gid] = list
	}
	return ix, nil
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
