package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
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
// re-emit byte-identical snapshots; the last case has the second store
// bring more than 4,096 new terms. Then the differential half: a snapshot
// restored into a fresh dictionary, one holding disjoint terms and one
// holding some of the snapshot's own terms equals an Add loop of the same
// triples into a dictionary of the same shape.
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
	// Row counts around the segment size: empty, one row, one full segment,
	// and a full segment plus a one-row tail.
	for _, rows := range []int{0, 1, snapshotSegmentSize, snapshotSegmentSize + 1} {
		triples := restoreTriples(rows, "")
		foreign := restoreTriples(600, "other/")
		shapes := []struct {
			name  string
			shape func(d *rdf.Dict)
		}{
			{"fresh", func(d *rdf.Dict) {}},
			{"disjoint", func(d *rdf.Dict) { internTriples(d, foreign) }},
			{"overlapping", func(d *rdf.Dict) {
				// Every third triple's terms, last first, between foreign
				// ones: the restore meets hits and misses interleaved.
				for i := len(triples) - 1; i >= 0; i -= 3 {
					internTriples(d, foreign[i%len(foreign):i%len(foreign)+1])
					internTriples(d, triples[i:i+1])
				}
			}},
		}
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("rows=%d/%s", rows, sh.name), func(t *testing.T) {
				wantDict := rdf.NewDict()
				sh.shape(wantDict)
				want := New("diff", wantDict)
				for _, tr := range triples {
					want.Add(tr)
				}
				snap := snapshotBytes(t, want)

				gotDict := rdf.NewDict()
				sh.shape(gotDict)
				got, err := ReadSnapshot(bytes.NewReader(snap), gotDict)
				if err != nil {
					t.Fatal(err)
				}
				requireSameStore(t, got, want)
				if again := snapshotBytes(t, got); !bytes.Equal(again, snap) {
					t.Error("restored store re-encodes to different snapshot bytes")
				}
			})
		}
	}
}

// restoreTriples returns n distinct triples over IRI and blank-node
// subjects and plain, language-tagged, typed and IRI objects, with every
// position's terms reused across rows. Each row's subject and predicate
// pair is unique, so no row repeats another.
func restoreTriples(n int, prefix string) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		s := rdf.NewIRI(fmt.Sprintf("http://x/%se%d", prefix, i/3))
		if i%5 == 0 {
			s = rdf.NewBlank(fmt.Sprintf("%sb%d", prefix, i/7))
		}
		p := rdf.NewIRI(fmt.Sprintf("http://x/%sp%d", prefix, i%6))
		v := fmt.Sprintf("%sv%d", prefix, i%97)
		var o rdf.Term
		switch i % 5 {
		case 0:
			o = rdf.NewString(v)
		case 1:
			o = rdf.NewLangString(v, "en")
		case 2:
			o = rdf.NewLangString(v, "fr")
		case 3:
			o = rdf.NewTyped(fmt.Sprint(i%89), rdf.XSDInteger)
		default:
			o = rdf.NewIRI(fmt.Sprintf("http://x/%se%d", prefix, i%41))
		}
		out[i] = rdf.Triple{S: s, P: p, O: o}
	}
	return out
}

func internTriples(d *rdf.Dict, triples []rdf.Triple) {
	for _, tr := range triples {
		d.Intern(tr.S)
		d.Intern(tr.P)
		d.Intern(tr.O)
	}
}

// requireSameStore fails unless got and want, each over its own
// dictionary, hold the same terms under the same ids, the same subjects in
// the same order, and the same Count and posting lists in the same order
// under every key of all three indexes (id 0, the wildcard, is the scan).
func requireSameStore(t *testing.T, got, want *Store) {
	t.Helper()
	gd, wd := got.Dict(), want.Dict()
	if gd.Len() != wd.Len() {
		t.Fatalf("dict holds %d terms, want %d", gd.Len(), wd.Len())
	}
	for id := rdf.TermID(1); int(id) <= wd.Len(); id++ {
		if gd.Term(id) != wd.Term(id) {
			t.Fatalf("id %d is %v, want %v", id, gd.Term(id), wd.Term(id))
		}
	}
	if g, w := got.Subjects(), want.Subjects(); !slices.Equal(g, w) {
		t.Fatalf("Subjects() = %v, want %v", g, w)
	}
	patterns := []func(rdf.TermID) (rdf.TermID, rdf.TermID, rdf.TermID){
		func(id rdf.TermID) (rdf.TermID, rdf.TermID, rdf.TermID) { return id, 0, 0 },
		func(id rdf.TermID) (rdf.TermID, rdf.TermID, rdf.TermID) { return 0, id, 0 },
		func(id rdf.TermID) (rdf.TermID, rdf.TermID, rdf.TermID) { return 0, 0, id },
	}
	for id := rdf.TermID(0); int(id) <= wd.Len(); id++ {
		for role, pat := range patterns {
			s, p, o := pat(id)
			if g, w := got.Count(s, p, o), want.Count(s, p, o); g != w {
				t.Fatalf("role %d, id %d: Count = %d, want %d", role, id, g, w)
			}
			var g, w []rdf.TripleID
			got.Now().MatchEach(s, p, o, func(tr rdf.TripleID) { g = append(g, tr) })
			want.Now().MatchEach(s, p, o, func(tr rdf.TripleID) { w = append(w, tr) })
			if !slices.Equal(g, w) {
				t.Fatalf("role %d, id %d: postings %v, want %v", role, id, g, w)
			}
		}
	}
}

// encodeTerms is a dict block: the terms' binary encodings back to back.
func encodeTerms(terms ...rdf.Term) []byte {
	var block []byte
	for _, tm := range terms {
		block = rdf.AppendTermBinary(block, tm)
	}
	return block
}

// forgeSnapshot lays out a v1 snapshot of the given dict block, declared
// term count and local-id rows with valid lengths and checksums, so a test
// can build content WriteSnapshot never emits.
func forgeSnapshot(block []byte, terms int, rows [][3]uint32) []byte {
	var head []byte
	head = binary.AppendUvarint(head, uint64(len("forged")))
	head = append(head, "forged"...)
	for _, v := range []int{0, 0, terms, len(rows), snapshotSegmentSize, len(block)} {
		head = binary.AppendUvarint(head, uint64(v))
	}
	out := binary.LittleEndian.AppendUint16([]byte(snapshotMagic), snapshotVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(head)))
	checksummed := func(b []byte) {
		out = append(out, b...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(b, castagnoli))
	}
	checksummed(head)
	checksummed(block)
	for len(rows) > 0 {
		k := min(len(rows), snapshotSegmentSize)
		seg := binary.AppendUvarint(nil, uint64(k))
		for _, r := range rows[:k] {
			for _, id := range r {
				seg = binary.LittleEndian.AppendUint32(seg, id)
			}
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(seg)))
		checksummed(seg)
		rows = rows[k:]
	}
	return out
}

// TestSnapshotRepeatedTermRejected: a dict block that lists a term twice
// is rejected whatever the dictionary held before, even when no row uses
// the second copy and even when the copy's length prefix is padded to a
// different byte string.
func TestSnapshotRepeatedTermRejected(t *testing.T) {
	tr := triIRI("a", "p", "b")
	s := New("forged", rdf.NewDict())
	s.Add(tr)
	if got, want := forgeSnapshot(encodeTerms(tr.S, tr.P, tr.O), 3, [][3]uint32{{1, 2, 3}}), snapshotBytes(t, s); !bytes.Equal(got, want) {
		t.Fatalf("forgeSnapshot does not lay out what WriteSnapshot writes:\n%x\n%x", got, want)
	}
	// The padded copy spells b's value length as a two-byte uvarint.
	padded := append([]byte{byte(rdf.KindIRI), 0x80 | byte(len(tr.O.Value)), 0x00}, tr.O.Value...)
	snaps := map[string][]byte{
		"unused repeat": forgeSnapshot(encodeTerms(tr.S, tr.P, tr.O, tr.O), 4, [][3]uint32{{1, 2, 3}}),
		"padded repeat": forgeSnapshot(append(encodeTerms(tr.S, tr.P, tr.O), padded...), 4, [][3]uint32{{1, 2, 3}, {1, 2, 4}}),
	}
	for name, snap := range snaps {
		for _, pre := range []struct {
			name string
			dict func() *rdf.Dict
		}{
			{"fresh", rdf.NewDict},
			{"shared", func() *rdf.Dict {
				d := rdf.NewDict()
				d.Intern(tr.O)
				d.Intern(rdf.NewIRI("http://x/other"))
				return d
			}},
		} {
			if _, err := ReadSnapshot(bytes.NewReader(snap), pre.dict()); err == nil {
				t.Errorf("%s into a %s dictionary: accepted", name, pre.name)
			}
		}
	}
}

// TestSnapshotRepeatedRowRejected: a snapshot that lists a row twice is
// rejected, naming the repeat and the row it repeats.
func TestSnapshotRepeatedRowRejected(t *testing.T) {
	tr := triIRI("a", "p", "b")
	snap := forgeSnapshot(encodeTerms(tr.S, tr.P, tr.O), 3, [][3]uint32{{1, 2, 3}, {3, 2, 1}, {1, 2, 3}})
	_, err := ReadSnapshot(bytes.NewReader(snap), rdf.NewDict())
	if err == nil || !strings.Contains(err.Error(), "row 3 repeats row 1") {
		t.Fatalf("err = %v, want row 3 repeats row 1", err)
	}
}

// TestRejectedSnapshotInternsNothing: a snapshot rejected for a bad
// segment — checksum, length, or a row naming a term the block does not
// hold — leaves the dictionary it was restored into as it was.
func TestRejectedSnapshotInternsNothing(t *testing.T) {
	src := New("ds", rdf.NewDict())
	for _, tr := range restoreTriples(snapshotSegmentSize+5, "") {
		src.Add(tr)
	}
	good := snapshotBytes(t, src)
	flip := func(b []byte, at int) []byte {
		b = append([]byte(nil), b...)
		b[at] ^= 0x01
		return b
	}
	tr := triIRI("a", "p", "b")
	snaps := map[string][]byte{
		"last segment checksum":  flip(good, len(good)-1),
		"first segment checksum": flip(good, len(good)-5*12-20),
		"truncated last segment": good[:len(good)-7],
		"row names term 4 of 3":  forgeSnapshot(encodeTerms(tr.S, tr.P, tr.O), 3, [][3]uint32{{1, 2, 3}, {1, 2, 4}}),
	}
	for name, snap := range snaps {
		for _, pre := range []struct {
			name  string
			shape func(d *rdf.Dict)
		}{
			{"fresh", func(d *rdf.Dict) {}},
			{"shared", func(d *rdf.Dict) { internTriples(d, restoreTriples(50, "other/")) }},
		} {
			d := rdf.NewDict()
			pre.shape(d)
			before := d.Len()
			if _, err := ReadSnapshot(bytes.NewReader(snap), d); err == nil {
				t.Errorf("%s into a %s dictionary: accepted", name, pre.name)
			}
			if d.Len() != before {
				t.Errorf("%s into a %s dictionary: rejected restore interned %d terms", name, pre.name, d.Len()-before)
			}
		}
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
