package store

import (
	"bytes"
	"slices"
	"testing"

	"alex/internal/rdf"
)

// FuzzReadSnapshot hammers the snapshot decoder with corrupt, truncated
// and mutated inputs. The decoder must never panic: it either returns an
// error or yields a store whose re-encoding round-trips. Every input is
// restored into a fresh dictionary and into one already holding terms,
// some of them the seeds' own: both must give the same verdict and, when
// they accept, the same triples in the same order.
func FuzzReadSnapshot(f *testing.F) {
	seed := func(build func(s *Store)) []byte {
		s := New("seed", rdf.NewDict())
		build(s)
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	empty := seed(func(s *Store) {})
	small := seed(func(s *Store) {
		s.Add(tri("a", "p", "1"))
		s.Add(triIRI("a", "link", "b"))
		s.Add(rdf.Triple{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/q"), O: rdf.NewLangString("hi", "en")})
		s.Add(rdf.Triple{S: rdf.NewBlank("b0"), P: rdf.NewIRI("http://x/q"), O: rdf.NewTyped("3", rdf.XSDInteger)})
	})
	f.Add(empty)
	f.Add(small)
	f.Add(small[:len(small)/2])
	f.Add([]byte("ALEXSNAP"))
	f.Add([]byte("not a snapshot at all"))
	flipped := append([]byte(nil), small...)
	flipped[len(flipped)-3] ^= 0x40
	f.Add(flipped)
	b := triIRI("a", "p", "b")
	f.Add(forgeSnapshot(encodeTerms(b.S, b.P, b.O, b.O), 4, [][3]uint32{{1, 2, 3}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadSnapshot(bytes.NewReader(data), rdf.NewDict())
		shared := rdf.NewDict()
		internTriples(shared, restoreTriples(20, "other/"))
		internTriples(shared, []rdf.Triple{tri("a", "p", "1"), b})
		sharedSt, sharedErr := ReadSnapshot(bytes.NewReader(data), shared)
		if (err == nil) != (sharedErr == nil) {
			t.Fatalf("fresh dictionary: %v; pre-populated dictionary: %v", err, sharedErr)
		}
		if err != nil {
			return // rejected cleanly — all that corrupt input owes us
		}
		var zero rdf.Term
		if got, want := sharedSt.MatchTerms(zero, zero, zero), st.MatchTerms(zero, zero, zero); !slices.Equal(got, want) {
			t.Fatalf("pre-populated dictionary restores %v, fresh one %v", got, want)
		}
		var out bytes.Buffer
		if err := st.WriteSnapshot(&out); err != nil {
			t.Fatalf("re-encoding an accepted snapshot failed: %v", err)
		}
		st2, err := ReadSnapshot(bytes.NewReader(out.Bytes()), rdf.NewDict())
		if err != nil {
			t.Fatalf("re-reading a re-encoded snapshot failed: %v", err)
		}
		if st2.Len() != st.Len() {
			t.Fatalf("round-trip changed triple count: %d vs %d", st2.Len(), st.Len())
		}
	})
}
