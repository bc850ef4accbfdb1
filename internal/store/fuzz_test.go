package store

import (
	"bytes"
	"testing"

	"alex/internal/rdf"
)

// FuzzReadSnapshot hammers the snapshot decoder with corrupt, truncated
// and mutated inputs. The decoder must never panic: it either returns an
// error or yields a store whose re-encoding round-trips.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadSnapshot(bytes.NewReader(data), rdf.NewDict())
		if err != nil {
			return // rejected cleanly — all that corrupt input owes us
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
