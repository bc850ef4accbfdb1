package store

import (
	"cmp"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"alex/internal/rdf"
)

// TestLoadedTermsOwnTheirBytes: after a load, no string the dictionary
// holds points into the parsed document, so the dictionary keeps no chunk
// of the text alive; each new term is interned as one copy of its own.
func TestLoadedTermsOwnTheirBytes(t *testing.T) {
	doc := []byte(genNTriples(2000, 4))
	span := func(s string) [2]uintptr {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return [2]uintptr{p, p + uintptr(len(s))}
	}
	fields := func(tm rdf.Term) []string { return []string{tm.Value, tm.Datatype, tm.Lang} }
	for _, workers := range []int{1, 4} {
		chunks, err := rdf.ParseNTriples(doc, workers)
		if err != nil {
			t.Fatal(err)
		}
		// parsed holds the byte ranges of the parse's strings, merged into
		// disjoint ranges in address order.
		var parsed [][2]uintptr
		for _, tr := range slices.Concat(chunks...) {
			for _, tm := range []rdf.Term{tr.S, tr.P, tr.O} {
				for _, f := range fields(tm) {
					if f != "" {
						parsed = append(parsed, span(f))
					}
				}
			}
		}
		slices.SortFunc(parsed, func(a, b [2]uintptr) int { return cmp.Compare(a[0], b[0]) })
		merged := parsed[:0]
		for _, r := range parsed {
			if k := len(merged) - 1; k >= 0 && r[0] <= merged[k][1] {
				merged[k][1] = max(merged[k][1], r[1])
				continue
			}
			merged = append(merged, r)
		}
		s := New("ds", rdf.NewDict())
		s.Load(chunks...)
		d := s.Dict()
		for id := rdf.TermID(1); int(id) <= d.Len(); id++ {
			for _, f := range fields(d.Term(id)) {
				if f == "" {
					continue
				}
				r := span(f)
				// The last parsed range starting before r ends must end at
				// or before r starts.
				if k := sort.Search(len(merged), func(i int) bool { return merged[i][0] >= r[1] }) - 1; k >= 0 && merged[k][1] > r[0] {
					t.Fatalf("workers %d: term %d (%v) shares its bytes with the parsed document", workers, id, d.Term(id))
				}
			}
		}
	}
}
