package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"alex/internal/rdf"
)

// buildBench populates a store with n subjects × 6 attributes.
func buildBench(n int) (*Store, []rdf.TermID) {
	dict := rdf.NewDict()
	s := New("bench", dict)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))
		s.Add(rdf.Triple{S: subj, P: rdf.NewIRI("http://x/name"), O: rdf.NewString(fmt.Sprintf("name %d", i))})
		s.Add(rdf.Triple{S: subj, P: rdf.NewIRI("http://x/value"), O: rdf.NewInt(int64(rng.Intn(1000)))})
		s.Add(rdf.Triple{S: subj, P: rdf.NewIRI("http://x/group"), O: rdf.NewString(fmt.Sprintf("g%d", i%20))})
		s.Add(rdf.Triple{S: subj, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("http://x/T")})
	}
	return s, s.Subjects()
}

// BenchmarkMatchIndexed measures the hash-indexed subject lookup — the
// design DESIGN.md commits to.
func BenchmarkMatchIndexed(b *testing.B) {
	s, subjects := buildBench(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Match(subjects[i%len(subjects)], rdf.NoTerm, rdf.NoTerm)
	}
}

// BenchmarkMatchScan is the ablation: the same lookup implemented as a full
// scan over Match(?, ?, ?), as a store without indexes would do.
func BenchmarkMatchScan(b *testing.B) {
	s, subjects := buildBench(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		want := subjects[i%len(subjects)]
		n := 0
		for _, t := range s.Match(rdf.NoTerm, rdf.NoTerm, rdf.NoTerm) {
			if t.S == want {
				n++
			}
		}
		if n == 0 {
			b.Fatal("scan found nothing")
		}
	}
}

func BenchmarkStoreAdd(b *testing.B) {
	dict := rdf.NewDict()
	s := New("add", dict)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://x/e%d", i)),
			P: rdf.NewIRI("http://x/p"),
			O: rdf.NewInt(int64(i)),
		})
	}
}

// benchDoc caches the synthetic N-Triples document shared by the loading
// benchmarks so document generation stays off the clock.
var benchDoc string

func loadBenchDoc() string {
	if benchDoc == "" {
		benchDoc = genNTriples(60000, 42)
	}
	return benchDoc
}

// BenchmarkLoadNTriples compares the serial and parallel bulk-load paths on
// the same ~4 MB document.
func BenchmarkLoadNTriples(b *testing.B) {
	doc := loadBenchDoc()
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			s := New("bench", rdf.NewDict())
			if _, err := LoadNTriples(s, strings.NewReader(doc), LoadOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			s := New("bench", rdf.NewDict())
			if _, err := LoadNTriples(s, strings.NewReader(doc), LoadOptions{SerialThreshold: -1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoadIncremental is the pre-bulk-loader baseline: the serial
// Reader feeding Store.Add one triple at a time.
func BenchmarkLoadIncremental(b *testing.B) {
	doc := loadBenchDoc()
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		s := New("bench", rdf.NewDict())
		triples, err := rdf.NewReader(strings.NewReader(doc)).ReadAll()
		if err != nil {
			b.Fatal(err)
		}
		s.Load(triples)
	}
}

// BenchmarkStoreRecover measures reopening a store from its binary
// snapshot — the restart path a durable data directory buys. It rebuilds
// the exact store that BenchmarkLoadNTriples/serial parses from the same
// ~4 MB document (bytes/op uses the document length as the denominator so
// the two throughputs compare directly), and README's durability section
// quotes the ratio.
func BenchmarkStoreRecover(b *testing.B) {
	snap, want := buildRecoverFixture(b)
	b.SetBytes(int64(len(loadBenchDoc())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ReadSnapshot(bytes.NewReader(snap), rdf.NewDict())
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != want {
			b.Fatalf("recovered %d triples, want %d", st.Len(), want)
		}
	}
}

// buildRecoverFixture parses the bench document once and returns its
// snapshot bytes and triple count. The source store stays scoped here so
// the measured loop does not pay to GC-mark it on every collection.
func buildRecoverFixture(b *testing.B) ([]byte, int) {
	b.Helper()
	src := New("bench", rdf.NewDict())
	if _, err := LoadNTriples(src, strings.NewReader(loadBenchDoc()), LoadOptions{Workers: 1}); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	return snap.Bytes(), src.Len()
}

func BenchmarkEntityView(b *testing.B) {
	s, subjects := buildBench(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Entity(subjects[i%len(subjects)]); !ok {
			b.Fatal("entity missing")
		}
	}
}
