package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
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

// benchDoc and benchTurtle cache the synthetic documents shared by the
// loading benchmarks so document generation stays off the clock.
var benchDoc, benchTurtle string

func loadBenchDoc() string {
	if benchDoc == "" {
		benchDoc = genNTriples(60000, 42)
	}
	return benchDoc
}

// loadBenchTurtle renders loadBenchDoc's statements as Turtle.
func loadBenchTurtle(b *testing.B) string {
	if benchTurtle == "" {
		s := New("bench", rdf.NewDict())
		if _, err := LoadNTriples(s, strings.NewReader(loadBenchDoc()), LoadOptions{}); err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		if err := rdf.NewTurtleWriter(&sb, map[string]string{"x": "http://x/"}).WriteAll(s.MatchTerms(rdf.Term{}, rdf.Term{}, rdf.Term{})); err != nil {
			b.Fatal(err)
		}
		benchTurtle = sb.String()
	}
	return benchTurtle
}

// BenchmarkLoadNTriples loads the same ~4 MB document parsed by one worker
// (GOMAXPROCS 1) and by GOMAXPROCS workers.
func BenchmarkLoadNTriples(b *testing.B) {
	doc := loadBenchDoc()
	for _, run := range []struct {
		name  string
		procs int
	}{{"workers=1", 1}, {"workers=GOMAXPROCS", runtime.GOMAXPROCS(0)}} {
		b.Run(run.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(run.procs))
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				s := New("bench", rdf.NewDict())
				if _, err := LoadNTriples(s, strings.NewReader(doc), LoadOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadTurtle loads BenchmarkLoadNTriples's statements rendered as
// Turtle (bytes/op uses the N-Triples length, so the throughputs compare).
func BenchmarkLoadTurtle(b *testing.B) {
	doc := loadBenchTurtle(b)
	b.SetBytes(int64(len(loadBenchDoc())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New("bench", rdf.NewDict())
		if _, err := LoadTurtle(s, strings.NewReader(doc), LoadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRecover measures reopening a store from its binary
// snapshot — the restart path a durable data directory buys. It rebuilds
// the exact store that BenchmarkLoadNTriples loads from the same ~4 MB
// document (bytes/op uses the document length as the denominator so the
// throughputs compare directly), and README's durability section quotes
// the ratio. Both sub-runs take the one restore path: "fresh" into an
// empty dictionary, "shared" into one already holding another store's
// terms, as the second store of a durable federation is.
func BenchmarkStoreRecover(b *testing.B) {
	snap, want := buildRecoverFixture(b)
	other := New("other", rdf.NewDict())
	if _, err := LoadNTriples(other, strings.NewReader(genNTriples(20000, 7)), LoadOptions{}); err != nil {
		b.Fatal(err)
	}
	var otherSnap bytes.Buffer
	if err := other.WriteSnapshot(&otherSnap); err != nil {
		b.Fatal(err)
	}
	for _, run := range []struct {
		name string
		dict func() *rdf.Dict
	}{
		{"fresh", rdf.NewDict},
		{"shared", func() *rdf.Dict {
			d := rdf.NewDict()
			if _, err := ReadSnapshot(bytes.NewReader(otherSnap.Bytes()), d); err != nil {
				b.Fatal(err)
			}
			return d
		}},
	} {
		b.Run(run.name, func(b *testing.B) {
			b.SetBytes(int64(len(loadBenchDoc())))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dict := run.dict()
				b.StartTimer()
				st, err := ReadSnapshot(bytes.NewReader(snap), dict)
				if err != nil {
					b.Fatal(err)
				}
				if st.Len() != want {
					b.Fatalf("recovered %d triples, want %d", st.Len(), want)
				}
			}
		})
	}
}

// buildRecoverFixture parses the bench document once and returns its
// snapshot bytes and triple count. The source store stays scoped here so
// the measured loop does not pay to GC-mark it on every collection.
func buildRecoverFixture(b *testing.B) ([]byte, int) {
	b.Helper()
	src := New("bench", rdf.NewDict())
	if _, err := LoadNTriples(src, strings.NewReader(loadBenchDoc()), LoadOptions{}); err != nil {
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
