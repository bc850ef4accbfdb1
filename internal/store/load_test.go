package store

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"alex/internal/obs"
	"alex/internal/rdf"
)

// genNTriples renders n statements of synthetic N-Triples with heavy term
// reuse (shared predicates, clustered objects), interleaved comments and
// blank lines, and a deterministic sprinkle of exact-duplicate statements.
func genNTriples(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("# synthetic fixture\n\n")
	for i := 0; i < n; i++ {
		subj := fmt.Sprintf("<http://x/e%d>", i/4)
		switch i % 4 {
		case 0:
			fmt.Fprintf(&b, "%s <http://x/name> \"entity %d\" .\n", subj, i/4)
		case 1:
			fmt.Fprintf(&b, "%s <http://x/group> \"g%d\"@en .\n", subj, rng.Intn(20))
		case 2:
			fmt.Fprintf(&b, "%s <http://x/value> \"%d\"^^<%s> .\n", subj, rng.Intn(1000), rdf.XSDInteger)
		default:
			fmt.Fprintf(&b, "%s <%s> <http://x/T%d> .\n", subj, rdf.RDFType, rng.Intn(5))
		}
		if i%97 == 0 {
			b.WriteString("# comment\n\n")
		}
		if i%113 == 0 && i > 0 {
			// Exact duplicate of the first statement: dedup fodder.
			b.WriteString("<http://x/e0> <http://x/name> \"entity 0\" .\n")
		}
	}
	return b.String()
}

// genTriples returns the statements of subjects synthetic subjects, grouped
// by subject and, within a subject, by predicate, which is the order
// rdf.TurtleWriter renders them in. Terms repeat across subjects, some
// subjects are blank nodes, and every fifth subject repeats a statement
// beside its first copy.
func genTriples(subjects int, seed int64) []rdf.Triple {
	rng := rand.New(rand.NewSource(seed))
	var out []rdf.Triple
	for i := 0; i < subjects; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))
		if i%7 == 3 {
			s = rdf.NewBlank(fmt.Sprintf("b%d", i))
		}
		add := func(p string, o rdf.Term) {
			out = append(out, rdf.Triple{S: s, P: rdf.NewIRI(p), O: o})
		}
		add("http://x/name", rdf.NewString(fmt.Sprintf("entity %d", i)))
		add("http://x/name", rdf.NewLangString(fmt.Sprintf("g%d", rng.Intn(20)), "en"))
		add("http://x/value", rdf.NewInt(int64(rng.Intn(1000))))
		add(rdf.RDFType, rdf.NewIRI(fmt.Sprintf("http://x/T%d", rng.Intn(5))))
		if i%5 == 0 {
			out = append(out, out[len(out)-1])
		}
		add("http://x/knows", rdf.NewIRI(fmt.Sprintf("http://x/e%d", rng.Intn(subjects))))
	}
	return out
}

// TestLoadersMatchAddLoop is the bulk loaders' oracle: loading a document
// rendered from generated triples, whatever the format, worker count or
// size, leaves the store and its dictionary exactly as an Add loop over the
// triples does, in one generation bump. A failed load leaves the store
// empty and its generation unchanged.
func TestLoadersMatchAddLoop(t *testing.T) {
	procs := func(n int, load func() (int, error)) (int, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
		return load()
	}
	for _, fx := range []struct {
		name     string
		subjects int
		large    bool
	}{{"small", 60, false}, {"large", 1500, true}} {
		triples := genTriples(fx.subjects, 1)
		var nt, ttl strings.Builder
		if err := rdf.NewWriter(&nt).WriteAll(triples); err != nil {
			t.Fatal(err)
		}
		if err := rdf.NewTurtleWriter(&ttl, map[string]string{"x": "http://x/"}).WriteAll(triples); err != nil {
			t.Fatal(err)
		}
		if large := nt.Len() >= serialThreshold; large != fx.large {
			t.Fatalf("%s fixture is %d bytes against a %d-byte serial threshold", fx.name, nt.Len(), serialThreshold)
		}
		ref := New("ds", rdf.NewDict())
		wantAdded := 0
		for _, tr := range triples {
			if ref.Add(tr) {
				wantAdded++
			}
		}
		for _, l := range []struct {
			name string
			// load loads the fixture, followed by a malformed statement
			// when bad is set.
			load func(s *Store, bad bool) (int, error)
			// parses is false for a loader that takes triples, not a
			// document, and so cannot fail.
			parses bool
		}{
			{"ntriples/procs1", func(s *Store, bad bool) (int, error) {
				return procs(1, func() (int, error) {
					return LoadNTriples(s, strings.NewReader(breakDoc(nt.String(), bad, ntBad)), LoadOptions{})
				})
			}, true},
			{"ntriples/procs4", func(s *Store, bad bool) (int, error) {
				return procs(4, func() (int, error) {
					return LoadNTriples(s, strings.NewReader(breakDoc(nt.String(), bad, ntBad)), LoadOptions{})
				})
			}, true},
			{"turtle", func(s *Store, bad bool) (int, error) {
				return LoadTurtle(s, strings.NewReader(breakDoc(ttl.String(), bad, ttlBad)), LoadOptions{})
			}, true},
			{"Load", func(s *Store, bad bool) (int, error) {
				return s.Load(triples), nil
			}, false},
		} {
			t.Run(fx.name+"/"+l.name, func(t *testing.T) {
				s := New("ds", rdf.NewDict())
				n, err := l.load(s, false)
				if err != nil {
					t.Fatal(err)
				}
				if n != wantAdded {
					t.Errorf("added %d, Add loop added %d", n, wantAdded)
				}
				if g := s.Generation(); g != uint64(wantAdded) {
					t.Errorf("generation %d after one load, want %d", g, wantAdded)
				}
				if g, w := s.Dict().Len(), ref.Dict().Len(); g != w {
					t.Fatalf("dictionary holds %d terms, Add loop %d", g, w)
				}
				for id := rdf.TermID(1); int(id) <= ref.Dict().Len(); id++ {
					if g, w := s.Dict().Term(id), ref.Dict().Term(id); g != w {
						t.Fatalf("term %d is %v, Add loop %v", id, g, w)
					}
				}
				if !bytes.Equal(snapshotBytes(t, s), snapshotBytes(t, ref)) {
					t.Error("snapshot differs from the Add loop's")
				}
				if !l.parses {
					return
				}
				failed := New("ds", rdf.NewDict())
				if _, err := l.load(failed, true); err == nil {
					t.Fatal("malformed document loaded without error")
				}
				if failed.Len() != 0 || failed.Generation() != 0 {
					t.Errorf("failed load left %d triples at generation %d, want 0 and 0", failed.Len(), failed.Generation())
				}
			})
		}
	}
}

// Malformed statements that breakDoc appends to a fixture.
const (
	ntBad  = "<http://x/bad> <http://x/p> .\n"
	ttlBad = "x:a x:broken\n"
)

func breakDoc(doc string, bad bool, tail string) string {
	if bad {
		return doc + tail
	}
	return doc
}

func snapshotBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadNTriplesSerialParallelIdentical is the loader's determinism
// contract: a load parsed by 8 workers produces a byte-identical snapshot,
// the same subject ids in the same first-sight order (term ids included),
// and the same stats as one parsed by a single worker.
func TestLoadNTriplesSerialParallelIdentical(t *testing.T) {
	doc := genNTriples(6000, 7)
	load := func(procs int) (*Store, int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := New("ds", rdf.NewDict())
		n, err := LoadNTriples(s, strings.NewReader(doc), LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s, n
	}
	serial, nSerial := load(1)
	parallel, nParallel := load(8)
	if nSerial != nParallel {
		t.Fatalf("added counts differ: serial %d, parallel %d", nSerial, nParallel)
	}
	if nSerial == 0 {
		t.Fatal("nothing loaded")
	}
	if got, want := snapshotBytes(t, parallel), snapshotBytes(t, serial); !bytes.Equal(got, want) {
		t.Error("parallel load snapshot differs from serial load snapshot")
	}
	// Term ids are assigned in input order whatever the worker count, so
	// the raw id slices must match, not just the terms.
	sSubj, pSubj := serial.Subjects(), parallel.Subjects()
	if len(sSubj) != len(pSubj) {
		t.Fatalf("subject counts differ: %d vs %d", len(sSubj), len(pSubj))
	}
	for i := range sSubj {
		if sSubj[i] != pSubj[i] {
			t.Fatalf("subject id %d differs: serial %d, parallel %d", i, sSubj[i], pSubj[i])
		}
	}
	if serial.Dict().Len() != parallel.Dict().Len() {
		t.Errorf("dict sizes differ: %d vs %d", serial.Dict().Len(), parallel.Dict().Len())
	}
	if s, p := serial.Stats(), parallel.Stats(); s != p {
		t.Errorf("stats differ: %v vs %v", s, p)
	}
}

// TestLoadNTriplesMatchesIncrementalLoad checks the bulk path against a
// one-Add-per-triple loop on a document with comments, blank lines and
// duplicates far from their first copy.
func TestLoadNTriplesMatchesIncrementalLoad(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	doc := genNTriples(8000, 11)
	chunks, err := rdf.ParseNTriples([]byte(doc), 1)
	if err != nil {
		t.Fatal(err)
	}
	incremental := New("ds", rdf.NewDict())
	for _, tr := range chunks[0] {
		incremental.Add(tr)
	}
	bulk := New("ds", rdf.NewDict())
	if _, err := LoadNTriples(bulk, strings.NewReader(doc), LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotBytes(t, bulk), snapshotBytes(t, incremental); !bytes.Equal(got, want) {
		t.Error("bulk load snapshot differs from incremental load snapshot")
	}
}

// TestLoadNTriplesError: at one worker and at four, the load reports the
// first malformed line with its global line number and leaves the store
// unchanged.
func TestLoadNTriplesError(t *testing.T) {
	doc := genNTriples(4000, 3) + "<http://x/bad> <http://x/p> .\n" + genNTriples(4000, 4)
	wantLine := strings.Count(genNTriples(4000, 3), "\n") + 1
	if len(doc) < serialThreshold {
		t.Fatalf("fixture is %d bytes, below the %d-byte serial threshold", len(doc), serialThreshold)
	}
	for _, c := range []struct {
		name  string
		procs int
	}{{"serial", 1}, {"parallel", 4}} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			s := New("ds", rdf.NewDict())
			_, err := LoadNTriples(s, strings.NewReader(doc), LoadOptions{})
			if err == nil {
				t.Fatal("want parse error")
			}
			if want := fmt.Sprintf("store: load ds: ntriples: line %d: ", wantLine); !strings.HasPrefix(err.Error(), want) {
				t.Errorf("error %q, want prefix %q", err, want)
			}
			if s.Len() != 0 {
				t.Errorf("store has %d triples after failed load, want 0", s.Len())
			}
		})
	}
}

// TestFailedLoadLeavesDictUnchanged: a document that fails to parse puts
// no term into the shared dictionary, however many valid statements
// precede the error.
func TestFailedLoadLeavesDictUnchanged(t *testing.T) {
	triples := genTriples(100, 2)
	if len(triples) <= 512 {
		t.Fatalf("fixture has %d statements, want more than 512", len(triples))
	}
	var nt, ttl strings.Builder
	if err := rdf.NewWriter(&nt).WriteAll(triples); err != nil {
		t.Fatal(err)
	}
	if err := rdf.NewTurtleWriter(&ttl, map[string]string{"x": "http://x/"}).WriteAll(triples); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		load func(*Store, io.Reader, LoadOptions) (int, error)
		doc  string
	}{
		{"ntriples", LoadNTriples, nt.String() + ntBad},
		{"turtle", LoadTurtle, ttl.String() + ttlBad},
	} {
		t.Run(c.name, func(t *testing.T) {
			dict := rdf.NewDict()
			dict.InternIRI("http://x/already")
			s := New("ds", dict)
			if _, err := c.load(s, strings.NewReader(c.doc), LoadOptions{}); err == nil {
				t.Fatal("want parse error")
			}
			if n := dict.Len(); n != 1 {
				t.Errorf("failed load left %d terms in the dictionary, want 1", n)
			}
		})
	}
}

// TestLoadTurtle: the Turtle loader matches ParseTurtle + Load.
func TestLoadTurtle(t *testing.T) {
	doc := `@prefix x: <http://x/> .
x:a x:name "alpha" ; x:knows x:b , x:c .
x:b x:name "beta" .
x:c x:name "gamma" ; x:age "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
`
	triples, err := rdf.ParseTurtle(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := New("ds", rdf.NewDict())
	want.Load(triples)

	got := New("ds", rdf.NewDict())
	n, err := LoadTurtle(got, strings.NewReader(doc), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != want.Len() {
		t.Fatalf("added %d triples, want %d", n, want.Len())
	}
	if g, w := snapshotBytes(t, got), snapshotBytes(t, want); !bytes.Equal(g, w) {
		t.Error("turtle loader snapshot differs from ParseTurtle+Add snapshot")
	}

	bad := New("ds", rdf.NewDict())
	if _, err := LoadTurtle(bad, strings.NewReader(doc+"x:a x:broken\n"), LoadOptions{}); err == nil {
		t.Error("want parse error on malformed turtle")
	}
	if bad.Len() != 0 {
		t.Errorf("store has %d triples after failed turtle load, want 0", bad.Len())
	}
}

// TestLoadMetrics: a load at or above serialThreshold takes the parallel
// path across GOMAXPROCS workers and populates the load.parallel.*
// instruments with what that path did.
func TestLoadMetrics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	reg := obs.NewRegistry()
	s := New("ds", rdf.NewDict())
	doc := genNTriples(6000, 5)
	if len(doc) < serialThreshold {
		t.Fatalf("fixture is %d bytes, below the %d-byte serial threshold", len(doc), serialThreshold)
	}
	if _, err := LoadNTriples(s, strings.NewReader(doc), LoadOptions{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	wantParsed := int64(strings.Count(doc, " .\n"))
	if got := reg.Counter(obs.LoadParallelTriples).Value(); got != wantParsed {
		t.Errorf("%s = %d, want %d", obs.LoadParallelTriples, got, wantParsed)
	}
	if got := reg.Counter(obs.LoadParallelChunks).Value(); got < 2 {
		t.Errorf("%s = %d, want >= 2", obs.LoadParallelChunks, got)
	}
	if got := reg.Gauge(obs.LoadParallelWorkers).Value(); got != 4 {
		t.Errorf("%s = %d, want 4", obs.LoadParallelWorkers, got)
	}
	if got := reg.Histogram(obs.LoadParallelNS).Snapshot().Count; got != 1 {
		t.Errorf("%s count = %d, want 1", obs.LoadParallelNS, got)
	}
}

// TestAddIDsMatchesAddID: the bulk insert is behaviorally identical to a
// serial AddID loop.
func TestAddIDsMatchesAddID(t *testing.T) {
	dict := rdf.NewDict()
	rng := rand.New(rand.NewSource(9))
	ids := make([]rdf.TripleID, 0, 6000)
	for i := 0; i < 6000; i++ {
		ids = append(ids, rdf.TripleID{
			S: dict.Intern(rdf.NewIRI(fmt.Sprintf("http://x/e%d", rng.Intn(800)))),
			P: dict.Intern(rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(12)))),
			O: dict.Intern(rdf.NewString(fmt.Sprintf("v%d", rng.Intn(400)))),
		})
	}
	one := New("ds", dict)
	added := 0
	for _, id := range ids {
		if one.AddID(id) {
			added++
		}
	}
	bulk := New("ds", dict)
	if got := bulk.AddIDs(ids); got != added {
		t.Fatalf("AddIDs added %d, AddID loop added %d", got, added)
	}
	if g, w := snapshotBytes(t, bulk), snapshotBytes(t, one); !bytes.Equal(g, w) {
		t.Error("bulk snapshot differs from serial snapshot")
	}
	if g, w := bulk.Stats(), one.Stats(); g != w {
		t.Errorf("stats differ: %v vs %v", g, w)
	}
	if g, w := bulk.Generation(), one.Generation(); g != w {
		t.Errorf("generation %d, AddID loop %d", g, w)
	}
	// Index equivalence over every key actually used.
	for _, p := range one.Predicates() {
		if g, w := bulk.Count(rdf.NoTerm, p, rdf.NoTerm), one.Count(rdf.NoTerm, p, rdf.NoTerm); g != w {
			t.Errorf("Count(_, %d, _) = %d, want %d", p, g, w)
		}
	}
	for _, subj := range one.Subjects() {
		g := bulk.Match(subj, rdf.NoTerm, rdf.NoTerm)
		w := one.Match(subj, rdf.NoTerm, rdf.NoTerm)
		if len(g) != len(w) {
			t.Fatalf("Match(%d) lengths differ: %d vs %d", subj, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("Match(%d)[%d] = %v, want %v", subj, i, g[i], w[i])
			}
		}
	}
	// A second batch appends, respecting cross-batch dedup.
	if got := bulk.AddIDs(ids[:100]); got != 0 {
		t.Errorf("re-adding existing triples added %d, want 0", got)
	}
}
