package store

import (
	"bytes"
	"fmt"
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

func snapshotBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadNTriplesSerialParallelIdentical is the loader's determinism
// contract: a parallel load produces a byte-identical snapshot, the same
// subject ids in the same first-sight order (term ids included), and the
// same stats as a serial load of the same document.
func TestLoadNTriplesSerialParallelIdentical(t *testing.T) {
	doc := []byte(genNTriples(6000, 7))

	serial := New("ds", rdf.NewDict())
	nSerial, _, err := loadSerial(serial, doc)
	if err != nil {
		t.Fatal(err)
	}
	parallel := New("ds", rdf.NewDict())
	nParallel, _, _, err := loadParallel(parallel, doc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if nSerial != nParallel {
		t.Fatalf("added counts differ: serial %d, parallel %d", nSerial, nParallel)
	}
	if nSerial == 0 {
		t.Fatal("nothing loaded")
	}
	if got, want := snapshotBytes(t, parallel), snapshotBytes(t, serial); !bytes.Equal(got, want) {
		t.Error("parallel load snapshot differs from serial load snapshot")
	}
	// Term ids are assigned in the serial first-intern order even under the
	// parallel loader, so the raw id slices must match, not just the terms.
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

// TestLoadNTriplesMatchesIncrementalLoad checks the bulk path against the
// original one-Add-per-triple loop.
func TestLoadNTriplesMatchesIncrementalLoad(t *testing.T) {
	doc := genNTriples(2000, 11)
	triples, err := rdf.NewReader(strings.NewReader(doc)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	incremental := New("ds", rdf.NewDict())
	incremental.Load(triples)

	bulk := New("ds", rdf.NewDict())
	if _, _, _, err := loadParallel(bulk, []byte(doc), 4); err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotBytes(t, bulk), snapshotBytes(t, incremental); !bytes.Equal(got, want) {
		t.Error("bulk load snapshot differs from incremental load snapshot")
	}
}

// TestLoadNTriplesError: both paths report the serial reader's first error
// (same line, same message) and leave the store unchanged.
func TestLoadNTriplesError(t *testing.T) {
	doc := genNTriples(400, 3) + "<http://x/bad> <http://x/p> .\n" + genNTriples(400, 4)
	wantLine := strings.Count(genNTriples(400, 3), "\n") + 1

	_, serialErr := rdf.NewReader(strings.NewReader(doc)).ReadAll()
	if serialErr == nil {
		t.Fatal("serial reader accepted malformed input")
	}
	for _, tc := range []struct {
		name string
		load func(s *Store, data []byte) error
	}{
		{"serial", func(s *Store, data []byte) error { _, _, err := loadSerial(s, data); return err }},
		{"parallel", func(s *Store, data []byte) error { _, _, _, err := loadParallel(s, data, 4); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New("ds", rdf.NewDict())
			err := tc.load(s, []byte(doc))
			if err == nil {
				t.Fatal("want parse error")
			}
			if !strings.Contains(err.Error(), serialErr.Error()) {
				t.Errorf("error %q does not embed the serial reader's %q", err, serialErr)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("line %d", wantLine)) {
				t.Errorf("error %q lacks global line number %d", err, wantLine)
			}
			if s.Len() != 0 {
				t.Errorf("store has %d triples after failed load, want 0", s.Len())
			}
		})
	}
}

// TestLoadTurtle: the pipelined Turtle loader matches ParseTurtle + Add.
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
