package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"alex/internal/datagen"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/store"
)

// Vocabulary of the generated DBpedia–NYTimes pair (internal/datagen).
const (
	dbo        = "http://dbpedia.sim/ontology/"
	nyt        = "http://nytimes.sim/ontology/"
	benchNS    = "http://bench.invalid/"
	rdfsLabel  = "<" + rdf.RDFSLabel + ">"
	dboTeam    = "<" + dbo + "team>"
	dboPos     = "<" + dbo + "position>"
	dboBirth   = "<" + dbo + "birthDate>"
	nytLabel   = "<" + nyt + "prefLabel>"
	nytPos     = "<" + nyt + "position>"
	dataSeed   = 1 // the HTTP workloads' data never varies; -seed varies the requests
	decoyShare = 2 // one decoy link per decoyShare truth links
)

// corpus is the harness's once-per-process data: one generated pair, kept
// as N-Triples bytes and IRI pairs so every round can load it into fresh
// stores over a fresh dictionary, the way sparqld loads its -data and
// -links files.
type corpus struct {
	pair      *datagen.Pair
	nt1, nt2  []byte
	truth     [][2]string
	links     [][2]string // truth ∪ decoys: what a -links file would hold
	generateS float64
}

func newCorpus(scale float64) *corpus {
	t0 := time.Now()
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(scale, dataSeed))
	c := &corpus{pair: pair, nt1: ntriples(pair.DS1), nt2: ntriples(pair.DS2)}
	iri := func(id rdf.TermID) string { return pair.Dict.Term(id).Value }
	for _, l := range pair.Truth.Links() {
		c.truth = append(c.truth, [2]string{iri(l.Left), iri(l.Right)})
	}
	c.links = append(c.links, c.truth...)
	// Decoys give negative feedback something to reject and sameAs
	// rewriting something wrong to follow, as internal/traffic seeds them.
	s1, s2 := pair.DS1.Subjects(), pair.DS2.Subjects()
	rng := rand.New(rand.NewSource(dataSeed + 1))
	for i := 0; i < len(c.truth)/decoyShare; i++ {
		l := linkset.Link{Left: s1[rng.Intn(len(s1))], Right: s2[rng.Intn(len(s2))]}
		if !pair.Truth.Contains(l) {
			c.links = append(c.links, [2]string{iri(l.Left), iri(l.Right)})
		}
	}
	c.generateS = time.Since(t0).Seconds()
	return c
}

// ntriples serialises a store subject by subject in first-insertion
// order, so a reload reproduces the subject order the engine partitions by.
func ntriples(st *store.Store) []byte {
	var buf bytes.Buffer
	w := rdf.NewWriter(&buf)
	dict := st.Dict()
	for _, s := range st.Subjects() {
		for _, id := range st.Match(s, rdf.NoTerm, rdf.NoTerm) {
			_ = w.Write(dict.Materialize(id)) // bytes.Buffer writes cannot fail
		}
	}
	_ = w.Flush()
	return buf.Bytes()
}

// loadNT parses nt into a new store, as sparqld's load does for a -data file.
func loadNT(name string, dict *rdf.Dict, nt []byte, reg *obs.Registry) (*store.Store, error) {
	st := store.New(name, dict)
	if _, err := store.LoadNTriples(st, bytes.NewReader(nt), store.LoadOptions{Obs: reg}); err != nil {
		return nil, fmt.Errorf("load %s: %w", name, err)
	}
	if reg != nil {
		st.SetObserver(reg)
	}
	return st, nil
}

// internLinks resolves IRI pairs against a round's dictionary, as
// sparqld's loadLinks does for a -links file.
func internLinks(dict *rdf.Dict, pairs [][2]string) []linkset.Link {
	out := make([]linkset.Link, len(pairs))
	for i, p := range pairs {
		out[i] = linkset.Link{Left: dict.InternIRI(p[0]), Right: dict.InternIRI(p[1])}
	}
	return out
}

// object returns the first object of (subj, pred) in st.
func object(st *store.Store, subj rdf.TermID, predIRI string) (rdf.Term, bool) {
	p, ok := st.Dict().Lookup(rdf.NewIRI(predIRI))
	if !ok {
		return rdf.Term{}, false
	}
	for _, t := range st.Match(subj, p, rdf.NoTerm) {
		return st.Dict().Term(t.O), true
	}
	return rdf.Term{}, false
}

// literal is object in SPARQL surface syntax, "" when there is none.
func literal(st *store.Store, subj rdf.TermID, predIRI string) string {
	if t, ok := object(st, subj, predIRI); ok {
		return t.String()
	}
	return ""
}
