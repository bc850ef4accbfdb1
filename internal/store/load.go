package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"alex/internal/obs"
	"alex/internal/rdf"
)

// Bulk loaders. A bulk load parses the whole document, then inserts it
// with one Store.Load, so a document that fails to parse interns nothing
// and leaves the store unchanged. N-Triples inputs of serialThreshold bytes
// or more are parsed across runtime.GOMAXPROCS(0) workers; the parsed
// triples, and so the ids, the snapshot and the WAL record, are the same
// whatever the worker count.

// LoadFile loads the RDF file at path into s — Turtle for a .ttl or
// .turtle extension, N-Triples otherwise — and returns the number of
// triples added. It is the loader every command-line tool shares.
func LoadFile(s *Store, path string, opt LoadOptions) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var n int
	if ext := strings.ToLower(filepath.Ext(path)); ext == ".ttl" || ext == ".turtle" {
		n, err = LoadTurtle(s, f, opt)
	} else {
		n, err = LoadNTriples(s, f, opt)
	}
	if err != nil {
		return n, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}

// NewFromFile is LoadFile into a new store over dict, named after the
// file: its base name without the extension.
func NewFromFile(dict *rdf.Dict, path string, opt LoadOptions) (*Store, error) {
	st := New(strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)), dict)
	if _, err := LoadFile(st, path, opt); err != nil {
		return nil, err
	}
	return st, nil
}

// serialThreshold is the input size, in bytes, below which LoadNTriples
// parses serially: goroutine and chunk bookkeeping costs more than it saves
// on small fixtures.
const serialThreshold = 256 << 10

// LoadOptions configures the bulk loaders.
type LoadOptions struct {
	// Obs receives the load.parallel.* metrics; nil disables them.
	Obs *obs.Registry
}

// LoadNTriples reads the complete N-Triples document from r into s and
// returns the number of triples added (after deduplication). On a parse
// error the store is left unchanged.
func LoadNTriples(s *Store, r io.Reader, opt LoadOptions) (int, error) {
	t0 := time.Now()
	data, err := readAll(r)
	if err != nil {
		return 0, fmt.Errorf("store: load %s: %w", s.name, err)
	}
	workers := runtime.GOMAXPROCS(0)
	if len(data) < serialThreshold {
		workers = 1
	}
	chunks, err := rdf.ParseNTriples(data, workers)
	if err != nil {
		return 0, fmt.Errorf("store: load %s: %w", s.name, err)
	}
	return loadObserved(s, chunks, workers, t0, opt.Obs), nil
}

// readAll reads r to its end into one buffer, sized up front when r tells
// its length: Len, as a bytes or strings reader does, or Stat of a regular
// *os.File, as LoadFile passes. Otherwise it is io.ReadAll.
func readAll(r io.Reader) ([]byte, error) {
	size := -1
	switch r := r.(type) {
	case interface{ Len() int }:
		size = r.Len()
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	if size < 0 {
		return io.ReadAll(r)
	}
	// MinRead spare bytes let the read that finds the end go without
	// growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// LoadTurtle reads the complete Turtle document from r into s and returns
// the number of triples added. Turtle is stateful (prefixes, predicate
// lists), so it is parsed by one worker. On a parse error the store is left
// unchanged.
func LoadTurtle(s *Store, r io.Reader, opt LoadOptions) (int, error) {
	t0 := time.Now()
	triples, err := rdf.ParseTurtle(r)
	if err != nil {
		return 0, fmt.Errorf("store: load %s: %w", s.name, err)
	}
	return loadObserved(s, [][]rdf.Triple{triples}, 1, t0, opt.Obs), nil
}

// loadObserved is s.Load(chunks...) reporting the load.parallel.* metrics
// to reg, when it is not nil, for a load that started at t0.
func loadObserved(s *Store, chunks [][]rdf.Triple, workers int, t0 time.Time, reg *obs.Registry) int {
	added := s.Load(chunks...)
	if reg != nil {
		n := 0
		for _, c := range chunks {
			n += len(c)
		}
		reg.Counter(obs.LoadParallelTriples).Add(int64(n))
		reg.Counter(obs.LoadParallelChunks).Add(int64(len(chunks)))
		reg.Gauge(obs.LoadParallelWorkers).Set(int64(workers))
		reg.Histogram(obs.LoadParallelNS).Observe(time.Since(t0).Nanoseconds())
	}
	return added
}
