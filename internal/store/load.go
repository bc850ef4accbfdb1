package store

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alex/internal/obs"
	"alex/internal/rdf"
)

// Bulk loaders: parallel N-Triples loading and pipelined Turtle loading.
//
// LoadNTriples is the parallel hot path: the input is split on line
// boundaries, chunks are parsed concurrently, terms are interned in a
// deterministic two-phase scheme (each chunk's first-occurrence term list
// is interned serially in chunk order — assigning exactly the ids a serial
// loader would — then every chunk resolves its triples to ids in parallel
// against the now-complete dictionary), and the result is bulk-inserted
// with Store.AddIDs under the striped index locks. A parallel load is
// byte-for-byte equivalent to a serial one: same triple order, same term
// ids, same snapshot.
//
// Both loaders are all-or-nothing: on a parse error nothing is inserted
// and the store is unchanged (the serial Reader's incremental Add loop, by
// contrast, keeps the triples that preceded the error).

// DefaultSerialThreshold is the input size, in bytes, below which
// LoadNTriples parses serially: goroutine and chunk bookkeeping costs more
// than it saves on small fixtures.
const DefaultSerialThreshold = 256 << 10

// LoadOptions configures the bulk loaders.
type LoadOptions struct {
	// Workers bounds the parser/resolver goroutines; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// SerialThreshold is the input size in bytes below which loading is
	// serial; 0 means DefaultSerialThreshold, negative disables the
	// fallback (always parallel — used by tests).
	SerialThreshold int
	// Obs receives the load.parallel.* metrics; nil disables them.
	Obs *obs.Registry
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.SerialThreshold == 0 {
		o.SerialThreshold = DefaultSerialThreshold
	}
	return o
}

// LoadNTriples reads the complete N-Triples document from r into s and
// returns the number of triples added (after deduplication). On a parse
// error the store is left unchanged.
func LoadNTriples(s *Store, r io.Reader, opt LoadOptions) (int, error) {
	opt = opt.withDefaults()
	var t0 time.Time
	if opt.Obs != nil {
		t0 = time.Now()
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("store: load %s: %w", s.name, err)
	}
	var (
		added   int
		parsed  int
		chunks  = 1
		workers = opt.Workers
	)
	if workers <= 1 || len(data) < opt.SerialThreshold {
		workers = 1
		added, parsed, err = loadSerial(s, data)
	} else {
		added, parsed, chunks, err = loadParallel(s, data, workers)
	}
	if err != nil {
		return 0, fmt.Errorf("store: load %s: %w", s.name, err)
	}
	if opt.Obs != nil {
		opt.Obs.Counter(obs.LoadParallelTriples).Add(int64(parsed))
		opt.Obs.Counter(obs.LoadParallelChunks).Add(int64(chunks))
		opt.Obs.Gauge(obs.LoadParallelWorkers).Set(int64(workers))
		opt.Obs.Histogram(obs.LoadParallelNS).Observe(time.Since(t0).Nanoseconds())
	}
	return added, nil
}

// loadSerial is the below-threshold path: one-goroutine parse, intern and
// bulk insert.
func loadSerial(s *Store, data []byte) (added, parsed int, err error) {
	chunks, err := rdf.ParseNTriplesChunks(data, 1)
	if err != nil {
		return 0, 0, err
	}
	var ids []rdf.TripleID
	for _, c := range chunks {
		for _, t := range c.Triples {
			ids = append(ids, rdf.TripleID{
				S: s.dict.Intern(t.S),
				P: s.dict.Intern(t.P),
				O: s.dict.Intern(t.O),
			})
		}
	}
	return s.AddIDs(ids), len(ids), nil
}

// loadParallel fans parsing and id resolution across workers.
func loadParallel(s *Store, data []byte, workers int) (added, parsed, chunks int, err error) {
	parsedChunks, err := rdf.ParseNTriplesChunks(data, workers)
	if err != nil {
		return 0, 0, 0, err
	}
	// Deterministic interning: chunk-ordered first-occurrence lists assign
	// ids exactly as a serial loader would (see rdf.ParsedChunk.NewTerms).
	for _, c := range parsedChunks {
		for _, tm := range c.NewTerms {
			s.dict.Intern(tm)
		}
	}
	// Parallel resolve into pre-assigned slots: chunk i owns
	// ids[offsets[i]:offsets[i+1]], so the concatenation is input order.
	offsets := make([]int, len(parsedChunks)+1)
	for i, c := range parsedChunks {
		offsets[i+1] = offsets[i] + len(c.Triples)
	}
	ids := make([]rdf.TripleID, offsets[len(parsedChunks)])
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache := make(map[rdf.Term]rdf.TermID)
			resolve := func(tm rdf.Term) rdf.TermID {
				if id, ok := cache[tm]; ok {
					return id
				}
				id, _ := s.dict.Lookup(tm) // always present after interning
				cache[tm] = id
				return id
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(parsedChunks) {
					return
				}
				out := ids[offsets[i]:offsets[i+1]]
				for j, t := range parsedChunks[i].Triples {
					out[j] = rdf.TripleID{S: resolve(t.S), P: resolve(t.P), O: resolve(t.O)}
				}
			}
		}()
	}
	wg.Wait()
	return s.AddIDs(ids), len(ids), len(parsedChunks), nil
}

// turtleBatch is the parser→interner hand-off size of LoadTurtle.
const turtleBatch = 512

// LoadTurtle reads the complete Turtle document from r into s and returns
// the number of triples added. Turtle is stateful (prefixes, predicate
// lists), so it cannot be chunk-parallelized like N-Triples; instead the
// load is pipelined: a parser goroutine streams batches of triples while
// this goroutine interns and accumulates them, and the batch sequence
// preserves document order, so the result is deterministic. On a parse
// error the store is left unchanged.
func LoadTurtle(s *Store, r io.Reader, opt LoadOptions) (int, error) {
	opt = opt.withDefaults()
	var t0 time.Time
	if opt.Obs != nil {
		t0 = time.Now()
	}
	tr, err := rdf.NewTurtleReader(r)
	if err != nil {
		return 0, fmt.Errorf("store: load %s: %w", s.name, err)
	}
	type batch struct {
		triples []rdf.Triple
		err     error
	}
	ch := make(chan batch, 4)
	go func() {
		defer close(ch)
		buf := make([]rdf.Triple, 0, turtleBatch)
		for {
			t, err := tr.Read()
			if err == io.EOF {
				ch <- batch{triples: buf}
				return
			}
			if err != nil {
				ch <- batch{err: err}
				return
			}
			buf = append(buf, t)
			if len(buf) == turtleBatch {
				ch <- batch{triples: buf}
				buf = make([]rdf.Triple, 0, turtleBatch)
			}
		}
	}()
	var ids []rdf.TripleID
	for b := range ch {
		if b.err != nil {
			return 0, fmt.Errorf("store: load %s: %w", s.name, b.err)
		}
		for _, t := range b.triples {
			ids = append(ids, rdf.TripleID{
				S: s.dict.Intern(t.S),
				P: s.dict.Intern(t.P),
				O: s.dict.Intern(t.O),
			})
		}
	}
	added := s.AddIDs(ids)
	if opt.Obs != nil {
		opt.Obs.Counter(obs.LoadParallelTriples).Add(int64(len(ids)))
		opt.Obs.Counter(obs.LoadParallelChunks).Add(1)
		opt.Obs.Gauge(obs.LoadParallelWorkers).Set(2) // parser + interner
		opt.Obs.Histogram(obs.LoadParallelNS).Observe(time.Since(t0).Nanoseconds())
	}
	return added, nil
}
