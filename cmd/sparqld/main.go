// Command sparqld serves RDF data as a SPARQL-protocol HTTP endpoint — one
// node of a distributed federation (see cmd/fedsparql and internal/fed's
// remote sources). With several -data files (optionally plus -links), the
// node serves a whole federation with owl:sameAs bridging: hierarchical
// federation.
//
// Usage:
//
//	sparqld -data dbpedia.nt -addr :8181
//	sparqld -data dbpedia.nt -data nytimes.nt -links truth.nt -addr :8282
//	curl 'http://localhost:8181/sparql?query=SELECT+?s+WHERE+{?s+?p+?o}+LIMIT+3'
//	curl  http://localhost:8181/stats
//	curl  http://localhost:8181/metrics
//	curl 'http://localhost:8181/debug/trace?query=SELECT+?s+WHERE+{?s+?p+?o}+LIMIT+3'
//	curl  http://localhost:8181/debug/trace
//
// /debug/trace runs a query as /sparql does, caches included, and answers
// with its span tree; on a federation each bgp span holds the plan, one
// step per planned pattern with the sources chosen for it. A GET with no
// query lists the node's kept traces, feedback episodes among them.
//
// Turtle files (.ttl) are detected by extension. The server speaks the
// SPARQL 1.1 protocol subset implemented in internal/endpoint: SELECT, ASK
// and CONSTRUCT via GET/POST, JSON / N-Triples results.
//
// With -data-dir each -data file is a durable store there, so a restart
// recovers every member of a federation from disk. A federation runs under
// fed.DefaultResilience with no flags to tune it: its in-process stores
// never fail or wait. A disconnected client aborts its query. A usage error
// exits 2, a load or I/O error 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"alex/internal/core"
	"alex/internal/endpoint"
	"alex/internal/fed"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/serve"
	"alex/internal/store"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// config is sparqld's command line; parseConfig binds every flag straight
// into it.
type config struct {
	dataFiles    multiFlag
	linksFile    string
	addr         string
	drainTimeout time.Duration

	// Durability (internal/store snapshot.go, wal.go, durable.go): with
	// dataDir set, each -data file is a store over its own snapshot+WAL
	// pair there — cold starts load the file and checkpoint it, restarts
	// recover from disk and skip the parse entirely.
	dataDir       string
	snapshotBytes int64 // WAL size triggering a background checkpoint; 0 = shutdown only
	walFsync      string

	// Serving-at-load settings (internal/endpoint cache.go, admission.go).
	preparedCache int
	resultCache   int
	maxConcurrent int
	maxQueue      int
	perClient     int
	retryAfter    time.Duration

	// Streaming feedback (internal/core stream.go): with -feedback a
	// two-source federation runs a live ALEX engine whose candidate set
	// backs the sameAs links, and POST /feedback feeds it.
	feedback      bool
	feedbackBatch int
	feedbackQueue int
}

// parseConfig parses and validates args, reporting a usage error to
// stderr.
func parseConfig(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("sparqld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Var(&c.dataFiles, "data", "N-Triples or Turtle file to serve (repeatable)")
	fs.StringVar(&c.linksFile, "links", "", "owl:sameAs link file (used with multiple -data files)")
	fs.StringVar(&c.addr, "addr", ":8181", "listen address")
	fs.IntVar(&c.preparedCache, "prepared-cache", 1024, "prepared-query LRU size in entries (0 disables)")
	fs.IntVar(&c.resultCache, "result-cache", 256, "generation-invalidated result LRU size in entries (0 disables)")
	fs.IntVar(&c.maxConcurrent, "max-concurrent", 0, "max concurrently executing requests (0 = unlimited)")
	fs.IntVar(&c.maxQueue, "max-queue", 0, "max requests queued for an execution slot; excess shed with 503")
	fs.IntVar(&c.perClient, "per-client", 0, "max concurrent requests per client (0 = unlimited)")
	fs.DurationVar(&c.retryAfter, "retry-after", time.Second, "Retry-After hint on 503 responses")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 15*time.Second, "graceful-shutdown drain budget for in-flight requests")
	fs.BoolVar(&c.feedback, "feedback", false, "enable POST /feedback live link exploration (requires exactly two -data files and no -data-dir)")
	fs.IntVar(&c.feedbackBatch, "feedback-batch", 64, "feedback items per applied episode batch")
	fs.IntVar(&c.feedbackQueue, "feedback-queue", 1024, "buffered feedback items before shedding")
	fs.StringVar(&c.dataDir, "data-dir", "", "durable data directory (a snapshot + write-ahead log per -data file); restarts recover from it instead of re-parsing -data")
	fs.Int64Var(&c.snapshotBytes, "snapshot", 0, "WAL size in bytes that triggers a background checkpoint (0 = checkpoint only at shutdown)")
	fs.StringVar(&c.walFsync, "wal-fsync", "", "WAL fsync policy with -data-dir: batch (default), always, off")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if err := c.validate(); err != nil {
		fmt.Fprintln(stderr, "sparqld:", err)
		return c, err
	}
	return c, nil
}

// validate checks every rule that spans flags.
func (c config) validate() error {
	if len(c.dataFiles) == 0 {
		return errors.New("at least one -data file is required")
	}
	if c.feedback && (len(c.dataFiles) != 2 || c.dataDir != "") {
		return errors.New("-feedback requires exactly two -data files and no -data-dir")
	}
	if c.dataDir == "" {
		return nil
	}
	if _, err := store.ParseFsyncMode(c.walFsync); err != nil {
		return err
	}
	// A store's files in dataDir are named after it, so two stores with
	// one name would recover each other's data.
	seen := map[string]bool{}
	for _, path := range c.dataFiles {
		name := storeName(path)
		if seen[name] {
			return fmt.Errorf("-data-dir: two -data files would share the store name %q", name)
		}
		seen[name] = true
	}
	return nil
}

// storeName is the name a -data file's store gets: its base name without
// the extension, as store.NewFromFile names it.
func storeName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is main with its exit status returned: 2 for a usage error, 1 for a
// load or I/O error. It serves until SIGINT or SIGTERM, then drains and
// takes the final checkpoint.
func run(args []string, stderr io.Writer) int {
	cfg, err := parseConfig(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sparqld:", err)
		return 1
	}
	handler, cleanup, err := buildHandler(cfg, stderr)
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fail(errors.Join(err, cleanup()))
	}
	fmt.Fprintf(stderr, "listening on %s (endpoint %s/sparql)\n", cfg.addr, cfg.addr)
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() { <-shutdown; fmt.Fprintln(stderr, "draining..."); close(stop) }()
	if err := runServer(&http.Server{Handler: handler}, ln, stop, cfg.drainTimeout); err != nil {
		return fail(errors.Join(err, cleanup()))
	}
	// A final checkpoint folds each WAL into its snapshot, so the next
	// start recovers from the snapshots alone.
	if err := cleanup(); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stderr, "drained, bye")
	return 0
}

// runServer serves on ln until stop is closed, then shuts down gracefully:
// no new connections are accepted while in-flight requests get up to drain
// to complete. Split from main so tests can drive the full lifecycle
// in-process.
func runServer(srv *http.Server, ln net.Listener, stop <-chan struct{}, drain time.Duration) error {
	done := make(chan error, 1)
	go func() {
		<-stop
		ctx := context.Background()
		if drain > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, drain)
			defer cancel()
		}
		done <- srv.Shutdown(ctx)
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return <-done
}

// buildHandler loads the data and assembles the HTTP handler — everything
// main does short of binding a socket, so tests can serve it with
// httptest. One store without -links is served alone, anything else as a
// federation. The query path runs behind the prepared-query and result
// caches (sized by cfg; zero disables), and the whole handler behind the
// admission controller when any ingress limit is set. Progress messages
// go to logw. The returned cleanup releases whatever the handler holds
// open — it checkpoints and closes durable stores — and is never nil.
func buildHandler(cfg config, logw io.Writer) (http.Handler, func() error, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	dict := rdf.NewDict()
	reg := obs.NewRegistry()
	stores, cleanup, err := openStores(cfg, dict, reg, logw)
	if err != nil {
		return nil, nil, err
	}
	cacheCfg := endpoint.CacheConfig{PreparedSize: cfg.preparedCache, ResultSize: cfg.resultCache}
	admission := endpoint.AdmissionConfig{MaxConcurrent: cfg.maxConcurrent, MaxQueue: cfg.maxQueue,
		PerClient: cfg.perClient, RetryAfter: cfg.retryAfter}
	if len(stores) == 1 && cfg.linksFile == "" {
		st := stores[0]
		cache := endpoint.NewQueryCache(cacheCfg, st.Generation)
		cache.SetObserver(reg)
		handler := endpoint.NewCachedHandler(st, cache)
		handler.SetObserver(reg)
		return serve.Admit(handler, admission, reg), cleanup, nil
	}
	federation := fed.New(dict, stores...)
	federation.SetResilience(fed.DefaultResilience())
	scfg := serve.Config{Stream: core.StreamConfig{Capacity: cfg.feedbackQueue, BatchSize: cfg.feedbackBatch},
		Cache: cacheCfg, Admission: admission, Obs: reg}
	if cfg.linksFile != "" {
		links, err := linkset.LoadSameAs(dict, cfg.linksFile)
		if err != nil {
			return nil, nil, errors.Join(err, cleanup())
		}
		fmt.Fprintf(logw, "loaded %d sameAs links\n", links.Len())
		if !cfg.feedback {
			federation.SetLinks(links)
		}
		scfg.Links = links.Sorted() // an engine's initial candidates
	}
	fmt.Fprintf(logw, "serving a federation of %d sources\n", len(stores))
	var left, right *store.Store
	if cfg.feedback {
		// The engine's candidate set becomes the federation's sameAs links
		// and POST /feedback feeds it.
		engine := core.Defaults()
		scfg.Engine, left, right = &engine, stores[0], stores[1]
		fmt.Fprintf(logw, "live feedback enabled (batch %d, queue %d)\n", cfg.feedbackBatch, cfg.feedbackQueue)
	}
	return serve.New(federation, left, right, scfg).Handler(func() map[string]any {
		out := map[string]any{"sources": len(stores), "links": federation.Links().Len()}
		for _, st := range stores {
			out[st.Name()] = st.Len()
		}
		return out
	}), cleanup, nil
}

// openStores makes one store over dict per -data file, durable under
// cfg.dataDir. With cfg.snapshotBytes > 0 one goroutine checkpoints every
// durable store whose WAL outgrows that size. The returned cleanup stops it
// and closes (checkpoints) every durable store, joining their errors.
func openStores(cfg config, dict *rdf.Dict, reg *obs.Registry, logw io.Writer) ([]*store.Store, func() error, error) {
	var stores []*store.Store
	var durables []*store.Durable
	closeAll := func() (err error) {
		for _, d := range durables {
			err = errors.Join(err, d.Close())
		}
		return err
	}
	for _, path := range cfg.dataFiles {
		if cfg.dataDir == "" {
			st, err := store.NewFromFile(dict, path, store.LoadOptions{Obs: reg})
			if err != nil {
				return nil, nil, err
			}
			st.SetObserver(reg)
			fmt.Fprintf(logw, "loaded %s\n", st.Stats())
			stores = append(stores, st)
			continue
		}
		d, err := openDurable(cfg, path, dict, reg, logw)
		if err != nil {
			return nil, nil, errors.Join(err, closeAll())
		}
		durables = append(durables, d)
		stores = append(stores, d.Store())
	}
	if len(durables) == 0 || cfg.snapshotBytes <= 0 {
		return stores, closeAll, nil
	}
	stopRotate, rotateDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rotateDone)
		t := time.NewTicker(5 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-stopRotate:
				return
			case <-t.C:
				for _, d := range durables {
					// Errors are sticky in the WAL and surface at Close.
					_, _ = d.MaybeRotate()
				}
			}
		}
	}()
	return stores, func() error {
		close(stopRotate)
		<-rotateDone
		return closeAll()
	}, nil
}

// openDurable opens the store for one -data file over its snapshot+WAL
// pair in cfg.dataDir. A restart recovers entirely from disk; a cold start
// (or an empty directory) parses the file once and checkpoints it.
func openDurable(cfg config, path string, dict *rdf.Dict, reg *obs.Registry, logw io.Writer) (*store.Durable, error) {
	fsync, err := store.ParseFsyncMode(cfg.walFsync)
	if err != nil {
		return nil, err
	}
	rotate := cfg.snapshotBytes
	if rotate <= 0 {
		rotate = math.MaxInt64 // shutdown-only checkpoints
	}
	name := storeName(path)
	d, err := store.OpenDurable(name, dict, store.DurableOptions{
		Dir: cfg.dataDir, Fsync: fsync, RotateBytes: rotate, Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	st := d.Store()
	st.SetObserver(reg)
	if rec := d.RecoveryStats(); rec.SnapshotLoaded || rec.WALRecords > 0 {
		fmt.Fprintf(logw, "recovered %s from %s: %d snapshot triples + %d wal records (%d torn bytes)\n",
			name, cfg.dataDir, rec.SnapshotTriples, rec.WALRecords, rec.TornBytes)
		fmt.Fprintf(logw, "loaded %s\n", st.Stats())
		return d, nil
	}
	// A failed cold start takes no checkpoint, or the next start would
	// recover the empty store instead of parsing the file.
	if _, err := store.LoadFile(st, path, store.LoadOptions{Obs: reg}); err != nil {
		d.Kill()
		return nil, err
	}
	fmt.Fprintf(logw, "loaded %s\n", st.Stats())
	if err := d.Checkpoint(); err != nil {
		d.Kill()
		return nil, err
	}
	fmt.Fprintf(logw, "checkpointed %s into %s\n", name, cfg.dataDir)
	return d, nil
}
