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
//
// Turtle files (.ttl) are detected by extension. The server speaks the
// SPARQL 1.1 protocol subset implemented in internal/endpoint: SELECT, ASK
// and CONSTRUCT via GET/POST, JSON / N-Triples results.
//
// When serving a federation, -timeout and -partial-ok install the fed
// fault-tolerance policy (retries, breakers, graceful degradation, and a
// timeout on each call to a source that can wait — the in-process stores
// sparqld federates cannot, so their queries are bounded by the request's
// context alone); request contexts propagate so a disconnected client
// aborts its query.
package main

import (
	"context"
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
	"alex/internal/store"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// options are the parsed command-line settings buildHandler consumes.
type options struct {
	dataFiles []string
	linksFile string
	timeout   time.Duration
	retries   int
	partialOK bool

	// Durability (internal/store snapshot.go, wal.go, durable.go): when
	// dataDir is set, the single served store runs over a snapshot+WAL
	// pair there — cold starts load the -data file and checkpoint it,
	// restarts recover from disk and skip the parse entirely.
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

func main() {
	fs := flag.NewFlagSet("sparqld", flag.ExitOnError)
	var dataFiles multiFlag
	fs.Var(&dataFiles, "data", "N-Triples or Turtle file to serve (repeatable)")
	linksFile := fs.String("links", "", "owl:sameAs link file (used with multiple -data files)")
	addr := fs.String("addr", ":8181", "listen address")
	timeout := fs.Duration("timeout", 10*time.Second, "timeout of each call to a federated source that can wait; in-process stores cannot, their queries are bounded by the request's context (0 disables)")
	retries := fs.Int("retries", 2, "retries per failed source call for federated serving")
	partialOK := fs.Bool("partial-ok", false, "federated serving tolerates unavailable sources (partial results)")
	preparedCache := fs.Int("prepared-cache", 1024, "prepared-query LRU size in entries (0 disables)")
	resultCache := fs.Int("result-cache", 256, "generation-invalidated result LRU size in entries (0 disables)")
	maxConcurrent := fs.Int("max-concurrent", 0, "max concurrently executing requests (0 = unlimited)")
	maxQueue := fs.Int("max-queue", 0, "max requests queued for an execution slot; excess shed with 503")
	perClient := fs.Int("per-client", 0, "max concurrent requests per client (0 = unlimited)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 503 responses")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain budget for in-flight requests")
	feedback := fs.Bool("feedback", false, "enable POST /feedback live link exploration (requires exactly two -data files)")
	feedbackBatch := fs.Int("feedback-batch", 64, "feedback items per applied episode batch")
	feedbackQueue := fs.Int("feedback-queue", 1024, "buffered feedback items before shedding")
	dataDir := fs.String("data-dir", "", "durable data directory (snapshot + write-ahead log); restarts recover from it instead of re-parsing -data")
	snapshotBytes := fs.Int64("snapshot", 0, "WAL size in bytes that triggers a background checkpoint (0 = checkpoint only at shutdown)")
	walFsync := fs.String("wal-fsync", "", "WAL fsync policy with -data-dir: batch (default), always, off")
	_ = fs.Parse(os.Args[1:])
	if len(dataFiles) == 0 {
		fmt.Fprintln(os.Stderr, "usage: sparqld -data <file.nt|file.ttl> [-data <file2>] [-links <file>] [-addr :8181]")
		os.Exit(2)
	}

	handler, cleanup, err := buildHandler(options{
		dataFiles:     dataFiles,
		linksFile:     *linksFile,
		timeout:       *timeout,
		retries:       *retries,
		partialOK:     *partialOK,
		preparedCache: *preparedCache,
		resultCache:   *resultCache,
		maxConcurrent: *maxConcurrent,
		maxQueue:      *maxQueue,
		perClient:     *perClient,
		retryAfter:    *retryAfter,
		feedback:      *feedback,
		feedbackBatch: *feedbackBatch,
		feedbackQueue: *feedbackQueue,
		dataDir:       *dataDir,
		snapshotBytes: *snapshotBytes,
		walFsync:      *walFsync,
	}, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparqld:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparqld:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "listening on %s (endpoint %s/sparql)\n", *addr, *addr)
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() { <-shutdown; fmt.Fprintln(os.Stderr, "draining..."); close(stop) }()
	if err := runServer(&http.Server{Handler: handler}, ln, stop, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "sparqld:", err)
		os.Exit(1)
	}
	// A final checkpoint folds the WAL into the snapshot, so the next
	// start recovers from the snapshot alone.
	if err := cleanup(); err != nil {
		fmt.Fprintln(os.Stderr, "sparqld:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "drained, bye")
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
// httptest. The query path runs behind the prepared-query and result
// caches (sized by opts; zero disables), and the whole handler behind the
// admission controller when any ingress limit is set. Progress messages
// go to logw.
//
// The returned cleanup releases whatever the handler holds open — for a
// durable store it checkpoints and closes the WAL — and is never nil.
func buildHandler(opts options, logw io.Writer) (http.Handler, func() error, error) {
	dict := rdf.NewDict()
	reg := obs.NewRegistry()
	cleanup := func() error { return nil }
	cacheCfg := endpoint.CacheConfig{PreparedSize: opts.preparedCache, ResultSize: opts.resultCache}
	if opts.feedback && (len(opts.dataFiles) != 2 || opts.dataDir != "") {
		return nil, nil, fmt.Errorf("-feedback requires exactly two -data files and no -data-dir")
	}

	if opts.dataDir != "" {
		if len(opts.dataFiles) != 1 || opts.linksFile != "" {
			return nil, nil, fmt.Errorf("-data-dir durable serving requires exactly one -data file and no -links")
		}
		st, cl, err := openDurable(opts, dict, reg, logw)
		if err != nil {
			return nil, nil, err
		}
		cache := endpoint.NewQueryCache(cacheCfg, st.Generation)
		cache.SetObserver(reg)
		handler := endpoint.NewCachedHandler(st, cache)
		handler.SetObserver(reg)
		return wrapAdmission(handler, opts, reg), cl, nil
	}

	var stores []*store.Store
	for _, path := range opts.dataFiles {
		st, err := store.NewFromFile(dict, path, store.LoadOptions{Obs: reg})
		if err != nil {
			return nil, nil, err
		}
		st.SetObserver(reg)
		fmt.Fprintf(logw, "loaded %s\n", st.Stats())
		stores = append(stores, st)
	}

	var handler *endpoint.Handler
	if len(stores) == 1 && opts.linksFile == "" {
		st := stores[0]
		cache := endpoint.NewQueryCache(cacheCfg, st.Generation)
		cache.SetObserver(reg)
		handler = endpoint.NewCachedHandler(st, cache)
	} else {
		federation := fed.New(dict, stores...)
		var links *linkset.Set
		if opts.linksFile != "" {
			var err error
			links, err = linkset.LoadSameAs(dict, opts.linksFile)
			if err != nil {
				return nil, nil, err
			}
			fmt.Fprintf(logw, "loaded %d sameAs links\n", links.Len())
			federation.SetLinks(links)
		}
		res := fed.DefaultResilience()
		res.Timeout = opts.timeout
		res.MaxRetries = opts.retries
		res.PartialResults = opts.partialOK
		federation.SetResilience(res)
		federation.SetObserver(reg)
		cache := endpoint.NewQueryCache(cacheCfg, federation.DataGeneration)
		cache.SetObserver(reg)
		handler = endpoint.NewQueryHandler(fed.CachedEndpointQueryFunc(federation, cache), func() map[string]any {
			out := map[string]any{"sources": len(stores), "links": federation.Links().Len()}
			for _, st := range stores {
				out[st.Name()] = st.Len()
			}
			return out
		})
		handler.SetTraceFunc(fed.EndpointTraceFunc(federation))
		fmt.Fprintf(logw, "serving a federation of %d sources\n", len(stores))
		if opts.feedback {
			// The engine's candidate set becomes the federation's sameAs
			// links; every applied feedback batch pushes the refreshed set,
			// which bumps the data generation and invalidates cached
			// results.
			engine := core.New(stores[0], stores[1], core.Defaults())
			engine.SetObserver(reg)
			if links != nil {
				engine.SetInitialLinks(links.Links())
			}
			federation.SetLinks(engine.Candidates())
			stream := engine.FeedbackStream(core.StreamConfig{
				Capacity:  opts.feedbackQueue,
				BatchSize: opts.feedbackBatch,
			})
			handler.SetFeedbackFunc(endpoint.EngineFeedbackFunc(engine, stream, dict, func(core.EpisodeStats) {
				federation.SetLinks(engine.Candidates())
			}))
			fmt.Fprintf(logw, "live feedback enabled (batch %d, queue %d)\n", opts.feedbackBatch, opts.feedbackQueue)
		}
	}
	handler.SetObserver(reg)
	return wrapAdmission(handler, opts, reg), cleanup, nil
}

// wrapAdmission puts the handler behind the admission controller when any
// ingress limit is configured.
func wrapAdmission(handler *endpoint.Handler, opts options, reg *obs.Registry) http.Handler {
	if opts.maxConcurrent > 0 || opts.maxQueue > 0 || opts.perClient > 0 {
		adm := endpoint.NewAdmission(handler, endpoint.AdmissionConfig{
			MaxConcurrent: opts.maxConcurrent,
			MaxQueue:      opts.maxQueue,
			PerClient:     opts.perClient,
			RetryAfter:    opts.retryAfter,
		})
		adm.SetObserver(reg)
		return adm
	}
	return handler
}

// openDurable opens the single served store over its snapshot+WAL pair in
// opts.dataDir. A restart recovers entirely from disk; a cold start (or an
// empty directory) parses the -data file once and checkpoints it. With
// opts.snapshotBytes > 0 a background goroutine folds the WAL into a fresh
// snapshot whenever it outgrows that size; the returned cleanup stops it,
// takes a final checkpoint and closes the log.
func openDurable(opts options, dict *rdf.Dict, reg *obs.Registry, logw io.Writer) (*store.Store, func() error, error) {
	fsync, err := store.ParseFsyncMode(opts.walFsync)
	if err != nil {
		return nil, nil, err
	}
	rotate := opts.snapshotBytes
	if rotate <= 0 {
		rotate = math.MaxInt64 // shutdown-only checkpoints
	}
	path := opts.dataFiles[0]
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	d, err := store.OpenDurable(name, dict, store.DurableOptions{
		Dir: opts.dataDir, Fsync: fsync, RotateBytes: rotate, Obs: reg,
	})
	if err != nil {
		return nil, nil, err
	}
	st := d.Store()
	st.SetObserver(reg)
	rec := d.RecoveryStats()
	if rec.SnapshotLoaded || rec.WALRecords > 0 {
		fmt.Fprintf(logw, "recovered %s from %s: %d snapshot triples + %d wal records (%d torn bytes)\n",
			name, opts.dataDir, rec.SnapshotTriples, rec.WALRecords, rec.TornBytes)
		fmt.Fprintf(logw, "loaded %s\n", st.Stats())
	} else {
		if _, err := store.LoadFile(st, path, store.LoadOptions{Obs: reg}); err != nil {
			_ = d.Close()
			return nil, nil, err
		}
		fmt.Fprintf(logw, "loaded %s\n", st.Stats())
		if err := d.Checkpoint(); err != nil {
			_ = d.Close()
			return nil, nil, err
		}
		fmt.Fprintf(logw, "checkpointed %s into %s\n", name, opts.dataDir)
	}
	stopRotate := make(chan struct{})
	var rotateDone chan struct{}
	if opts.snapshotBytes > 0 {
		rotateDone = make(chan struct{})
		go func() {
			defer close(rotateDone)
			t := time.NewTicker(5 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-stopRotate:
					return
				case <-t.C:
					// Errors are sticky in the WAL and surface at Close.
					_, _ = d.MaybeRotate()
				}
			}
		}()
	}
	return st, func() error {
		close(stopRotate)
		if rotateDone != nil {
			<-rotateDone
		}
		return d.Close()
	}, nil
}
