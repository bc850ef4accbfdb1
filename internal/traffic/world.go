package traffic

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"alex/internal/core"
	"alex/internal/datagen"
	"alex/internal/endpoint"
	"alex/internal/faultinject"
	"alex/internal/fed"
	"alex/internal/linkset"
	"alex/internal/obs"
	"alex/internal/rdf"
	"alex/internal/serve"
	"alex/internal/store"
)

// Data-set names of the generated pair; the outage schedule refers to
// federation members by these names.
const (
	dsName1 = "DBpedia"
	dsName2 = "NYTimes"
	auxName = "aux"
)

// world is the live system under test: the generated data-set pair, an
// HTTP SPARQL endpoint over DS1, and a served node whose federation's DS2
// and aux members are fault-injected and whose ALEX engine owns the link
// set.
type world struct {
	cfg  Config
	dict *rdf.Dict
	ds1  *store.Store
	ds2  *store.Store
	aux  *store.Store

	truth *linkset.Set
	node  *serve.Node

	// durable is DS1's snapshot+WAL layer when cfg.DataDir is set; fsync
	// is the parsed cfg.WALSync policy. crash_restart detaches, recovers
	// and re-attaches it, so the field is mutated only at serial barriers.
	durable *store.Durable
	fsync   store.FsyncMode

	server    *endpoint.Server
	client    *endpoint.Client
	httpTr    *http.Transport
	flaky     map[string]*faultinject.Source
	admission *endpoint.Admission // nil unless cfg.Cache

	// Streaming loop (cfg.Stream): the node's feedback stream behind the
	// endpoint's /feedback route, posted to via httpc at feedbackURL.
	feedbackURL string
	httpc       *http.Client

	// subjects1/subjects2 are the entity samples ops draw from; preds1 the
	// DS1 predicates for bound-predicate federated lookups; hotQueries the
	// fixed pool repeat_query draws from (repeats are what give the result
	// cache its hits). All fixed at build time.
	subjects1  []rdf.TermID
	subjects2  []rdf.TermID
	preds1     []rdf.TermID
	hotQueries []string

	// httpOps counts SPARQL protocol requests issued by operations
	// (including shadow re-executions); reconciled against the server's
	// own served counter at the end of the run.
	httpOps atomic.Int64

	// Serial-op state: the bulk_load, mutate_reread and live_upsert entity
	// cursors and the judged-link ledger (mutated only between batches).
	auxSeq    int
	ds1Seq    int
	liveSeq   int
	episodes  int
	judged    map[linkset.Link]bool
	confirmed []linkset.Link
	rejected  []linkset.Link

	episodeCounter *obs.Counter
}

// buildWorld generates the data sets, starts the endpoint and assembles
// the federation and engine. Everything derives from cfg.Seed.
func buildWorld(ctx context.Context, cfg Config) (*world, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("traffic: build canceled: %w", err)
	}
	pair := datagen.GeneratePair(datagen.DBpediaNYTimes(cfg.Scale, cfg.Seed))
	w := &world{
		cfg:    cfg,
		dict:   pair.Dict,
		ds1:    pair.DS1,
		ds2:    pair.DS2,
		truth:  pair.Truth,
		judged: make(map[linkset.Link]bool),
		flaky:  make(map[string]*faultinject.Source),
	}
	w.aux = store.New(auxName, pair.Dict)
	w.subjects1 = pair.DS1.Subjects()
	w.subjects2 = pair.DS2.Subjects()
	w.preds1 = pair.DS1.Predicates()
	if len(w.subjects1) == 0 || len(w.subjects2) == 0 {
		return nil, fmt.Errorf("traffic: generated pair is empty at scale %g", cfg.Scale)
	}
	if cfg.DataDir != "" {
		// Parse errors were caught by validate; attach overwrites whatever
		// the directory held, so reruns in a reused dir stay deterministic.
		w.fsync, _ = store.ParseFsyncMode(cfg.WALSync)
		d, err := store.AttachDurable(pair.DS1, store.DurableOptions{
			Dir: cfg.DataDir, Fsync: w.fsync, Obs: cfg.Obs,
		})
		if err != nil {
			return nil, fmt.Errorf("traffic: attach durable store: %w", err)
		}
		w.durable = d
	}
	hot := 8
	if hot > len(w.subjects1) {
		hot = len(w.subjects1)
	}
	for i := 0; i < hot; i++ {
		subj := w.subjects1[i*len(w.subjects1)/hot]
		w.hotQueries = append(w.hotQueries,
			fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", pair.Dict.Term(subj).String()))
	}

	ecfg := core.Defaults()
	ecfg.Seed = cfg.Seed
	ecfg.Partitions = 4
	ecfg.Workers = cfg.Workers
	ecfg.EpisodeSize = 64
	ecfg.MaxEpisodes = 1 << 20
	fedn := fed.New(pair.Dict, pair.DS1)
	for _, st := range []*store.Store{pair.DS2, w.aux} {
		src := faultinject.Wrap(fed.LocalSource(st), faultinject.Config{Seed: cfg.Seed})
		w.flaky[st.Name()] = src
		fedn.AddSource(src)
	}
	// Clock-free resilience: zero backoff and zero cooldown keep retries
	// and the open->half-open transition independent of wall time, so
	// breaker behavior is a pure function of the call sequence.
	fedn.SetResilience(fed.Resilience{
		MaxRetries:      1,
		BreakerFailures: 3,
		PartialResults:  true,
		Seed:            cfg.Seed,
	})
	fedn.SetParallelism(cfg.Workers)
	w.node = serve.New(fedn, pair.DS1, pair.DS2, serve.Config{
		Engine: &ecfg, Links: initialLinks(pair, cfg.Seed), Obs: cfg.Obs,
	})

	var served http.Handler
	var handler *endpoint.Handler
	if cfg.Cache {
		cache := endpoint.NewQueryCache(endpoint.DefaultCacheConfig(), pair.DS1.Generation)
		cache.SetObserver(cfg.Obs)
		handler = endpoint.NewCachedHandler(pair.DS1, cache)
		handler.SetObserver(cfg.Obs)
		// Admission capacity sits above the worker bound, so a correct
		// controller never sheds simulator traffic — asserted at the end
		// of the run (zero rejections).
		w.admission = endpoint.NewAdmission(handler, endpoint.AdmissionConfig{
			MaxConcurrent: cfg.Workers + 2,
			MaxQueue:      2 * cfg.Workers,
			RetryAfter:    time.Second,
		})
		w.admission.SetObserver(cfg.Obs)
		served = w.admission
	} else {
		handler = endpoint.NewHandler(pair.DS1)
		handler.SetObserver(cfg.Obs)
		served = handler
	}
	if cfg.Stream {
		handler.SetFeedbackFunc(w.node.FeedbackFunc())
	}
	w.server = endpoint.NewServer(served)
	if err := w.server.Start(); err != nil {
		return nil, fmt.Errorf("traffic: start endpoint: %w", err)
	}
	w.httpTr = &http.Transport{MaxIdleConnsPerHost: cfg.Workers + 2}
	w.client = endpoint.NewClient(dsName1, w.server.SparqlURL(), &http.Client{Transport: w.httpTr})
	w.feedbackURL = w.server.URL() + "/feedback"
	w.httpc = &http.Client{Transport: w.httpTr}
	return w, nil
}

// initialLinks seeds the engine with the ground truth plus decoy links, so
// feedback has both confirmations and rejections to hand out.
func initialLinks(pair *datagen.Pair, seed int64) []linkset.Link {
	links := pair.Truth.Links()
	s1 := pair.DS1.Subjects()
	s2 := pair.DS2.Subjects()
	rng := rand.New(rand.NewSource(seed + 1))
	decoys := len(links)/2 + 1
	for i := 0; i < decoys; i++ {
		l := linkset.Link{
			Left:  s1[rng.Intn(len(s1))],
			Right: s2[rng.Intn(len(s2))],
		}
		if !pair.Truth.Contains(l) {
			links = append(links, l)
		}
	}
	return links
}

func (w *world) close() {
	if w.httpTr != nil {
		w.httpTr.CloseIdleConnections()
	}
	if w.server != nil {
		w.server.Close()
	}
	// Backstop for error paths; finish() normally closed it already
	// (Close is idempotent) and surfaced any error as a violation.
	if w.durable != nil {
		_ = w.durable.Close()
		w.durable = nil
	}
}

// term renders a TermID as its SPARQL surface form.
func (w *world) term(id rdf.TermID) string {
	return w.dict.Term(id).String()
}

// recordJudgement maintains the confirmed/rejected ledgers that back the
// link-set invariants. The truth-based judge is pure, so a link's verdict
// never flips; first judgement wins.
func (w *world) recordJudgement(l linkset.Link, approved bool) {
	if w.judged[l] {
		return
	}
	w.judged[l] = true
	if approved {
		w.confirmed = append(w.confirmed, l)
	} else {
		w.rejected = append(w.rejected, l)
	}
}

// drainServer shuts the endpoint down cleanly at the end of a run.
func (w *world) drainServer(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	return w.server.Drain(dctx)
}
