package endpoint

import (
	"container/list"
	"context"
	"sync"

	"alex/internal/obs"
	"alex/internal/sparql"
	"alex/internal/store"
)

// This file is the endpoint's caching layer: a prepared-query LRU keyed
// on normalized query text (parse + slot compilation amortized across
// requests) and a bounded result LRU invalidated by a monotonic
// generation counter (store mutations and link-set swaps bump it, so a
// cached answer — including the sameAs-expanded answer set on the
// federated path — is served only while the data it was computed from is
// unchanged). Correctness contract: with caches on or off, every query
// returns identical results; the caches may only change latency.

// CacheConfig sizes the two caches. A size of zero or below disables
// that cache.
type CacheConfig struct {
	// PreparedSize bounds the prepared-query LRU (entries).
	PreparedSize int
	// ResultSize bounds the result LRU (entries).
	ResultSize int
}

// DefaultCacheConfig is a serving-ready sizing: prepared entries are
// small (an AST and a slot map), result entries can hold whole answer
// sets, so the result cache is the tighter bound.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{PreparedSize: 1024, ResultSize: 256}
}

// QueryCache combines the prepared-query and result caches over one
// generation source. It is safe for concurrent use. A nil *QueryCache is
// valid and means "no caching": Do still evaluates, just without reuse.
type QueryCache struct {
	cfg CacheConfig
	gen func() uint64

	mu       sync.Mutex
	prepared *lruCache
	results  *lruCache

	pHits, pMisses, pEvict         *obs.Counter
	rHits, rMisses, rEvict, rInval *obs.Counter
}

// resultEntry tags a cached result with the generation it was computed
// at. Lookups compare against the live generation; any mismatch means a
// mutation intervened and the entry is dropped.
type resultEntry struct {
	gen uint64
	res *Result
}

// NewQueryCache builds a cache over generation, which must return a value
// that changes on every mutation of the underlying data (store.Generation
// for a single store, Federation.DataGeneration for the federated path).
func NewQueryCache(cfg CacheConfig, generation func() uint64) *QueryCache {
	c := &QueryCache{cfg: cfg, gen: generation}
	if cfg.PreparedSize > 0 {
		c.prepared = newLRUCache(cfg.PreparedSize)
	}
	if cfg.ResultSize > 0 {
		c.results = newLRUCache(cfg.ResultSize)
	}
	return c
}

// SetObserver attaches a metrics registry: endpoint.prepared.{hits,
// misses,evictions} and endpoint.result.{hits,misses,evictions,
// invalidations}. Resolving the counters here makes them visible in
// /metrics snapshots from the first request, at zero.
func (c *QueryCache) SetObserver(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pHits = reg.Counter(obs.EndpointPreparedHits)
	c.pMisses = reg.Counter(obs.EndpointPreparedMisses)
	c.pEvict = reg.Counter(obs.EndpointPreparedEvictions)
	c.rHits = reg.Counter(obs.EndpointResultHits)
	c.rMisses = reg.Counter(obs.EndpointResultMisses)
	c.rEvict = reg.Counter(obs.EndpointResultEvictions)
	c.rInval = reg.Counter(obs.EndpointResultInvalidations)
}

// Do answers one query through the cache: normalized-key preparation,
// then a generation-checked result lookup, then eval on miss. The
// generation is snapshotted before eval, so a mutation racing the
// evaluation leaves the stored entry permanently stale — it can never be
// served — rather than ever serving a pre-mutation answer as current.
func (c *QueryCache) Do(query string, eval func(*sparql.Prepared) (*Result, error)) (*Result, error) {
	prep, err := c.Prepare(query)
	if err != nil {
		return nil, &BadQueryError{Err: err}
	}
	if c == nil {
		return eval(prep)
	}
	gen := c.gen()
	if res, ok := c.lookupResult(prep.Key, gen); ok {
		return res, nil
	}
	res, err := eval(prep)
	if err != nil {
		return nil, err
	}
	c.storeResult(prep.Key, gen, res)
	return res, nil
}

// Prepare returns the cached prepared form of query, preparing and
// inserting it on miss.
func (c *QueryCache) Prepare(query string) (*sparql.Prepared, error) {
	if c == nil || c.prepared == nil {
		return sparql.Prepare(query)
	}
	key, err := sparql.NormalizeQuery(query)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if v, ok := c.prepared.get(key); ok {
		c.pHits.Inc()
		c.mu.Unlock()
		return v.(*sparql.Prepared), nil
	}
	c.pMisses.Inc()
	c.mu.Unlock()
	// Parse outside the lock; concurrent misses on one key both prepare
	// and the loser's insert is a harmless overwrite of an equal value.
	prep, err := sparql.Prepare(key)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.prepared.add(key, prep) {
		c.pEvict.Inc()
	}
	c.mu.Unlock()
	return prep, nil
}

func (c *QueryCache) lookupResult(key string, gen uint64) (*Result, bool) {
	if c.results == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.results.get(key)
	if !ok {
		c.rMisses.Inc()
		return nil, false
	}
	e := v.(*resultEntry)
	if e.gen != gen {
		c.results.remove(key)
		c.rInval.Inc()
		c.rMisses.Inc()
		return nil, false
	}
	c.rHits.Inc()
	return e.res, true
}

func (c *QueryCache) storeResult(key string, gen uint64, res *Result) {
	if c.results == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.results.add(key, &resultEntry{gen: gen, res: res}) {
		c.rEvict.Inc()
	}
}

// CachedStoreQueryFunc returns a QueryFunc over st that consults cache.
// Cached results are served only at the exact store generation they were
// computed at; the cache-off path (nil cache) is answer-identical.
func CachedStoreQueryFunc(st *store.Store, cache *QueryCache) QueryFunc {
	return func(ctx context.Context, query string) (*Result, error) {
		return cache.Do(query, func(prep *sparql.Prepared) (*Result, error) {
			return storeEval(ctx, st, prep, nil)
		})
	}
}

// NewCachedHandler is NewHandler with a query cache in front of the
// store's evaluator. A nil cache yields an uncached (but still
// prepared-path) handler.
func NewCachedHandler(st *store.Store, cache *QueryCache) *Handler {
	return newStoreHandler(st, CachedStoreQueryFunc(st, cache))
}

// lruCache is a minimal string-keyed LRU over container/list: most
// recently used at the front, eviction from the back. Callers hold the
// owning cache's lock.
type lruCache struct {
	max   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRUCache(max int) *lruCache {
	return &lruCache{max: max, ll: list.New(), items: make(map[string]*list.Element, max)}
}

// get returns the value for key, marking it most recently used.
func (c *lruCache) get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// add inserts or refreshes key, reporting whether the insert evicted the
// least recently used entry to stay within the bound.
func (c *lruCache) add(key string, val any) (evicted bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return false
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() <= c.max {
		return false
	}
	back := c.ll.Back()
	c.ll.Remove(back)
	delete(c.items, back.Value.(*lruEntry).key)
	return true
}

// remove deletes key if present.
func (c *lruCache) remove(key string) {
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// len returns the current entry count.
func (c *lruCache) len() int { return c.ll.Len() }
