package storage

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/profile"
	"bitmapindex/internal/telemetry"
)

// CachedStore wraps a Store with an LRU buffer pool of decompressed
// bitmaps, turning Section 10's analytic buffering model into a running
// system: bitmap reads that hit the pool cost no I/O and are not counted
// as scans, exactly the paper's accounting. The pool capacity is in
// bitmaps, matching the paper's unit of buffering.
//
// A CachedStore is safe for concurrent use; the pool is guarded by a
// mutex (bitmap vectors themselves are immutable once cached).
type CachedStore struct {
	store    *Store
	capacity int

	mu     sync.Mutex
	lru    *list.List                 // guarded by mu; of cacheEntry, front = most recent
	byKey  map[cacheKey]*list.Element // guarded by mu
	hits   int64                      // guarded by mu
	misses int64                      // guarded by mu

	// fetchHook, when non-nil, observes every Fetch callback before any
	// pool access; tests use it to force evictions between touches of the
	// same query. Set it before issuing queries and never mutate it while
	// queries run.
	fetchHook func(comp, slot int)
}

type cacheKey struct{ comp, slot int }

type cacheEntry struct {
	key cacheKey
	v   *bitvec.Vector
}

// NewCached wraps the store with an LRU pool holding up to capacity
// bitmaps. Capacity 0 disables caching (every read misses).
func NewCached(s *Store, capacity int) (*CachedStore, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("storage: negative cache capacity %d", capacity)
	}
	return &CachedStore{
		store:    s,
		capacity: capacity,
		lru:      list.New(),
		byKey:    make(map[cacheKey]*list.Element),
	}, nil
}

// Store returns the underlying store.
func (c *CachedStore) Store() *Store { return c.store }

// Hits returns the number of bitmap reads served from the pool.
func (c *CachedStore) Hits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns the number of bitmap reads that missed the pool.
func (c *CachedStore) Misses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// HitRate returns the fraction of bitmap reads served from the pool.
func (c *CachedStore) HitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Resident returns the number of bitmaps currently in the pool.
func (c *CachedStore) Resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// lookup returns the cached bitmap and whether it was resident, updating
// recency and counters: the pool's, the registry's and, when m is
// non-nil, the querying Metrics' own (written under the pool lock, so
// concurrent batch fetches may share m).
func (c *CachedStore) lookup(comp, slot int, m *Metrics) (*bitvec.Vector, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[cacheKey{comp, slot}]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		telemetry.CacheHitsTotal.Inc()
		if m != nil {
			m.CacheHits++
		}
		return el.Value.(cacheEntry).v, true
	}
	c.misses++
	telemetry.CacheMissesTotal.Inc()
	if m != nil {
		m.CacheMisses++
	}
	return nil, false
}

// insert adds a bitmap to the pool, evicting the least recently used
// entries beyond capacity.
func (c *CachedStore) insert(comp, slot int, v *bitvec.Vector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The gauge tracks lru.Len() on every path out of insert — including
	// duplicate keys and capacity 0 — so it can never drift from the pool.
	defer func() { telemetry.CacheResident.Set(int64(c.lru.Len())) }()
	if c.capacity == 0 {
		return
	}
	key := cacheKey{comp, slot}
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(cacheEntry{key: key, v: v})
	for c.lru.Len() > c.capacity {
		el := c.lru.Back()
		delete(c.byKey, el.Value.(cacheEntry).key)
		c.lru.Remove(el)
		telemetry.CacheEvictionsTotal.Inc()
	}
}

// queryOptions builds the per-query EvalOptions wiring the pool into the
// evaluator. The returned callbacks share per-query state and are NOT safe
// for concurrent use; they rely on the evaluator's Fetch contract (one
// call per distinct bitmap, sequentially on the calling goroutine) and do
// not fit concurrent batch workers — those use the batch-scoped wiring in
// EvalBatch.
func (c *CachedStore) queryOptions(q *query, m *Metrics) *core.EvalOptions {
	// perQuery remembers residency as observed by the Buffered probe, so
	// the probe and the Fetch that follows it agree on hit or miss.
	perQuery := make(map[cacheKey]bool, 8)
	wasResident := func(comp, slot int) bool {
		key := cacheKey{comp, slot}
		if r, ok := perQuery[key]; ok {
			return r
		}
		_, resident := c.lookup(comp, slot, m)
		perQuery[key] = resident
		return resident
	}
	var qid string
	if m != nil {
		qid = m.Trace.ID()
	}
	opt := &core.EvalOptions{
		Buffered: wasResident,
		Fetch: func(comp, slot int) *bitvec.Vector {
			if c.fetchHook != nil {
				c.fetchHook(comp, slot)
			}
			key := cacheKey{comp, slot}
			resident, seen := perQuery[key]
			if !seen {
				resident = false
				if v, ok := c.lookup(comp, slot, m); ok {
					perQuery[key] = true
					return v
				}
				perQuery[key] = false
			}
			if resident {
				c.mu.Lock()
				el, ok := c.byKey[key]
				if !ok {
					// Evicted since the Buffered probe (a concurrent query's
					// insert can land in between): the hit recorded at the
					// probe no longer serves this read, so the read is a real
					// pool miss. Count it, then fall through to the store;
					// the query's own counts turn the probe's hit into
					// this miss, keeping one count per distinct bitmap.
					c.misses++
					if m != nil {
						m.CacheHits--
						m.CacheMisses++
					}
				}
				c.mu.Unlock()
				if ok {
					return el.Value.(cacheEntry).v
				}
				telemetry.CacheMissesTotal.Inc()
			}
			v := fillPool(qid, func() *bitvec.Vector { return q.fetch(comp, slot) })
			c.insert(comp, slot, v)
			return v
		},
	}
	if m != nil {
		opt.Stats = &m.Stats
		opt.Trace = m.Trace
	}
	return opt
}

// Eval evaluates (A op v) through the pool: resident bitmaps cost nothing
// and are excluded from the scan count, misses read through the
// underlying store (accounted into m) and populate the pool.
func (c *CachedStore) Eval(op core.Op, v uint64, m *Metrics) (res *bitvec.Vector, err error) {
	defer func() {
		if r := recover(); r != nil {
			if se, ok := r.(storageErr); ok {
				res, err = nil, se.err
				return
			}
			panic(r)
		}
	}()
	telemetry.StorageQueriesTotal.Inc()
	q := &query{s: c.store, m: m}
	opt := c.queryOptions(q, m)
	if m != nil {
		m.Queries++
	}
	return c.store.shell.Eval(op, v, opt), nil
}

// resident reports pool residency without touching recency or the hit/miss
// counters; it backs the batch path's Buffered callback.
func (c *CachedStore) resident(comp, slot int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[cacheKey{comp, slot}]
	return ok
}

// EvalBatch evaluates many predicates through the pool via core.EvalBatch,
// which spends parallelism across queries — or within them, on a large
// index with few queries. Physical costs and evaluator stats accumulate
// into m; results are in input order.
//
// Unlike the per-query wiring of Eval, the batch-scoped Fetch is safe for
// concurrent use: pool lookups take the pool mutex and misses read through
// the store with a per-call fetch context, so concurrent misses never
// share file buffers (at the cost of possibly re-reading a CS/IS file that
// a same-query sibling fetch also reads). Residency for scan accounting is
// probed without counters at Buffered time, which can race benignly with
// eviction.
func (c *CachedStore) EvalBatch(queries []core.Query, parallelism int, m *Metrics) ([]*bitvec.Vector, error) {
	var mu sync.Mutex // guards ferr and the merge of per-fetch metrics into m
	var ferr error
	rows := c.store.shell.Rows()
	var qid string
	if m != nil {
		qid = m.Trace.ID()
	}
	fetch := func(comp, slot int) (res *bitvec.Vector) {
		if c.fetchHook != nil {
			c.fetchHook(comp, slot)
		}
		defer func() {
			if r := recover(); r != nil {
				se, ok := r.(storageErr)
				if !ok {
					panic(r)
				}
				mu.Lock()
				if ferr == nil {
					ferr = se.err
				}
				mu.Unlock()
				// Keep the evaluator running on a worker goroutine; the
				// batch returns the recorded error instead of the results.
				res = bitvec.New(rows)
			}
		}()
		if v, ok := c.lookup(comp, slot, m); ok {
			return v
		}
		var local Metrics
		q := &query{s: c.store, m: &local}
		v := fillPool(qid, func() *bitvec.Vector { return q.fetch(comp, slot) })
		c.insert(comp, slot, v)
		if m != nil {
			mu.Lock()
			m.FilesRead += local.FilesRead
			m.BytesRead += local.BytesRead
			m.ReadNS += local.ReadNS
			m.DecompressNS += local.DecompressNS
			m.ExtractNS += local.ExtractNS
			mu.Unlock()
		}
		return v
	}
	tmpl := &core.EvalOptions{Fetch: fetch, Buffered: c.resident}
	var stats []core.Stats
	if m != nil {
		stats = make([]core.Stats, len(queries))
		tmpl.Trace = m.Trace
	}
	out := c.store.shell.EvalBatch(queries, parallelism, stats, tmpl)
	telemetry.StorageQueriesTotal.Add(int64(len(queries)))
	if m != nil {
		m.Queries += len(queries)
		for i := range stats {
			m.Stats.Add(stats[i])
		}
	}
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}

// fillPool runs a pool-miss read under the "cache_fill" pprof label (so CPU
// spent inflating and extracting bitmaps is attributed to the query that
// missed) and charges the elapsed time to bix_cache_fill_ns_total. The
// deferred charge is a named function, not a closure: the fill runs once
// per pool miss on the fetch path, and `defer f(t0)` evaluates its
// argument at registration while keeping panic-path accounting.
func fillPool(queryID string, read func() *bitvec.Vector) *bitvec.Vector {
	defer fillCharge(time.Now())
	var v *bitvec.Vector
	profile.Do(queryID, "cache_fill", func() { v = read() })
	return v
}

// fillCharge adds the time elapsed since t0 to the cache-fill counter.
func fillCharge(t0 time.Time) {
	telemetry.CacheFillNSTotal.Add(int64(time.Since(t0)))
}
