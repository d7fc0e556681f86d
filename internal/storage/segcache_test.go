package storage

import (
	"math/rand"
	"sync"
	"testing"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
	"bitmapindex/internal/invariant"
	"bitmapindex/internal/telemetry"
)

// evict removes one bitmap from the pool directly; tests use it (via
// fetchHook) to force an eviction inside a query.
func (c *CachedStore) evict(comp, slot int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{comp, slot}
	if el, ok := c.byKey[key]; ok {
		delete(c.byKey, key)
		c.lru.Remove(el)
	}
}

// segmentedEval evaluates (A op v) through the pool's per-query callbacks
// with core.SegmentedEval, the way Eval does with core.Eval: the Fetch
// contract (one call per distinct bitmap, sequentially on the calling
// goroutine) is what lets those non-concurrent callbacks serve a
// multi-goroutine evaluation.
func segmentedEval(c *CachedStore, op core.Op, v uint64, m *Metrics, cfg core.SegConfig) (res *bitvec.Vector, err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(storageErr)
			if !ok {
				panic(r)
			}
			res, err = nil, se.err
		}
	}()
	opt := c.queryOptions(&query{s: c.store, m: m}, m)
	if m != nil {
		m.Queries++
	}
	return c.store.shell.SegmentedEval(op, v, opt, cfg), nil
}

// TestCacheEvictedMidQueryCountsMiss is the regression test for the
// evicted-mid-query undercount: a bitmap the Buffered probe saw resident
// but that is evicted before its Fetch — under concurrent queries another
// query's insert can land in that window — must count the read as a miss,
// since it really goes back to disk.
//
// On the base <2,2> equality index, A < 3 reads E_1^1 for both the digit
// comparison and the prefix-equality chain, yet the query fetches every
// stored bitmap exactly once.
func TestCacheEvictedMidQueryCountsMiss(t *testing.T) {
	vals := []uint64{0, 1, 2, 3, 1, 2, 0, 3, 2, 1}
	ix, err := core.Build(vals, 4, core.Base{2, 2}, core.EqualityEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Save(ix, t.TempDir(), Options{Scheme: BitmapLevel})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCached(st, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := ix.Eval(core.Lt, 3, nil)

	// Warm pass: both stored bitmaps of the query miss into the pool.
	got, err := cs.Eval(core.Lt, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("warm pass result differs from in-memory eval")
	}
	h0, m0 := cs.Hits(), cs.Misses()

	// Second pass: the hook runs at the start of each Fetch, after the
	// bitmap's Buffered probe, and evicts E_1^1 in that window.
	fetched := map[cacheKey]int{}
	cs.fetchHook = func(comp, slot int) {
		fetched[cacheKey{comp, slot}]++
		if comp == 1 && slot == 0 {
			cs.evict(1, 0)
		}
	}
	defer func() { cs.fetchHook = nil }()
	var m Metrics
	got, err = cs.Eval(core.Lt, 3, &m)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("post-eviction result differs from in-memory eval")
	}
	if len(fetched) != 2 || fetched[cacheKey{0, 0}] != 1 || fetched[cacheKey{1, 0}] != 1 {
		t.Fatalf("fetches per (comp, slot) = %v, want E_0^1 and E_1^1 exactly once each", fetched)
	}
	if hits := cs.Hits() - h0; hits != 2 {
		t.Errorf("second pass hits = %d, want 2 (both probes saw the bitmaps resident)", hits)
	}
	if misses := cs.Misses() - m0; misses != 1 {
		t.Errorf("second pass misses = %d, want 1 (evicted before its fetch)", misses)
	}
	if m.FilesRead != 1 {
		t.Errorf("second pass read %d files, want 1 (the evicted bitmap)", m.FilesRead)
	}
	// The query's own counts keep one per distinct bitmap: the evicted
	// bitmap's probe hit becomes its miss.
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("query counts %d hits / %d misses, want 1/1", m.CacheHits, m.CacheMisses)
	}
}

// TestCacheResidentGaugeConsistent pins the bix_cache_resident_bitmaps
// gauge to lru.Len() across every insert path: normal inserts with
// evictions, duplicate keys, and capacity 0.
func TestCacheResidentGaugeConsistent(t *testing.T) {
	check := func(t *testing.T, cs *CachedStore) {
		t.Helper()
		if g, r := telemetry.CacheResident.Value(), int64(cs.Resident()); g != r {
			t.Fatalf("gauge %d != resident %d", g, r)
		}
	}
	_, cs := cachedFixture(t, 3)
	for v := uint64(0); v < 30; v++ {
		if _, err := cs.Eval(core.Le, v, nil); err != nil {
			t.Fatal(err)
		}
		check(t, cs)
	}
	// Duplicate-key insert: re-inserting a resident bitmap must leave the
	// gauge at lru.Len() rather than skipping the update.
	var key cacheKey
	cs.mu.Lock()
	key = cs.lru.Front().Value.(cacheEntry).key
	v := cs.lru.Front().Value.(cacheEntry).v
	cs.mu.Unlock()
	telemetry.CacheResident.Set(-1) // poison; insert must restore it
	cs.insert(key.comp, key.slot, v)
	check(t, cs)

	// Capacity 0: nothing is ever resident and the gauge must say so.
	_, cs0 := cachedFixture(t, 0)
	telemetry.CacheResident.Set(-1)
	if _, err := cs0.Eval(core.Le, 3, nil); err != nil {
		t.Fatal(err)
	}
	check(t, cs0)
}

// TestCachedStoreEvalSegmented checks the segmented read path against the
// in-memory index and the cached Eval path, including the metrics.
func TestCachedStoreEvalSegmented(t *testing.T) {
	ix, cs := cachedFixture(t, 8)
	cfg := core.SegConfig{SegBits: 10, Workers: 2}
	var m Metrics
	for _, op := range core.AllOps {
		for v := uint64(0); v < 31; v += 3 {
			got, err := segmentedEval(cs, op, v, &m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ix.Eval(op, v, nil)) {
				t.Fatalf("A %s %d: segmented cached result differs", op, v)
			}
		}
	}
	if m.Queries == 0 || m.Stats.Scans == 0 {
		t.Fatalf("metrics not accumulated: %+v", m)
	}

	// A fresh identical cache evaluated with Eval must report identical
	// logical stats (scans and op counts) for the same query stream. Under
	// -tags bixdebug Eval's RangeEval cross-check fetches extra
	// bitmaps through the pool, warming it differently, so the scan
	// comparison only holds in a normal build.
	if invariant.Enabled {
		return
	}
	_, cs2 := cachedFixture(t, 8)
	var m2 Metrics
	for _, op := range core.AllOps {
		for v := uint64(0); v < 31; v += 3 {
			if _, err := cs2.Eval(op, v, &m2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.Stats != m2.Stats {
		t.Fatalf("segmented cached stats %+v differ from Eval's %+v", m.Stats, m2.Stats)
	}
}

// TestCachedStoreEvalBatch checks the concurrent batch path: results in
// input order matching the in-memory index, metrics accumulated.
func TestCachedStoreEvalBatch(t *testing.T) {
	ix, cs := cachedFixture(t, 6)
	var queries []core.Query
	for _, op := range core.AllOps {
		for v := uint64(0); v < 31; v += 2 {
			queries = append(queries, core.Query{Op: op, V: v})
		}
	}
	for _, par := range []int{1, 3, 8} {
		var m Metrics
		got, err := cs.EvalBatch(queries, par, &m)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(queries) {
			t.Fatalf("par=%d: %d results for %d queries", par, len(got), len(queries))
		}
		for i, q := range queries {
			if !got[i].Equal(ix.Eval(q.Op, q.V, nil)) {
				t.Fatalf("par=%d query %d (A %s %d): result differs", par, i, q.Op, q.V)
			}
		}
		if m.Queries != len(queries) {
			t.Fatalf("par=%d: m.Queries = %d, want %d", par, m.Queries, len(queries))
		}
		if m.Stats.Ands == 0 && m.Stats.Ors == 0 {
			t.Fatalf("par=%d: no op counts accumulated: %+v", par, m.Stats)
		}
	}
}

// TestCachedStoreSegmentedRace hammers one shared CachedStore from three
// kinds of clients at once — serial Eval, segmented Eval and EvalBatch —
// and checks every result against precomputed expectations. Run under
// -race (CI does) this pins the concurrency contract of the pool and of
// the evaluator's sequential-prefetch Fetch contract.
func TestCachedStoreSegmentedRace(t *testing.T) {
	const card = 30
	col := data.Uniform(30000, card, 79)
	ix, err := core.Build(col.Values, col.Card, core.Base{6, 5}, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Save(ix, t.TempDir(), Options{Scheme: BitmapLevel, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCached(st, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[core.Query]*bitvec.Vector)
	var queries []core.Query
	for _, op := range core.AllOps {
		for v := uint64(0); v < card; v += 4 {
			q := core.Query{Op: op, V: v}
			queries = append(queries, q)
			want[q] = ix.Eval(op, v, nil)
		}
	}
	cfg := core.SegConfig{SegBits: 12, Workers: 2}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 2; g++ {
		wg.Add(3)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 40; k++ {
				q := queries[r.Intn(len(queries))]
				got, err := segmentedEval(cs, q.Op, q.V, nil, cfg)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !got.Equal(want[q]) {
					errs <- "segmented result differs under concurrency"
					return
				}
			}
		}(int64(g))
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(100 + seed))
			for k := 0; k < 40; k++ {
				q := queries[r.Intn(len(queries))]
				got, err := cs.Eval(q.Op, q.V, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !got.Equal(want[q]) {
					errs <- "serial result differs under concurrency"
					return
				}
			}
		}(int64(g))
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(200 + seed))
			for k := 0; k < 8; k++ {
				batch := make([]core.Query, 6)
				for i := range batch {
					batch[i] = queries[r.Intn(len(queries))]
				}
				got, err := cs.EvalBatch(batch, 3, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				for i, q := range batch {
					if !got[i].Equal(want[q]) {
						errs <- "batch result differs under concurrency"
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
