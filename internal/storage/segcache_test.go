package storage

import (
	"math/rand"
	"sync"
	"testing"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
)

// segmentedEval evaluates (A op v) through the pool's per-query callbacks
// with core.SegmentedEval, the way Eval does with core.Eval: the Fetch
// contract (one call per distinct bitmap, sequentially on the calling
// goroutine) is what lets those non-concurrent callbacks serve a
// multi-goroutine evaluation.
func segmentedEval(c *CachedStore, op core.Op, v uint64, m *Metrics, cfg core.SegConfig) (res *bitvec.Vector, err error) {
	opt := c.options(&query{s: c.store, m: m}, m)
	if m != nil {
		m.Queries++
		opt.Stats = &m.Stats
		opt.Trace = m.Trace
	}
	err = catch(func() { res = c.store.shell.SegmentedEval(op, v, opt, cfg) })
	return res, err
}

// TestCachedStoreEvalSegmented checks the segmented read path against the
// in-memory index and the cached Eval path, including the metrics.
func TestCachedStoreEvalSegmented(t *testing.T) {
	ix, cs := cachedFixture(t, 4)
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
	// logical stats (scans and op counts) for the same query stream.
	_, cs2 := cachedFixture(t, 4)
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

// TestCachedStoreSegmentedRace hammers one shared CachedStore from two
// kinds of clients at once — serial Eval and segmented Eval — and checks
// every result against precomputed expectations. Run under -race (CI
// does) this pins the concurrency contract of the pool and of the
// evaluator's sequential-prefetch Fetch contract.
func TestCachedStoreSegmentedRace(t *testing.T) {
	const card = 30
	col := data.Uniform(30000, card, 79)
	ix, err := core.Build(col.Values, col.Card, core.Base{6, 5}, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Save(ix, t.TempDir(), Options{Scheme: BitmapLevel, Codec: CodecZlib})
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
		wg.Add(2)
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
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
