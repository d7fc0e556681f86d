package storage

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/buffer"
	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
)

func cachedFixture(t *testing.T, capacity int) (*core.Index, *CachedStore) {
	t.Helper()
	col := data.Uniform(3000, 30, 77)
	ix, err := core.Build(col.Values, col.Card, core.Base{6, 5}, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Save(ix, t.TempDir(), Options{Scheme: BitmapLevel, Codec: CodecZlib})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCached(st, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return ix, cs
}

// TestCachedStoreCorrectness: under every encoding, layout family and
// capacity from empty to past the whole index, every operator and
// constant answers like the in-memory index, and the pool pins
// min(capacity, NumBitmaps()) bitmaps.
func TestCachedStoreCorrectness(t *testing.T) {
	for _, enc := range []core.Encoding{core.RangeEncoded, core.EqualityEncoded, core.IntervalEncoded} {
		ix, _, _ := buildTestIndex(t, enc, true)
		total := ix.NumBitmaps()
		for _, opts := range []Options{{Scheme: BitmapLevel, Codec: CodecRoaring}, {Scheme: ComponentLevel, Codec: CodecZlib}} {
			st, err := Save(ix, t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, capacity := range []int{0, 1, total / 2, total, total + 1} {
				cs, err := NewCached(st, capacity)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := cs.Resident(), min(capacity, total); got != want {
					t.Fatalf("%v %v capacity %d: %d resident, want %d", enc, opts, capacity, got, want)
				}
				for _, op := range core.AllOps {
					for v := uint64(0); v <= ix.Cardinality(); v++ {
						got, err := cs.Eval(op, v, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !got.Equal(ix.Eval(op, v, nil)) {
							t.Fatalf("%v %v capacity %d: A %s %d differs", enc, opts, capacity, op, v)
						}
					}
				}
			}
		}
	}
}

// TestCachedStorePlacement: a range-encoded pool pins Theorem 10.1's
// optimal assignment; equality and interval pools fill components in
// order.
func TestCachedStorePlacement(t *testing.T) {
	for _, tc := range []struct {
		enc      core.Encoding
		capacity int
		want     buffer.Assignment
	}{
		{core.RangeEncoded, 3, buffer.Optimal(core.Base{6, 5}, 30, 3)},
		{core.RangeEncoded, 7, buffer.Optimal(core.Base{6, 5}, 30, 7)},
		{core.EqualityEncoded, 4, buffer.Assignment{4, 0}},
		{core.EqualityEncoded, 8, buffer.Assignment{6, 2}},
		{core.IntervalEncoded, 5, buffer.Assignment{3, 2}},
	} {
		ix, _, _ := buildTestIndex(t, tc.enc, false)
		st, err := Save(ix, t.TempDir(), Options{Scheme: BitmapLevel})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := NewCached(st, tc.capacity)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range cs.pinned {
			for j, v := range row {
				if want := j < tc.want[i]; (v != nil) != want {
					t.Fatalf("%v capacity %d: slot (%d,%d) pinned=%v, want assignment %v",
						tc.enc, tc.capacity, i, j, v != nil, tc.want)
				}
			}
		}
	}
}

// TestCachedStoreCorruptFiles: a damaged file the pool would pin fails
// NewCached with ErrCorrupt; a damaged unpinned file fails exactly the
// queries that read it.
func TestCachedStoreCorruptFiles(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	const capacity = 1
	a := placement(ix, capacity)
	if a[0] != 0 || a[1] != 1 {
		t.Fatalf("placement %v, want [0 1] for base <6,5>", a)
	}
	corrupt := func(dir, name string) {
		t.Helper()
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xFF
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	st, err := Save(ix, dir, Options{Scheme: BitmapLevel})
	if err != nil {
		t.Fatal(err)
	}
	corrupt(dir, bitmapFile(1, 0))
	if _, err := NewCached(st, capacity); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NewCached over a corrupt pinned file returned %v, want ErrCorrupt", err)
	}

	dir = t.TempDir()
	if st, err = Save(ix, dir, Options{Scheme: BitmapLevel}); err != nil {
		t.Fatal(err)
	}
	corrupt(dir, bitmapFile(0, 0))
	cs, err := NewCached(st, capacity)
	if err != nil {
		t.Fatalf("NewCached over a corrupt unpinned file: %v", err)
	}
	failed := 0
	for _, op := range core.AllOps {
		for v := uint64(0); v < ix.Cardinality(); v++ {
			reads := false
			want := ix.Eval(op, v, &core.EvalOptions{Fetch: func(comp, slot int) *bitvec.Vector {
				reads = reads || (comp == 0 && slot == 0)
				return ix.StoredBitmap(comp, slot)
			}})
			got, err := cs.Eval(op, v, nil)
			switch {
			case reads && !errors.Is(err, ErrCorrupt):
				t.Fatalf("A %s %d reads the corrupt file but returned %v", op, v, err)
			case !reads && err != nil:
				t.Fatalf("A %s %d does not read the corrupt file but failed: %v", op, v, err)
			case !reads && !got.Equal(want):
				t.Fatalf("A %s %d differs", op, v)
			}
			if reads {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Fatal("no query read the corrupt file")
	}
}

func TestCachedStoreSteadyStateZeroScans(t *testing.T) {
	_, cs := cachedFixture(t, 1000) // bigger than the whole index
	var m Metrics
	for _, op := range core.AllOps {
		for v := uint64(0); v < 30; v++ {
			if _, err := cs.Eval(op, v, &m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.Stats.Scans != 0 || m.FilesRead != 0 {
		t.Fatalf("fully pinned pool scanned %d bitmaps, read %d files", m.Stats.Scans, m.FilesRead)
	}
	if cs.HitRate() != 1 {
		t.Fatalf("fully pinned hit rate %.2f, want 1", cs.HitRate())
	}
}

func TestCachedStoreZeroCapacityMatchesUncached(t *testing.T) {
	_, cs := cachedFixture(t, 0)
	var cm, um Metrics
	for v := uint64(0); v < 30; v++ {
		if _, err := cs.Eval(core.Le, v, &cm); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Store().Eval(core.Le, v, &um); err != nil {
			t.Fatal(err)
		}
	}
	if cm.Stats.Scans != um.Stats.Scans {
		t.Fatalf("zero-capacity cache changed scan counts: %d vs %d", cm.Stats.Scans, um.Stats.Scans)
	}
	if cs.HitRate() != 0 {
		t.Fatalf("zero-capacity hit rate %.2f", cs.HitRate())
	}
}

// TestCachedScansTrackBufferModel: the pool pins the optimal static
// assignment, so under the uniform query mix its measured scans per query
// are eq. (5)'s buffer.Time up to sampling error.
func TestCachedScansTrackBufferModel(t *testing.T) {
	base := core.Base{6, 5}
	card, _ := base.Product()
	col := data.Uniform(2000, card, 78)
	ix, err := core.Build(col.Values, card, base, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Save(ix, t.TempDir(), Options{Scheme: BitmapLevel})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 4000
	for _, m := range []int{2, 4, 6} {
		cs, err := NewCached(st, m)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(m)))
		var sum, sumSq float64
		for k := 0; k < queries; k++ {
			var met Metrics
			if _, err := cs.Eval(core.AllOps[r.Intn(6)], uint64(r.Intn(int(card))), &met); err != nil {
				t.Fatal(err)
			}
			s := float64(met.Stats.Scans)
			sum += s
			sumSq += s * s
		}
		mean := sum / queries
		stderr := math.Sqrt((sumSq/queries - mean*mean) / queries)
		model := buffer.Time(base, card, buffer.Optimal(base, card, m))
		if math.Abs(mean-model) > 4*stderr {
			t.Errorf("m=%d: measured %.3f scans/query, eq.(5) %.3f, beyond 4 standard errors (%.3f)",
				m, mean, model, stderr)
		}
	}
}

func TestCachedStoreConcurrent(t *testing.T) {
	ix, cs := cachedFixture(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 60; k++ {
				op := core.AllOps[r.Intn(6)]
				v := uint64(r.Intn(31))
				got, err := cs.Eval(op, v, nil)
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(ix.Eval(op, v, nil)) {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestNewCachedErrors(t *testing.T) {
	_, cs := cachedFixture(t, 1)
	if _, err := NewCached(cs.Store(), -1); err == nil {
		t.Fatal("negative capacity must fail")
	}
}

// TestCachedStoreHitMissCounters: the raw Hits/Misses counters start at
// zero and agree with HitRate; each query counts one hit or miss per
// distinct stored bitmap it references, into the pool's counters and its
// own Metrics, and its misses are its scans.
func TestCachedStoreHitMissCounters(t *testing.T) {
	ix, cs := cachedFixture(t, 4)
	if cs.Hits() != 0 || cs.Misses() != 0 {
		t.Fatalf("fresh cache has hits=%d misses=%d", cs.Hits(), cs.Misses())
	}
	for _, op := range core.AllOps {
		for v := uint64(0); v < 30; v++ {
			var refs core.Stats
			ix.Eval(op, v, &core.EvalOptions{Stats: &refs})
			h0, m0 := cs.Hits(), cs.Misses()
			var m Metrics
			if _, err := cs.Eval(op, v, &m); err != nil {
				t.Fatal(err)
			}
			if got := m.CacheHits + m.CacheMisses; got != int64(refs.Scans) {
				t.Fatalf("A %s %d: %d hits + %d misses, want %d references", op, v, m.CacheHits, m.CacheMisses, refs.Scans)
			}
			if m.CacheMisses != int64(m.Stats.Scans) {
				t.Fatalf("A %s %d: %d misses but %d scans", op, v, m.CacheMisses, m.Stats.Scans)
			}
			if cs.Hits()-h0 != m.CacheHits || cs.Misses()-m0 != m.CacheMisses {
				t.Fatalf("A %s %d: pool counted %d/%d, query %d/%d", op, v,
					cs.Hits()-h0, cs.Misses()-m0, m.CacheHits, m.CacheMisses)
			}
		}
	}
	if cs.Hits() == 0 || cs.Misses() == 0 {
		t.Fatalf("a 4-bitmap pool should both hit and miss: hits=%d misses=%d", cs.Hits(), cs.Misses())
	}
	if want := float64(cs.Hits()) / float64(cs.Hits()+cs.Misses()); cs.HitRate() != want {
		t.Errorf("HitRate = %v, want %v from raw counters", cs.HitRate(), want)
	}
}

// TestCacheResidentGaugeConsistent: opening a pool pins its capacity,
// including 0, and queries leave Resident, the pool's size gauge, there.
func TestCacheResidentGaugeConsistent(t *testing.T) {
	for _, capacity := range []int{3, 0} {
		_, cs := cachedFixture(t, capacity)
		if _, err := cs.Eval(core.Le, 3, nil); err != nil {
			t.Fatal(err)
		}
		if r := cs.Resident(); r != capacity {
			t.Fatalf("capacity %d: resident %d", capacity, r)
		}
	}
}
