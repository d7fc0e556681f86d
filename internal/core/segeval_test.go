package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"bitmapindex/internal/bitvec"
)

// segSizes are row counts straddling the default segment boundary
// (k*2^18 +/- 1), where window/tail-mask bugs live.
var segSizes = []int{(1 << 18) - 1, 1 << 18, (1 << 18) + 1}

// TestSegmentedMatchesSerialProperty is the keystone property test:
// segmented evaluation returns the scalar reference's bitmap, and the same
// Stats as the single-goroutine Eval, for every encoding, every operator,
// boundary row counts, several bases and several segment configurations.
func TestSegmentedMatchesSerialProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	const card = 20
	bases := []Base{{5, 4}, {20}, {5, 2, 2}}
	cfgs := []SegConfig{
		{}, // defaults: one or two segments at these sizes
		{SegBits: 14, Workers: 3},
		{SegBits: MinSegBits, Workers: 1},
	}
	for _, n := range segSizes {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(r.Intn(card))
		}
		for _, base := range bases {
			for _, enc := range []Encoding{RangeEncoded, EqualityEncoded, IntervalEncoded} {
				ix, err := Build(vals, card, base, enc, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range AllOps {
					for _, v := range []uint64{0, 7, card - 1, card + 5} {
						want := referenceEval(vals, nil, op, v)
						var wst Stats
						if !ix.Eval(op, v, &EvalOptions{Stats: &wst}).Equal(want) {
							t.Fatalf("n=%d base=%v enc=%v A %s %d: Eval differs from the reference", n, base, enc, op, v)
						}
						for _, cfg := range cfgs {
							var gst Stats
							got := ix.SegmentedEval(op, v, &EvalOptions{Stats: &gst}, cfg)
							if !got.Equal(want) {
								t.Fatalf("n=%d base=%v enc=%v A %s %d cfg=%+v: segmented result differs",
									n, base, enc, op, v, cfg)
							}
							if gst != wst {
								t.Fatalf("n=%d base=%v enc=%v A %s %d cfg=%+v: stats %+v, want %+v",
									n, base, enc, op, v, cfg, gst, wst)
							}
						}
					}
				}
			}
		}
	}
}

// TestSegmentedLargeMultiSegment covers a run of several full segments
// plus a ragged tail at a narrower segment width.
func TestSegmentedLargeMultiSegment(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 3<<16 + 1
	const card = 100
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(r.Intn(card))
	}
	ix, err := Build(vals, card, Base{10, 10}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SegConfig{SegBits: 12, Workers: 4} // 17 segments
	for _, op := range AllOps {
		for v := uint64(0); v < card; v += 13 {
			want := referenceEval(vals, nil, op, v)
			if got := ix.SegmentedEval(op, v, nil, cfg); !got.Equal(want) {
				t.Fatalf("A %s %d: segmented result differs", op, v)
			}
		}
	}
}

// TestSegmentedCountAnyEmpty pins segmented results on empty and trivial
// answers, including a non-trivial empty result (a present-rank equality
// that no row carries).
func TestSegmentedCountAnyEmpty(t *testing.T) {
	n := 1<<14 + 3
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 10) // values 0..9 out of card 20: ranks 10..19 are empty
	}
	ix, err := Build(vals, 20, Base{5, 4}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SegConfig{SegBits: 10, Workers: 2}
	for _, c := range []struct {
		op   Op
		v    uint64
		want int
	}{
		{Eq, 15, 0},
		{Lt, 0, 0},
		{Ge, 0, n},
		{Le, 0, (n + 9) / 10},
		{Le, 99, n}, // trivial constants (v >= card)
		{Gt, 99, 0},
	} {
		got := ix.SegmentedEval(c.op, c.v, nil, cfg)
		if got.Count() != c.want || got.Any() != (c.want > 0) {
			t.Fatalf("A %s %d: count %d any %v, want %d", c.op, c.v, got.Count(), got.Any(), c.want)
		}
	}
}

// TestSegmentedWithNulls checks the null-masking path segment by segment.
func TestSegmentedWithNulls(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 1<<13 + 5
	vals := make([]uint64, n)
	nulls := make([]bool, n)
	for i := range vals {
		vals[i] = uint64(r.Intn(7))
		nulls[i] = r.Intn(5) == 0
	}
	for _, enc := range []Encoding{RangeEncoded, EqualityEncoded, IntervalEncoded} {
		ix, err := Build(vals, 7, Base{7}, enc, &BuildOptions{Nulls: nulls})
		if err != nil {
			t.Fatal(err)
		}
		cfg := SegConfig{SegBits: 9, Workers: 3}
		for _, op := range AllOps {
			for v := uint64(0); v < 7; v++ {
				want := referenceEval(vals, nulls, op, v)
				if got := ix.SegmentedEval(op, v, nil, cfg); !got.Equal(want) {
					t.Fatalf("enc=%v A %s %d: segmented result differs with nulls", enc, op, v)
				}
			}
		}
	}
}

// TestSegConfigNormalization pins the clamping rules.
func TestSegConfigNormalization(t *testing.T) {
	got := SegConfig{}.normalized()
	if got.SegBits != DefaultSegBits || got.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero config normalized to %+v", got)
	}
	got = SegConfig{SegBits: 2, Workers: -3}.normalized()
	if got.SegBits != MinSegBits || got.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("clamped config normalized to %+v", got)
	}
	// A tiny index with more workers than segments must still work.
	ix, err := Build([]uint64{0, 1, 2, 1}, 3, Base{3}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ix.Eval(Le, 1, nil)
	if got := ix.SegmentedEval(Le, 1, nil, SegConfig{Workers: 64}); !got.Equal(want) {
		t.Fatal("tiny index segmented result differs")
	}
}

// TestEvalBatchIntraQueryPath forces the few-queries/many-rows branch and
// checks it still returns serial-identical results and per-query stats.
func TestEvalBatchIntraQueryPath(t *testing.T) {
	old := batchIntraMinRows
	batchIntraMinRows = 1 << 10
	defer func() { batchIntraMinRows = old }()

	r := rand.New(rand.NewSource(11))
	vals := make([]uint64, 1<<12)
	for i := range vals {
		vals[i] = uint64(r.Intn(50))
	}
	ix, err := Build(vals, 50, Base{10, 5}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{{Op: Le, V: 20}, {Op: Eq, V: 7}} // fewer queries than workers
	stats := make([]Stats, len(queries))
	got := ix.EvalBatch(queries, 4, stats, nil)
	for i, q := range queries {
		var st Stats
		want := ix.Eval(q.Op, q.V, &EvalOptions{Stats: &st})
		if !got[i].Equal(want) {
			t.Fatalf("query %d: intra-query batch result differs", i)
		}
		if stats[i] != st {
			t.Fatalf("query %d: stats %+v, want %+v", i, stats[i], st)
		}
	}
}

// TestEvalBatchOptionsTemplate checks that Fetch/Buffered thread through
// the batch and that tmpl.Stats is ignored in favor of the stats slice.
func TestEvalBatchOptionsTemplate(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	vals := make([]uint64, 4000)
	for i := range vals {
		vals[i] = uint64(r.Intn(30))
	}
	ix, err := Build(vals, 30, Base{6, 5}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{{Op: Le, V: 10}, {Op: Gt, V: 3}, {Op: Ne, V: 7}, {Op: Eq, V: 0}}

	var fetched int64
	var tmplStats Stats
	tmpl := &EvalOptions{
		Stats: &tmplStats, // must be ignored
		Fetch: func(comp, slot int) *bitvec.Vector {
			atomic.AddInt64(&fetched, 1)
			return ix.StoredBitmap(comp, slot)
		},
		Buffered: func(comp, slot int) bool { return comp == 0 && slot == 0 },
	}
	stats := make([]Stats, len(queries))
	got := ix.EvalBatch(queries, 2, stats, tmpl)
	if fetched == 0 {
		t.Fatal("template Fetch was never called")
	}
	if tmplStats != (Stats{}) {
		t.Fatalf("tmpl.Stats was written: %+v", tmplStats)
	}
	for i, q := range queries {
		var st Stats
		want := ix.Eval(q.Op, q.V, &EvalOptions{Stats: &st, Buffered: tmpl.Buffered})
		if !got[i].Equal(want) {
			t.Fatalf("query %d: batch result differs", i)
		}
		if stats[i] != st {
			t.Fatalf("query %d: stats %+v, want %+v", i, stats[i], st)
		}
	}
}

// TestSegRegSet pins the register-recycling contract deterministically
// (never asserting pool hits: the runtime may drop pool entries at any
// GC): shape and aliasing on checkout, result-reference clearing on
// return, and full rebuild when the row count changes.
func TestSegRegSet(t *testing.T) {
	const rows = 1 << 10
	shared := bitvec.New(rows)

	rs := getSegRegs(rows, 3, shared)
	if rs.rows != rows || len(rs.regs) != 3 {
		t.Fatalf("checkout shape: rows=%d regs=%d, want %d/3", rs.rows, len(rs.regs), rows)
	}
	if rs.regs[0] != shared {
		t.Fatal("register 0 must alias the shared result")
	}
	for i := 1; i < 3; i++ {
		if rs.regs[i] == nil || rs.regs[i] == shared || rs.regs[i].Len() != rows {
			t.Fatalf("register %d: got %v, want owned scratch of %d rows", i, rs.regs[i], rows)
		}
	}
	regs := rs.regs
	putSegRegs(rs)
	for i, r := range regs {
		if r != nil {
			t.Fatalf("putSegRegs left register %d set; the pool must not retain result references", i)
		}
	}

	// A row-count change must discard recycled state entirely.
	segRegPool.Put(&segRegSet{rows: rows, vecs: []*bitvec.Vector{bitvec.New(rows)}})
	rs3 := getSegRegs(2*rows, 2, bitvec.New(2*rows))
	if rs3.rows != 2*rows {
		t.Fatalf("rows after mismatched checkout = %d, want %d", rs3.rows, 2*rows)
	}
	for i, r := range rs3.regs {
		if r.Len() != 2*rows {
			t.Fatalf("register %d has %d rows, want %d", i, r.Len(), 2*rows)
		}
	}
	putSegRegs(rs3)

	// Growing the register demand on a recycled set allocates the extras.
	segRegPool.Put(&segRegSet{rows: rows})
	rs4 := getSegRegs(rows, 4, shared)
	if len(rs4.regs) != 4 {
		t.Fatalf("grew to %d registers, want 4", len(rs4.regs))
	}
	for i, r := range rs4.regs {
		if r == nil || r.Len() != rows {
			t.Fatalf("register %d missing after growth", i)
		}
	}
	putSegRegs(rs4)
}
