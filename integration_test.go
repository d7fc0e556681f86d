package bitmapindex

// End-to-end integration across every subsystem: workload generation ->
// design advisor -> build -> persistence (all layouts) -> cached
// evaluation -> aggregation and order statistics -> maintenance ->
// re-persistence. Each stage cross-checks against scalar references.

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

func TestEndToEnd(t *testing.T) {
	const (
		rows = 30000
		card = 2406
	)
	r := rand.New(rand.NewSource(77))
	vals := make([]uint64, rows)
	for i := range vals {
		vals[i] = uint64(r.Intn(card))
	}

	// 1. Design under a space budget, then build.
	base, err := BestBaseUnderSpace(card, 80)
	if err != nil {
		t.Fatal(err)
	}
	if NumBitmaps(base, RangeEncoded) > 80 {
		t.Fatal("budget violated")
	}
	ix, err := New(vals, card, WithBase(base))
	if err != nil {
		t.Fatal(err)
	}

	// 2. Persist in a compressed layout, reopen, wrap in a bitmap pool.
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := SaveIndex(ix, dir, StoreOptions{Scheme: BitmapLevel, Codec: CodecZlib}); err != nil {
		t.Fatal(err)
	}
	st, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCachedStore(st, 12)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Queries through the pool match the in-memory index and a scalar
	// recount.
	var m StoreMetrics
	for _, q := range []struct {
		op Op
		v  uint64
	}{{Le, 400}, {Gt, 2000}, {Eq, 1234}, {Ne, 0}} {
		got, err := cs.Eval(q.op, q.v, &m)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ix.Eval(q.op, q.v, nil)) {
			t.Fatalf("pooled A %s %d differs from in-memory", q.op, q.v)
		}
		want := 0
		for _, x := range vals {
			if q.op.Matches(x, q.v) {
				want++
			}
		}
		if got.Count() != want {
			t.Fatalf("A %s %d: %d rows, scalar says %d", q.op, q.v, got.Count(), want)
		}
	}
	if cs.HitRate() == 0 {
		t.Fatal("pool never hit")
	}

	// 4. Aggregates and order statistics over a selection.
	sel := ix.EvalBetween(500, 1500, nil)
	var wantSum uint64
	var inRange []uint64
	for _, x := range vals {
		if x >= 500 && x <= 1500 {
			wantSum += x
			inRange = append(inRange, x)
		}
	}
	sum, n, err := ix.SumSelected(sel)
	if err != nil || n != len(inRange) || sum != wantSum {
		t.Fatalf("sum %d over %d (err %v), scalar %d over %d", sum, n, err, wantSum, len(inRange))
	}
	sort.Slice(inRange, func(i, j int) bool { return inRange[i] < inRange[j] })
	med, ok, err := ix.MedianSelected(sel)
	if err != nil || !ok {
		t.Fatal(err)
	}
	k := (len(inRange) + 1) / 2
	if med != inRange[k-1] {
		t.Fatalf("median %d, scalar %d", med, inRange[k-1])
	}

	// 5. Maintenance: delete the selection, append replacements, compact,
	// and persist the result.
	mu := NewMutableFrom(ix)
	sel.Ones(func(row int) bool {
		if err := mu.Delete(row); err != nil {
			t.Fatal(err)
		}
		return true
	})
	for i := 0; i < 100; i++ {
		if _, err := mu.Append(1000); err != nil {
			t.Fatal(err)
		}
	}
	got := mu.Eval(Eq, 1000)
	if got.Count() != 100 { // all originals in [500,1500] are tombstoned
		t.Fatalf("A = 1000 after maintenance: %d rows, want 100", got.Count())
	}
	if err := mu.Compact(); err != nil {
		t.Fatal(err)
	}
	if mu.Rows() != rows-len(inRange)+100 {
		t.Fatalf("rows after compact = %d", mu.Rows())
	}
	dir2 := filepath.Join(t.TempDir(), "ix2")
	st2, err := SaveIndex(mu.Base(), dir2, StoreOptions{Scheme: ComponentLevel, Codec: CodecZlib})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st2.Eval(Eq, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 100 {
		t.Fatalf("persisted compacted index: A = 1000 matched %d", res.Count())
	}
}
