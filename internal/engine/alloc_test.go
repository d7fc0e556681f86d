package engine

import (
	"testing"

	"bitmapindex/internal/core"
)

// allocRows is sized so a result bitvec (rows/8 bytes) is a large heap
// object (>32KB). The runtime credits large allocations to the
// /gc/heap/allocs counters immediately, while small-object counts are only
// flushed at span refills — so only plans that materialize large vectors
// have a delta the test can assert deterministically.
const allocRows = 300_000

// TestSelectReportsAllocDeltas checks plan execution accounts its heap
// allocations into the cost: a materializing plan over allocRows rows
// necessarily allocates at least its result vector.
func TestSelectReportsAllocDeltas(t *testing.T) {
	rel := buildRelation(t, allocRows, 7)
	preds := []Pred{{Col: "quantity", Op: core.Le, Val: 25}}
	for _, m := range []Method{FullScan, BitmapMerge} {
		_, c, err := rel.Select(preds, m)
		if err != nil {
			t.Fatal(err)
		}
		if c.AllocBytes < allocRows/8 || c.AllocObjects <= 0 {
			t.Errorf("method %v: alloc delta %d bytes / %d objects, below the %d-byte result-vector floor",
				m, c.AllocBytes, c.AllocObjects, allocRows/8)
		}
	}
}

// TestAutoSelectAccountsAllocs checks the Auto dispatch reaches the
// concrete plan's accounting rather than returning zeros.
func TestAutoSelectAccountsAllocs(t *testing.T) {
	rel := buildRelation(t, allocRows, 7)
	preds := []Pred{
		{Col: "quantity", Op: core.Ge, Val: 40},
		{Col: "region", Op: core.Le, Val: 5},
	}
	_, c, err := rel.Select(preds, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if c.AllocBytes < allocRows/8 {
		t.Errorf("auto plan alloc delta %d bytes, below the %d-byte result-vector floor",
			c.AllocBytes, allocRows/8)
	}
}
