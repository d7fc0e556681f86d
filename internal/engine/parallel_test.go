package engine

import (
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/telemetry"
)

var parallelQueries = [][]Pred{
	{{Col: "quantity", Op: core.Le, Val: 10}},
	{{Col: "quantity", Op: core.Gt, Val: 45}, {Col: "region", Op: core.Eq, Val: 3}},
	{{Col: "price", Op: core.Ge, Val: 2500}, {Col: "quantity", Op: core.Lt, Val: 25}},
	{{Col: "quantity", Op: core.Eq, Val: 7}, {Col: "price", Op: core.Le, Val: 4000}, {Col: "region", Op: core.Ge, Val: 2}},
	{{Col: "quantity", Op: core.Eq, Val: 999}}, // absent constant
}

// noAllocs strips the run-dependent allocation deltas so cost comparisons
// pin only the deterministic accounting (bytes, rows, stats).
func noAllocs(c Cost) Cost {
	c.AllocBytes, c.AllocObjects = 0, 0
	return c
}

// TestSelectCountAllPlans checks the count pushdown of every plan against
// the materializing Select.
func TestSelectCountAllPlans(t *testing.T) {
	rel := buildRelation(t, 3000, 7)
	for qi, preds := range parallelQueries {
		want, _, err := rel.Select(preds, FullScan)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		wantN := want.Count()
		for _, m := range []Method{FullScan, IndexFilter, RIDMerge, BitmapMerge, Auto} {
			n, c, err := rel.SelectCount(preds, m, nil)
			if err != nil {
				t.Fatalf("query %d method %v: %v", qi, m, err)
			}
			if n != wantN {
				t.Fatalf("query %d method %v: count %d, want %d", qi, m, n, wantN)
			}
			if c.Rows != n {
				t.Fatalf("query %d method %v: cost.Rows %d != count %d", qi, m, c.Rows, n)
			}
		}
	}
}

// TestSelectCountBitmapCostMatchesSelect checks that the fused bitmap count
// reports the same bytes and stats as the materializing plan (the pushdown
// is a CPU/memory optimization, not an accounting change).
func TestSelectCountBitmapCostMatchesSelect(t *testing.T) {
	rel := buildRelation(t, 3000, 7)
	for qi, preds := range parallelQueries {
		_, wc, err := rel.Select(preds, BitmapMerge)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		_, cc, err := rel.SelectCount(preds, BitmapMerge, nil)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if noAllocs(cc) != noAllocs(wc) {
			t.Fatalf("query %d: count cost %+v != select cost %+v", qi, cc, wc)
		}
	}
}

func TestSelectCountErrors(t *testing.T) {
	rel := buildRelation(t, 500, 1)
	if _, _, err := rel.SelectCount(nil, FullScan, nil); err == nil {
		t.Fatal("empty predicate list: want error")
	}
	if _, _, err := rel.SelectCount([]Pred{{Col: "nope", Op: core.Eq, Val: 1}}, FullScan, nil); err == nil {
		t.Fatal("unknown column: want error")
	}
	if _, _, err := rel.SelectCount([]Pred{{Col: "quantity", Op: core.Eq, Val: 1}}, Method(99), nil); err == nil {
		t.Fatal("unknown method: want error")
	}
	bare := NewRelation("bare")
	if _, err := bare.AddInt64("v", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bare.SelectCount([]Pred{{Col: "v", Op: core.Eq, Val: 1}}, BitmapMerge, nil); err == nil {
		t.Fatal("missing bitmap index: want error")
	}
	if _, _, err := bare.SelectCount([]Pred{{Col: "v", Op: core.Eq, Val: 1}}, IndexFilter, nil); err == nil {
		t.Fatal("missing RID index: want error")
	}
}

// TestSelectCountTracesSegments checks that the count path traces its
// bitmap work: the evaluator's per-segment combination spans (the bool_ops
// phase of the single-goroutine runner) and the fused final popcount.
func TestSelectCountTracesSegments(t *testing.T) {
	rel := buildRelation(t, 3000, 7)
	tr := telemetry.NewTrace("count")
	if _, _, err := rel.SelectCount(parallelQueries[1], BitmapMerge, &SelectOptions{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	calls := map[telemetry.Phase]int{}
	for _, ph := range tr.Phases() {
		calls[ph.Phase] = ph.Calls
	}
	if calls[telemetry.PhaseBoolOps] == 0 || calls[telemetry.PhasePopcount] != 1 {
		t.Fatalf("SelectCount phases %v: want segment spans under bool_ops and one fused popcount", tr.Phases())
	}
}
