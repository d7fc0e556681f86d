package core

import (
	"math/rand"
	"testing"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/profile"
	"bitmapindex/internal/telemetry"
)

// TestEvalCarriesPprofLabels is the attribution acceptance check: while a
// traced Eval runs, the evaluating goroutine must carry the pprof labels
// bix_query_id=<trace ID> / bix_phase=eval. The Fetch callback executes on
// that goroutine inside the labeled region, so reading the runtime's own
// label sets from there observes exactly what a CPU profile sample would.
func TestEvalCarriesPprofLabels(t *testing.T) {
	vals := make([]uint64, 4096)
	r := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = uint64(r.Intn(10))
	}
	ix, err := Build(vals, 10, Base{5, 2}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace("label-probe")
	var observed []profile.QueryLabel
	opt := &EvalOptions{
		Trace: tr,
		Fetch: func(comp, slot int) *bitvec.Vector {
			if observed == nil {
				observed = profile.ActiveQueryLabels()
			}
			return ix.StoredBitmap(comp, slot)
		},
	}
	ix.Eval(Le, 6, opt)
	found := false
	for _, ql := range observed {
		if ql.QueryID == tr.ID() && ql.Phase == "eval" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pprof labels not observed inside Eval: trace %q, saw %+v", tr.ID(), observed)
	}
	// Outside the evaluation the label must be gone again.
	for _, ql := range profile.ActiveQueryLabels() {
		if ql.QueryID == tr.ID() {
			t.Fatalf("label %+v leaked past Eval", ql)
		}
	}
}

// TestUntracedEvalRunsUnlabeled pins the nil-trace fast path: no trace, no
// labels, no label-set bookkeeping.
func TestUntracedEvalRunsUnlabeled(t *testing.T) {
	ix, err := Build([]uint64{0, 1, 2, 3}, 4, Base{4}, EqualityEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	var observed []profile.QueryLabel
	opt := &EvalOptions{
		Fetch: func(comp, slot int) *bitvec.Vector {
			observed = profile.ActiveQueryLabels()
			return ix.StoredBitmap(comp, slot)
		},
	}
	ix.Eval(Eq, 2, opt)
	for _, ql := range observed {
		if ql.Phase == "eval" {
			t.Fatalf("untraced Eval carried a label: %+v", ql)
		}
	}
}

// TestSegmentedTraceAggregatesSegments is the check for per-segment skew
// visibility: the segments phase must record one call per segment with
// coherent min/max/sum aggregates. Once the query returns, no goroutine
// may still carry its trace ID, pool workers included.
func TestSegmentedTraceAggregatesSegments(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 3<<16 + 1 // several full segments plus a ragged tail at SegBits=12
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(r.Intn(20))
	}
	ix, err := Build(vals, 20, Base{5, 4}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SegConfig{SegBits: 12, Workers: 3}
	nwords := (n + 63) / 64
	segWords := 1 << (12 - 6)
	nseg := (nwords + segWords - 1) / segWords

	tr := telemetry.NewTrace("seg-agg")
	ix.SegmentedEval(Ge, 7, &EvalOptions{Trace: tr}, cfg)

	var rec *telemetry.PhaseRecord
	for _, ph := range tr.Phases() {
		if ph.Phase == telemetry.PhaseSegments {
			r := ph
			rec = &r
		}
	}
	if rec == nil {
		t.Fatal("no segments phase recorded")
	}
	if rec.Calls != nseg {
		t.Errorf("segments calls = %d, want one per segment (%d)", rec.Calls, nseg)
	}
	if rec.Min < 0 || rec.Max < rec.Min {
		t.Errorf("incoherent extremes: min %v max %v", rec.Min, rec.Max)
	}
	if rec.Duration < rec.Max {
		t.Errorf("sum %v < max %v", rec.Duration, rec.Max)
	}
	for _, ql := range profile.ActiveQueryLabels() {
		if ql.QueryID == tr.ID() {
			t.Errorf("goroutine still labeled %+v after the query returned", ql)
		}
	}
}
