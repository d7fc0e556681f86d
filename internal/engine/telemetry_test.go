package engine

import (
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
	"bitmapindex/internal/telemetry"
)

// telemetryRelation builds a two-column relation over identity-ranked data
// with bitmap (range-encoded) and RID indexes on both columns.
func telemetryRelation(t *testing.T, rows int, card uint64, base core.Base) *Relation {
	t.Helper()
	r := NewRelation("tele")
	for _, name := range []string{"a", "b"} {
		ranks := make([]uint64, rows)
		shift := 0
		if name == "b" {
			shift = 7
		}
		for i := range ranks {
			ranks[i] = uint64(i+shift) % card
		}
		c, err := r.AddRanked(name, ranks, card)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.BuildBitmapIndex(base, core.RangeEncoded); err != nil {
			t.Fatal(err)
		}
		c.BuildRIDIndex()
	}
	return r
}

func plansCount(method string) int64 {
	return telemetry.Default().Snapshot().Counters[`bix_engine_plans_total{method="`+method+`"}`]
}

// TestPlanStatsPropagation checks Cost.Stats through all plans: the
// bitmap-merge plan's scan count must equal the analytic per-predicate
// scan model plus the counted cross-predicate AND, while the non-bitmap
// plans report zero Stats. Each executed plan bumps its
// bix_engine_plans_total{method=...} counter and the bitmap work flows into
// the default registry's bix_scans_total.
func TestPlanStatsPropagation(t *testing.T) {
	const (
		rows = 4000
		card = 20
	)
	base := core.Base{5, 4}
	r := telemetryRelation(t, rows, card, base)
	preds := []Pred{
		{Col: "a", Op: core.Le, Val: 11},
		{Col: "b", Op: core.Ge, Val: 4},
	}

	// P1, P2 and P3-ridmerge touch no bitmap index: Stats must stay zero.
	for _, m := range []Method{FullScan, IndexFilter, RIDMerge} {
		beforePlans := plansCount(m.String())
		res, c, err := r.Select(preds, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if c.Stats != (core.Stats{}) {
			t.Errorf("%v: Stats = %+v, want zero", m, c.Stats)
		}
		if res.Count() != c.Rows || c.Rows <= 0 {
			t.Errorf("%v: result count %d vs Cost.Rows %d", m, res.Count(), c.Rows)
		}
		if got := plansCount(m.String()) - beforePlans; got != 1 {
			t.Errorf("%v: bix_engine_plans_total grew by %d, want 1", m, got)
		}
	}

	// P3-bitmapmerge: per-predicate scans follow the analytic model (the
	// dictionary is the identity, so predicates translate 1:1 to ranks),
	// plus one counted AND merging the two result bitmaps.
	wantScans := cost.ScansRange(base, card, core.Le, 11) +
		cost.ScansRange(base, card, core.Ge, 4)
	beforeScans := telemetry.Default().Snapshot().Counters["bix_scans_total"]
	beforePlans := plansCount(BitmapMerge.String())
	res, c, err := r.Select(preds, BitmapMerge)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Scans != wantScans {
		t.Errorf("bitmapMerge Stats.Scans = %d, want %d", c.Stats.Scans, wantScans)
	}
	if c.Stats.Ands == 0 {
		t.Error("bitmapMerge must count the cross-predicate AND")
	}
	if res.Count() != c.Rows {
		t.Errorf("result count %d vs Cost.Rows %d", res.Count(), c.Rows)
	}
	if got := plansCount(BitmapMerge.String()) - beforePlans; got != 1 {
		t.Errorf("bix_engine_plans_total{P3-bitmapmerge} grew by %d, want 1", got)
	}
	if got := telemetry.Default().Snapshot().Counters["bix_scans_total"] - beforeScans; got != int64(wantScans) {
		t.Errorf("bix_scans_total grew by %d, want %d", got, wantScans)
	}

	// Auto must execute exactly one concrete plan (no double count via the
	// dispatch path) and report which.
	snapBefore := telemetry.Default().Snapshot().Counters
	_, c, err = r.Select(preds, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if c.Method == Auto {
		t.Errorf("auto must resolve to a concrete method, got %v", c.Method)
	}
	snapAfter := telemetry.Default().Snapshot().Counters
	grew := 0
	for _, m := range []Method{FullScan, IndexFilter, RIDMerge, BitmapMerge} {
		id := `bix_engine_plans_total{method="` + m.String() + `"}`
		d := snapAfter[id] - snapBefore[id]
		grew += int(d)
		if m == c.Method && d != 1 {
			t.Errorf("auto: %v counter grew by %d, want 1", m, d)
		}
	}
	if grew != 1 {
		t.Errorf("auto bumped %d plan counters, want exactly 1", grew)
	}
}

// TestSelectTracedPhases checks that a traced auto-selection records the
// planning phase plus the executed plan's work phases.
func TestSelectTracedPhases(t *testing.T) {
	base := core.Base{5, 4}
	r := telemetryRelation(t, 2000, 20, base)
	preds := []Pred{{Col: "a", Op: core.Le, Val: 11}, {Col: "b", Op: core.Ge, Val: 4}}
	tr := telemetry.NewTrace("auto le/ge")
	if _, _, err := r.SelectOpts(preds, Auto, &SelectOptions{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	phases := make(map[telemetry.Phase]telemetry.PhaseRecord)
	for _, p := range tr.Phases() {
		phases[p.Phase] = p
	}
	if phases[telemetry.PhasePlan].Calls == 0 {
		t.Error("trace missing plan phase")
	}
	if len(phases) < 2 {
		t.Errorf("trace has %d phases, want planning plus execution work: %v", len(phases), tr.Phases())
	}
}

// TestBufferedEvalMatchesCostModel compares the measured buffered scan
// counts against the cost model: per-query scans must equal
// cost.ScansRangeBuffered, and the average over all 6*card queries must
// match cost.ExactTimeRangeBuffered.
func TestBufferedEvalMatchesCostModel(t *testing.T) {
	const card = 24
	base := core.Base{6, 4}
	rows := 3000
	ranks := make([]uint64, rows)
	for i := range ranks {
		ranks[i] = uint64(i*7+3) % card
	}
	ix, err := core.Build(ranks, card, base, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := []int{2, 1} // buffer two bitmaps of component 1, one of component 2
	buffered := func(comp, slot int) bool { return slot < a[comp] }

	var total int
	var queries int
	for _, op := range core.AllOps {
		for v := uint64(0); v < card; v++ {
			var st core.Stats
			ix.Eval(op, v, &core.EvalOptions{Stats: &st, Buffered: buffered})
			want := cost.ScansRangeBuffered(base, card, op, v, buffered)
			if st.Scans != want {
				t.Errorf("%v %d: measured %d scans, model says %d", op, v, st.Scans, want)
			}
			total += st.Scans
			queries++
		}
	}
	// ExactTimeRangeBuffered averages over all 6*card queries.
	wantAvg := cost.ExactTimeRangeBuffered(base, card, buffered)
	gotAvg := float64(total) / float64(queries)
	if diff := gotAvg - wantAvg; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("average buffered scans = %v, cost model = %v", gotAvg, wantAvg)
	}
}
