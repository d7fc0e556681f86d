package engine

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"bitmapindex/internal/core"
	"bitmapindex/internal/telemetry"
)

// TestExplainAnalyzeExactScans is the acceptance pin for the scan model:
// on the bitmap plan, predicted scans equal
// measured scans exactly — per predicate and for the whole plan — so
// every relative error is zero.
func TestExplainAnalyzeExactScans(t *testing.T) {
	rel := buildRelation(t, 3000, 1)
	queries := [][]Pred{
		{{Col: "quantity", Op: core.Le, Val: 10}},
		{{Col: "quantity", Op: core.Gt, Val: 45}, {Col: "region", Op: core.Eq, Val: 3}},
		{{Col: "price", Op: core.Ge, Val: 2500}, {Col: "quantity", Op: core.Lt, Val: 25}},
		{{Col: "quantity", Op: core.Eq, Val: 7}, {Col: "price", Op: core.Le, Val: 4000}, {Col: "region", Op: core.Ge, Val: 2}},
		{{Col: "quantity", Op: core.Eq, Val: 999}}, // absent constant -> trivial none
	}
	before, fedScans := calibrationFed(), 0
	for qi, preds := range queries {
		rep, err := rel.ExplainAnalyze(preds, BitmapMerge, nil)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if !rep.ModelApplies || rep.Method != "P3-bitmapmerge" {
			t.Fatalf("query %d: model_applies=%v method=%s", qi, rep.ModelApplies, rep.Method)
		}
		if rep.ScansError != 0 {
			t.Errorf("query %d: plan scans error %v (predicted %d, measured %d)",
				qi, rep.ScansError, rep.PredictedScans, rep.MeasuredScans)
		}
		if len(rep.Preds) != len(preds) {
			t.Fatalf("query %d: %d pred nodes for %d preds", qi, len(rep.Preds), len(preds))
		}
		for i, node := range rep.Preds {
			if node.ScansError != 0 {
				t.Errorf("query %d pred %d (%s): scans error %v (predicted %d, measured %d)",
					qi, i, node.Pred, node.ScansError, node.PredictedScans, node.MeasuredScans)
			}
			if node.Encoding != "range" || node.SpaceBitmaps == 0 {
				t.Errorf("query %d pred %d: design fields = %+v", qi, i, node)
			}
		}
		if rep.MeasuredScans > 0 {
			fedScans++
		}
		// Cross-check the reported actuals against a plain Select.
		_, c, err := rel.Select(preds, BitmapMerge)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rows != c.Rows || rep.MeasuredScans != c.Stats.Scans {
			t.Errorf("query %d: report rows/scans %d/%d, Select measured %d/%d",
				qi, rep.Rows, rep.MeasuredScans, c.Rows, c.Stats.Scans)
		}
	}
	if got := calibrationFed() - before; got != fedScans {
		t.Errorf("time calibration took %d samples, want one per scanning bitmap plan (%d)", got, fedScans)
	}
}

// calibrationFed returns how many samples the time calibration has taken.
func calibrationFed() int {
	calibration.mu.Lock()
	defer calibration.mu.Unlock()
	return calibration.fed
}

// TestExplainAnalyzeTrivialPredicate pins the degenerate-constant paths:
// a constant below the whole dictionary matches everything (zero scans,
// predicted and measured agree) and one above it under Eq matches nothing
// (the dictionary flags it trivial-none).
func TestExplainAnalyzeTrivialPredicate(t *testing.T) {
	rel := buildRelation(t, 500, 3)
	rep, err := rel.ExplainAnalyze([]Pred{{Col: "region", Op: core.Ge, Val: -5}}, BitmapMerge, nil)
	if err != nil {
		t.Fatal(err)
	}
	node := rep.Preds[0]
	if node.PredictedScans != 0 || node.MeasuredScans != 0 || node.ScansError != 0 {
		t.Fatalf("match-all node = %+v", node)
	}
	if rep.Rows != 500 {
		t.Fatalf("rows = %d, want all 500", rep.Rows)
	}

	rep, err = rel.ExplainAnalyze([]Pred{{Col: "region", Op: core.Eq, Val: 999}}, BitmapMerge, nil)
	if err != nil {
		t.Fatal(err)
	}
	node = rep.Preds[0]
	if node.Trivial != "none" || node.PredictedScans != 0 || node.MeasuredScans != 0 {
		t.Fatalf("match-none node = %+v", node)
	}
	if rep.Rows != 0 {
		t.Fatalf("rows = %d, want 0", rep.Rows)
	}
}

// TestExplainAnalyzeTimeCalibration checks the live time model: after one
// analyzed query seeds the ns-per-scan window, subsequent reports carry a
// prediction and a non-negative out-of-sample error.
func TestExplainAnalyzeTimeCalibration(t *testing.T) {
	rel := buildRelation(t, 2000, 5)
	preds := []Pred{{Col: "price", Op: core.Le, Val: 2000}}
	if _, err := rel.ExplainAnalyze(preds, BitmapMerge, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := rel.ExplainAnalyze(preds, BitmapMerge, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PredictedNS <= 0 || rep.TimeError < 0 {
		t.Fatalf("calibrated report: predicted_ns=%v time_error=%v", rep.PredictedNS, rep.TimeError)
	}
}

// TestCalibrationIgnoresOutlier pins the median window: one sample a
// thousand times too slow (a descheduled query) moves no prediction, and
// once the window has rolled past it the outlier is gone entirely.
func TestCalibrationIgnoresOutlier(t *testing.T) {
	calibration.mu.Lock()
	saved := calibration.samples
	savedFed := calibration.fed
	calibration.fed = 0
	calibration.mu.Unlock()
	t.Cleanup(func() {
		calibration.mu.Lock()
		calibration.samples, calibration.fed = saved, savedFed
		calibration.mu.Unlock()
	})

	if got := predictNS(4); got != 0 {
		t.Fatalf("uncalibrated prediction = %v, want 0", got)
	}
	for i := 0; i < calibrationWindow-1; i++ {
		calibrate(2, 200) // 100 ns/scan
	}
	calibrate(2, 200_000) // one outlier: 100 µs/scan
	if got := predictNS(4); got != 400 {
		t.Fatalf("prediction after one outlier = %v, want 400", got)
	}
	calibrate(1, 300)
	if got := predictNS(4); got != 400 {
		t.Fatalf("prediction = %v, want 400 (median of the window)", got)
	}
}

// TestExplainAnalyzeNonBitmapPlan checks plans that never read a stored
// bitmap do not claim (or pollute) model accuracy.
func TestExplainAnalyzeNonBitmapPlan(t *testing.T) {
	rel := buildRelation(t, 500, 7)
	before := calibrationFed()
	rep, err := rel.ExplainAnalyze([]Pred{{Col: "quantity", Op: core.Le, Val: 10}}, FullScan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModelApplies || rep.Method != "P1-fullscan" {
		t.Fatalf("fullscan report: %+v", rep)
	}
	if rep.PredictedScans == 0 {
		t.Error("prediction nodes should still carry the model's scans")
	}
	if rep.MeasuredScans != 0 {
		t.Errorf("fullscan measured %d scans", rep.MeasuredScans)
	}
	if calibrationFed() != before {
		t.Error("non-bitmap plan fed the time calibration")
	}
}

// TestExplainAnalyzeJSON checks the report marshals with the documented
// field names (the wire contract of /query?analyze=1).
func TestExplainAnalyzeJSON(t *testing.T) {
	rel := buildRelation(t, 500, 9)
	rep, err := rel.ExplainAnalyze([]Pred{{Col: "region", Op: core.Eq, Val: 3}}, Auto, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"query"`, `"method"`, `"trace_id"`, `"predicted_scans"`,
		`"measured_scans"`, `"scans_error"`, `"model_applies"`, `"preds"`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("report JSON missing %s: %s", want, raw)
		}
	}
}

// TestAnalyzeIndexQuery covers the single-index path the server uses:
// prediction is exact against the measured stats of a direct evaluation.
func TestAnalyzeIndexQuery(t *testing.T) {
	vals := []uint64{0, 3, 7, 11, 2, 9, 4, 0, 6, 1}
	ix, err := core.Build(vals, 12, core.Base{4, 3}, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace("A <= 7")
	var st core.Stats
	t0 := time.Now()
	ix.Eval(core.Le, 7, &core.EvalOptions{Stats: &st, Trace: tr})
	rep := AnalyzeIndexQuery("A <= 7", "eval-range", ix.Base(), ix.Encoding(),
		ix.Cardinality(), core.Le, 7, st, time.Since(t0), tr)
	if !rep.ModelApplies || rep.ScansError != 0 || rep.MeasuredScans != st.Scans {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Preds[0].Base != "<3,4>" || rep.Preds[0].SpaceBitmaps == 0 {
		t.Fatalf("pred node = %+v", rep.Preds[0])
	}
}
