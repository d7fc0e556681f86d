package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
	"bitmapindex/internal/design"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/storage"
	"bitmapindex/internal/telemetry"
)

// suiteResult is one named benchmark suite in the -json report. Metrics
// are sorted by name so reports diff cleanly and the compare mode never
// depends on emission order.
type suiteResult struct {
	Name    string        `json:"name"`
	Metrics []suiteMetric `json:"metrics"`
}

// suiteMetric is one measured quantity with the metadata the regression
// checker needs: Kind selects the noise threshold ("count" metrics are
// deterministic for a fixed seed, "rate" mildly noisy, "time" wall-clock
// noisy) and Better the direction of improvement.
type suiteMetric struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`   // "count" | "rate" | "time"
	Better string  `json:"better"` // "lower" | "higher"
	Value  float64 `json:"value"`
}

const suiteCard = 100

// runSuites executes the canonical benchmark suite set: one query sweep
// per bitmap encoding over a knee-design index on uniform data, plus a
// cached-store suite exercising the buffer pool. All "count" metrics are
// deterministic functions of (rows, seed).
func runSuites(o options, w io.Writer) ([]suiteResult, error) {
	col := data.Uniform(o.Rows, suiteCard, o.Seed)
	base, err := design.Knee(suiteCard)
	if err != nil {
		return nil, err
	}
	var suites []suiteResult
	var agg costModelAgg
	for _, enc := range []struct {
		name string
		enc  core.Encoding
	}{
		{"eval_range", core.RangeEncoded},
		{"eval_equality", core.EqualityEncoded},
		{"eval_interval", core.IntervalEncoded},
	} {
		ix, err := core.Build(col.Values, suiteCard, base, enc.enc, nil)
		if err != nil {
			return nil, err
		}
		suites = append(suites, evalSuite(enc.name, ix))
		agg.sweep(ix)
	}
	cm, err := agg.suite()
	if err != nil {
		return nil, err
	}
	suites = append(suites, *cm)
	cs, err := cacheSuite(col, base)
	if err != nil {
		return nil, err
	}
	suites = append(suites, *cs)
	printSuites(w, suites)
	return suites, nil
}

// sortSuiteMetrics orders a suite's metrics by name so reports diff
// cleanly and comparisons never depend on emission order.
func sortSuiteMetrics(s *suiteResult) {
	sort.Slice(s.Metrics, func(a, b int) bool {
		return s.Metrics[a].Name < s.Metrics[b].Name
	})
}

// evalSuite sweeps every operator over every predicate constant and
// reports the paper's two cost measures (scans, boolean operations) per
// query plus the measured wall time per query.
func evalSuite(name string, ix *core.Index) suiteResult {
	var st core.Stats
	opt := &core.EvalOptions{Stats: &st}
	n := 0
	t0 := time.Now()
	for _, op := range core.AllOps {
		for v := uint64(0); v < suiteCard; v++ {
			ix.Eval(op, v, opt)
			n++
		}
	}
	elapsed := time.Since(t0)
	return suiteResult{Name: name, Metrics: []suiteMetric{
		{Name: "queries", Kind: "count", Better: "higher", Value: float64(n)},
		{Name: "scans_per_query", Kind: "count", Better: "lower", Value: float64(st.Scans) / float64(n)},
		{Name: "ops_per_query", Kind: "count", Better: "lower", Value: float64(st.Ops()) / float64(n)},
		{Name: "ns_per_query", Kind: "time", Better: "lower", Value: float64(elapsed.Nanoseconds()) / float64(n)},
	}}
}

// costModelMeanTimeError is the documented acceptance bound for the live
// time model: the mean relative error of predicted vs measured evaluation
// time across the suite sweep must stay below it. The bound is generous —
// per-query times at this scale are tens of microseconds and the EWMA
// ns-per-scan calibration tracks averages, not per-query scheduler noise —
// but it catches the model losing the plot (being off by multiples).
const costModelMeanTimeError = 1.5

// costModelAgg accumulates the cost-model accuracy check that runs
// alongside the eval suites: every query of the sweep is replayed through
// engine.AnalyzeIndexQuery, so predicted scans are compared to measured
// scans per query (they must match exactly — the
// paper's digit-level model counts the very fetches the evaluator
// performs) and the time model's EWMA calibration is exercised. The
// analyzed queries also feed the bix_cost_model_error_* histograms, which
// a -metrics scrape exposes live.
type costModelAgg struct {
	queries    int
	mismatches int
	timeErrSum float64
	timeErrN   int
}

// sweep replays every operator/constant query against ix through the
// analyzer.
func (a *costModelAgg) sweep(ix *core.Index) {
	for _, op := range core.AllOps {
		for v := uint64(0); v < suiteCard; v++ {
			q := fmt.Sprintf("A %s %d", op, v)
			tr := telemetry.NewTrace(q)
			var st core.Stats
			t0 := time.Now()
			ix.Eval(op, v, &core.EvalOptions{Stats: &st, Trace: tr})
			rep := engine.AnalyzeIndexQuery(q, "bench-cost-model", ix.Base(), ix.Encoding(),
				ix.Cardinality(), op, v, st, time.Since(t0), tr)
			a.queries++
			if rep.ScansError != 0 {
				a.mismatches++
			}
			if rep.TimeError >= 0 {
				a.timeErrSum += rep.TimeError
				a.timeErrN++
			}
		}
	}
}

// suite renders the aggregate as the cost_model suite and enforces the
// acceptance bounds: zero scan mismatches, mean time error under
// costModelMeanTimeError.
func (a *costModelAgg) suite() (*suiteResult, error) {
	if a.mismatches > 0 {
		return nil, fmt.Errorf("cost model: predicted scans != measured scans on %d of %d queries",
			a.mismatches, a.queries)
	}
	var mean float64
	if a.timeErrN > 0 {
		mean = a.timeErrSum / float64(a.timeErrN)
	}
	if mean > costModelMeanTimeError {
		return nil, fmt.Errorf("cost model: mean time error %.3f exceeds bound %v",
			mean, costModelMeanTimeError)
	}
	return &suiteResult{Name: "cost_model", Metrics: []suiteMetric{
		{Name: "queries", Kind: "count", Better: "higher", Value: float64(a.queries)},
		{Name: "scan_mismatches", Kind: "count", Better: "lower", Value: float64(a.mismatches)},
		{Name: "time_error_mean", Kind: "time", Better: "lower", Value: mean},
	}}, nil
}

// cacheSuite saves a range-encoded index to disk and replays a query sweep
// through a buffer pool sized at half the stored bitmaps: the steady-state
// hit rate and per-query read volume are deterministic for a fixed seed.
func cacheSuite(col data.Column, base core.Base) (*suiteResult, error) {
	ix, err := core.Build(col.Values, suiteCard, base, core.RangeEncoded, nil)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "bixbench-suite-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := storage.Save(ix, dir, storage.Options{Scheme: storage.BitmapLevel, Compress: true})
	if err != nil {
		return nil, err
	}
	cs, err := storage.NewCached(st, ix.NumBitmaps()/2)
	if err != nil {
		return nil, err
	}
	var m storage.Metrics
	n := 0
	t0 := time.Now()
	for pass := 0; pass < 2; pass++ {
		for v := uint64(0); v < suiteCard; v += 7 {
			if _, err := cs.Eval(core.Le, v, &m); err != nil {
				return nil, err
			}
			n++
		}
	}
	elapsed := time.Since(t0)
	return &suiteResult{Name: "cache", Metrics: []suiteMetric{
		{Name: "queries", Kind: "count", Better: "higher", Value: float64(n)},
		{Name: "hit_rate", Kind: "rate", Better: "higher", Value: cs.HitRate()},
		{Name: "bytes_read_per_query", Kind: "count", Better: "lower", Value: float64(m.BytesRead) / float64(n)},
		{Name: "scans_per_query", Kind: "count", Better: "lower", Value: float64(m.Stats.Scans) / float64(n)},
		{Name: "ns_per_query", Kind: "time", Better: "lower", Value: float64(elapsed.Nanoseconds()) / float64(n)},
	}}, nil
}
