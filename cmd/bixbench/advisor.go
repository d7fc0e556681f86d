package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
	"bitmapindex/internal/data"
	"bitmapindex/internal/design"
	"bitmapindex/internal/workload"
)

// The advisor suite's planted workload: three attributes, one of which
// receives advisorHotShare of the queries. The uniform space allocation
// the table would be built with misprices this skew; the suite replays
// the stream, asks the advisor, rebuilds under its recommendation and
// verifies the recommendation beats uniform on the measured scan count.
var advisorAttrs = []struct {
	name string
	card uint64
}{
	{"hot", 90},
	{"warm", 25},
	{"cold", 12},
}

const (
	advisorQueries  = 1000
	advisorHotShare = 8 // of every 10 queries: 8 hot, 1 warm, 1 cold
)

// runAdvisorSuites executes the deterministic advisor benchmark: a skewed
// query stream feeds the workload accumulator against indexes built under
// the uniform budget allocation, the advisor prices the gap, and the same
// stream replayed under the recommended allocation must cost strictly
// fewer scans. Every check is a hard error so the bench job gates on it.
func runAdvisorSuites(o options, w io.Writer) ([]suiteResult, error) {
	// The budget is what a knee design per attribute would occupy — the
	// space the catalog's default build spends.
	cards := make([]uint64, len(advisorAttrs))
	budget := 0
	for i, a := range advisorAttrs {
		cards[i] = a.card
		knee, err := design.Knee(a.card)
		if err != nil {
			return nil, err
		}
		budget += cost.Space(knee, core.RangeEncoded)
	}
	uniform, err := design.AllocateBudget(cards, budget)
	if err != nil {
		return nil, err
	}

	cols := make([]data.Column, len(advisorAttrs))
	infos := make([]workload.AttrInfo, len(advisorAttrs))
	designs := make([]workload.AttrDesign, len(advisorAttrs))
	for i, a := range advisorAttrs {
		cols[i] = data.Uniform(o.Rows, a.card, o.Seed+int64(i))
		infos[i] = workload.AttrInfo{Name: a.name, Card: a.card}
		designs[i] = workload.NewAttrDesign(a.name, a.card, uniform.Bases[i],
			core.RangeEncoded, "raw", "")
	}

	acc := workload.New(infos)
	uniformScans, uniformNS, err := replayAdvisorStream(cols, uniform.Bases, acc)
	if err != nil {
		return nil, err
	}

	rep, err := workload.Advise("bixbench-advisor", designs, acc.Snapshot())
	if err != nil {
		return nil, err
	}
	if !rep.Drifted || rep.Drift <= 0 {
		return nil, fmt.Errorf("advisor: planted %d/10 skew not flagged as drift (drift=%v)",
			advisorHotShare, rep.Drift)
	}
	if rep.Gain <= 0 {
		return nil, fmt.Errorf("advisor: no predicted gain over uniform allocation (gain=%v)", rep.Gain)
	}

	recBases := make([]core.Base, len(rep.Attrs))
	for i, a := range rep.Attrs {
		recBases[i] = a.RecommendedBase
	}
	weightedScans, weightedNS, err := replayAdvisorStream(cols, recBases, nil)
	if err != nil {
		return nil, err
	}
	if weightedScans >= uniformScans {
		return nil, fmt.Errorf("advisor: recommended design does not beat uniform: %d >= %d scans",
			weightedScans, uniformScans)
	}

	q := float64(advisorQueries)
	s := suiteResult{Name: "advisor", Metrics: []suiteMetric{
		{Name: "queries", Kind: "count", Better: "higher", Value: q},
		{Name: "drift_ppm", Kind: "count", Better: "higher", Value: math.Round(rep.Drift * 1e6)},
		{Name: "gain_milliscans", Kind: "count", Better: "higher", Value: math.Round(rep.Gain * 1e3)},
		{Name: "uniform_scans_per_query", Kind: "count", Better: "lower", Value: float64(uniformScans) / q},
		{Name: "weighted_scans_per_query", Kind: "count", Better: "lower", Value: float64(weightedScans) / q},
		{Name: "uniform_ns_per_query", Kind: "time", Better: "lower", Value: float64(uniformNS) / q},
		{Name: "weighted_ns_per_query", Kind: "time", Better: "lower", Value: float64(weightedNS) / q},
	}}
	sortSuiteMetrics(&s)
	suites := []suiteResult{s}
	printSuites(w, suites)
	fmt.Fprintf(w, "advisor: drift %.4f, predicted gain %.3f scans/query, measured %.3f -> %.3f scans/query\n",
		rep.Drift, rep.Gain, float64(uniformScans)/q, float64(weightedScans)/q)
	return suites, nil
}

// replayAdvisorStream runs the deterministic skewed stream against one
// range-encoded index per attribute built from bases, returning total
// scans and wall time. When acc is non-nil every query is observed, so
// the stream that measures the uniform design also trains the advisor.
func replayAdvisorStream(cols []data.Column, bases []core.Base, acc *workload.Accumulator) (int, int64, error) {
	ixs := make([]*core.Index, len(cols))
	for i, col := range cols {
		ix, err := core.Build(col.Values, advisorAttrs[i].card, bases[i], core.RangeEncoded, nil)
		if err != nil {
			return 0, 0, err
		}
		ixs[i] = ix
	}
	var st core.Stats
	opt := &core.EvalOptions{Stats: &st}
	t0 := time.Now()
	for i := 0; i < advisorQueries; i++ {
		attr := 0 // hot
		switch i % 10 {
		case advisorHotShare:
			attr = 1 // warm
		case advisorHotShare + 1:
			attr = 2 // cold
		}
		a := advisorAttrs[attr]
		v := uint64(i*7) % a.card
		ixs[attr].Eval(core.Le, v, opt)
		if acc != nil {
			acc.Observe(workload.Event{Attr: a.name, Class: workload.RangeClass})
		}
	}
	return st.Scans, time.Since(t0).Nanoseconds(), nil
}
