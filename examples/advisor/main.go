// Advisor: physical database design for a bitmap index under a disk-space
// budget, walking the paper's Figure 2 — space-optimal (A), constrained
// time-optimal (B), knee (C), time-optimal (D) — and then improving point
// (B) further with bitmap buffering (Section 10). Every analytic claim is
// verified against a real index built over synthetic data.
package main

import (
	"fmt"
	"log"

	"bitmapindex"
	"bitmapindex/internal/data"
)

func main() {
	const (
		card   = 1000 // e.g. a "days since epoch" order-date attribute
		rows   = 100000
		budget = 40 // at most 40 stored bitmaps on disk
		bufMem = 6  // and 6 bitmaps worth of buffer memory
	)
	col := data.Uniform(rows, card, 7)

	fmt.Printf("attribute cardinality C = %d, space budget M = %d bitmaps\n\n", card, budget)

	show := func(tag string, base bitmapindex.Base) {
		fmt.Printf("%-24s %s\n", tag, bitmapindex.Describe(base, bitmapindex.RangeEncoded, card))
	}
	spaceOpt, err := bitmapindex.SpaceOptimalBase(card, bitmapindex.MaxComponents(card))
	if err != nil {
		log.Fatal(err)
	}
	knee, err := bitmapindex.KneeBase(card)
	if err != nil {
		log.Fatal(err)
	}
	timeOpt, err := bitmapindex.TimeOptimalBase(card, 1)
	if err != nil {
		log.Fatal(err)
	}
	heur, err := bitmapindex.BestBaseUnderSpace(card, budget)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := bitmapindex.BestBaseUnderSpaceExact(card, budget)
	if err != nil {
		log.Fatal(err)
	}
	show("(A) space-optimal", spaceOpt)
	show("(C) knee", knee)
	show("(D) time-optimal", timeOpt)
	show("(B) heuristic within M", heur)
	show("(B) exhaustive within M", exact)

	// Build the constrained design and verify the analytic scan count
	// against a measured sweep of real queries.
	ix, err := bitmapindex.New(col.Values, card, bitmapindex.WithSpaceBudget(budget))
	if err != nil {
		log.Fatal(err)
	}
	var st bitmapindex.Stats
	queries := 0
	for _, op := range []bitmapindex.Op{bitmapindex.Lt, bitmapindex.Le, bitmapindex.Gt, bitmapindex.Ge, bitmapindex.Eq, bitmapindex.Ne} {
		for v := uint64(0); v < card; v += 1 {
			ix.Eval(op, v, &bitmapindex.EvalOptions{Stats: &st})
			queries++
		}
	}
	fmt.Printf("\nbuilt %v over %d rows (%d bitmaps, %.1f KiB)\n",
		ix.Base(), ix.Rows(), ix.NumBitmaps(), float64(ix.SizeBytes())/1024)
	fmt.Printf("measured %.3f scans/query over all %d queries; model predicted %.3f\n",
		float64(st.Scans)/float64(queries), queries, bitmapindex.ExpectedScans(ix.Base(), card))

	// Now add buffer memory: which bitmaps should stay resident?
	a := bitmapindex.OptimalBuffer(ix.Base(), card, bufMem)
	fmt.Printf("\nwith %d buffered bitmaps, optimal assignment %v: %.3f scans/query (model)\n",
		bufMem, a, bitmapindex.ExpectedScansBuffered(ix.Base(), card, a))
	var bst bitmapindex.Stats
	var hits bitmapindex.BufferHitStats
	buffered := a.CountingFor(&hits)
	for _, op := range []bitmapindex.Op{bitmapindex.Lt, bitmapindex.Le, bitmapindex.Gt, bitmapindex.Ge, bitmapindex.Eq, bitmapindex.Ne} {
		for v := uint64(0); v < card; v++ {
			ix.Eval(op, v, &bitmapindex.EvalOptions{Stats: &bst, Buffered: buffered})
		}
	}
	fmt.Printf("measured %.3f scans/query with that buffer (%d of %d bitmap references served from memory, %.1f%% hit rate)\n",
		float64(bst.Scans)/float64(queries), hits.Hits(), hits.Hits()+hits.Misses(), 100*hits.HitRate())

	// If the design itself may follow the buffer size (Theorem 10.2):
	bb, ba, err := bitmapindex.BufferedTimeOptimalBase(card, bufMem)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("designing for the buffer instead (Theorem 10.2): base %v, assignment %v, %.3f scans/query\n",
		bb, ba, bitmapindex.ExpectedScansBuffered(bb, card, ba))

	// A real schema has many indexed attributes sharing one disk budget;
	// the allocator divides it optimally across their tradeoff frontiers.
	workload := []uint64{50, 2406, card}
	alloc, err := bitmapindex.AllocateBudget(workload, 3*budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsharing M = %d bitmaps across attributes with C = %v:\n", 3*budget, workload)
	for i, c := range workload {
		fmt.Printf("  C=%-5d -> %v (%d bitmaps, %.3f scans/query)\n", c, alloc.Bases[i], alloc.Spaces[i], alloc.Times[i])
	}
	fmt.Printf("  total %d bitmaps, %.3f summed scans/query\n", alloc.TotalSpace(), alloc.TotalTime())

	// The uniform split above assumes every attribute is queried equally
	// often. Live systems rarely are: observe a skewed workload through
	// the accumulator and let the weighted allocator re-divide the same
	// budget by what the queries actually touch.
	acc := bitmapindex.NewWorkloadAccumulator([]bitmapindex.WorkloadAttrInfo{
		{Name: "status", Card: workload[0]},
		{Name: "customer", Card: workload[1]},
		{Name: "orderdate", Card: workload[2]},
	})
	for i := 0; i < 1000; i++ {
		ev := bitmapindex.WorkloadEvent{Attr: "orderdate", Class: bitmapindex.WorkloadRange}
		if i%10 == 8 {
			ev = bitmapindex.WorkloadEvent{Attr: "status", Class: bitmapindex.WorkloadEq}
		} else if i%10 == 9 {
			ev = bitmapindex.WorkloadEvent{Attr: "customer", Class: bitmapindex.WorkloadEq}
		}
		acc.Observe(ev)
	}
	profile := acc.Snapshot()
	weighted, err := bitmapindex.AllocateBudgetWeighted(profile.Demands(), 3*budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nobserved workload: 80%% range queries on C=%d, 10%% point lookups on each other attribute\n", card)
	for i, c := range workload {
		fmt.Printf("  C=%-5d -> %v (%d bitmaps, %.3f scans/query at its observed frequency)\n",
			c, weighted.Bases[i], weighted.Spaces[i], weighted.Times[i])
	}

	// The advisor packages that comparison: current design vs weighted
	// recommendation, drift from uniform, and the expected-scan gain.
	designs := make([]bitmapindex.AttrDesign, len(workload))
	names := []string{"status", "customer", "orderdate"}
	for i, c := range workload {
		designs[i] = bitmapindex.NewAttrDesign(names[i], c, alloc.Bases[i], bitmapindex.RangeEncoded, "raw", "")
	}
	rep, err := bitmapindex.Advise("orders", designs, profile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("advisor: drift %.3f from uniform (drifted=%v), expected scans/query %.3f -> %.3f (gain %.3f)\n",
		rep.Drift, rep.Drifted, rep.CurrentTime, rep.RecommendedTime, rep.Gain)
}
