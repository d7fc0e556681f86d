package experiments

import (
	"fmt"
	"io"

	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
	"bitmapindex/internal/engine"
)

// runIntro reproduces the Section 1 cost analysis: with 4-byte RIDs and a
// one-bitmap equality probe, the bitmap plan reads fewer bytes than the
// RID-list plan once the query selects at least 1/32 of the relation.
func runIntro(cfg Config, w io.Writer) error {
	n := cfg.Rows
	if cfg.Quick && n > 16000 {
		n = 16000
	}
	// The paper's analysis assumes one bitmap read per (equality)
	// predicate on a Value-List index. A geometric value distribution
	// lets equality queries sweep selectivity from 1/2 down to 1/2^15:
	// value k occupies ~n/2^(k+1) rows.
	const card = 16
	vals := make([]uint64, n)
	pos := 0
	for k := 0; k < card && pos < n; k++ {
		cnt := n >> uint(k+1)
		if k == card-1 || cnt < 1 {
			cnt = n - pos
		}
		for i := 0; i < cnt && pos < n; i++ {
			vals[pos] = uint64(k)
			pos++
		}
	}
	rel := engine.NewRelation("r")
	col, err := rel.AddRanked("a", vals, card)
	if err != nil {
		return err
	}
	col.BuildRIDIndex()
	if err := col.BuildBitmapIndex(nil, core.EqualityEncoded); err != nil {
		return err
	}
	section(w, "Section 1: plan P3 with bitmap vs RID-list indexes (N=%d, 4-byte RIDs, equality queries)", n)
	t := newTable(w)
	t.row("selectivity", "result_rows", "rid_bytes", "bitmap_bytes", "winner")
	crossover := -1.0
	for k := card - 1; k >= 0; k-- {
		preds := []engine.Pred{{Col: "a", Op: core.Eq, Val: int64(k)}}
		_, ridCost, err := rel.Select(preds, engine.RIDMerge)
		if err != nil {
			return err
		}
		_, bmCost, err := rel.Select(preds, engine.BitmapMerge)
		if err != nil {
			return err
		}
		sel := float64(ridCost.Rows) / float64(n)
		winner := "rid-list"
		if bmCost.BytesRead <= ridCost.BytesRead {
			winner = "bitmap"
			if crossover < 0 || sel < crossover {
				crossover = sel
			}
		}
		t.row(fmt.Sprintf("%.5f", sel), ridCost.Rows, ridCost.BytesRead, bmCost.BytesRead, winner)
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "measured crossover at selectivity %.5f; analysis predicts 1/32 = %.5f\n", crossover, 1.0/32)
	return nil
}

// linearForm renders a count that is linear in n (sampled at n=2 and n=3)
// as a formula like "2n-1".
func linearForm(f func(n int) int) string {
	a := f(3) - f(2)
	b := f(2) - 2*a
	switch {
	case a == 0:
		return fmt.Sprintf("%d", b)
	case b == 0 && a == 1:
		return "n"
	case b == 0:
		return fmt.Sprintf("%dn", a)
	case a == 1 && b > 0:
		return fmt.Sprintf("n+%d", b)
	case a == 1:
		return fmt.Sprintf("n%d", b)
	case b > 0:
		return fmt.Sprintf("%dn+%d", a, b)
	default:
		return fmt.Sprintf("%dn%d", a, b)
	}
}

// runTable1 prints the worst-case analysis of the two evaluation
// algorithms as formulas in the number of components n, then verifies the
// totals against measured maxima at n = 3.
func runTable1(cfg Config, w io.Writer) error {
	section(w, "Table 1: worst-case bitmap operations and scans (formulas in n)")
	t := newTable(w)
	t.row("algorithm", "predicate", "AND", "OR", "XOR", "NOT", "total", "scans")
	type alg struct {
		name string
		f    func(core.Op, int) cost.OpCounts
	}
	for _, a := range []alg{{"RangeEval", cost.WorstCaseNaive}, {"RangeEval-Opt", cost.WorstCaseOpt}} {
		for _, op := range []core.Op{core.Le, core.Lt, core.Ge, core.Gt, core.Eq, core.Ne} {
			get := func(sel func(cost.OpCounts) int) string {
				return linearForm(func(n int) int { return sel(a.f(op, n)) })
			}
			t.row(a.name, "A "+op.String()+" c",
				get(func(c cost.OpCounts) int { return c.Ands }),
				get(func(c cost.OpCounts) int { return c.Ors }),
				get(func(c cost.OpCounts) int { return c.Xors }),
				get(func(c cost.OpCounts) int { return c.Nots }),
				get(func(c cost.OpCounts) int { return c.Total() }),
				get(func(c cost.OpCounts) int { return c.Scans }))
		}
	}
	if err := t.flush(); err != nil {
		return err
	}

	// Instrumented verification at n = 3 (base <5,5,5>, C = 125).
	base := core.Base{5, 5, 5}
	card, _ := base.Product()
	ix, err := core.Build([]uint64{0}, card, base, core.RangeEncoded, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmeasured maxima over all %d queries at n=3, base %v:\n", 6*card, base)
	t = newTable(w)
	t.row("predicate", "naive_ops", "naive_scans", "opt_ops", "opt_scans", "ops_reduction")
	for _, op := range core.AllOps {
		var maxN, maxNS, maxO, maxOS int
		for v := uint64(0); v < card; v++ {
			var sn, so core.Stats
			ix.EvalRangeNaive(op, v, &core.EvalOptions{Stats: &sn})
			ix.Eval(op, v, &core.EvalOptions{Stats: &so})
			if sn.Ops() > maxN {
				maxN = sn.Ops()
			}
			if sn.Scans > maxNS {
				maxNS = sn.Scans
			}
			if so.Ops() > maxO {
				maxO = so.Ops()
			}
			if so.Scans > maxOS {
				maxOS = so.Scans
			}
		}
		t.row("A "+op.String()+" c", maxN, maxNS, maxO, maxOS,
			fmt.Sprintf("%.0f%%", 100*(1-float64(maxO)/float64(maxN))))
	}
	return t.flush()
}

// runFig8 reproduces Figure 8: average bitmap scans (a) and operations (b)
// per query as a function of the base number b, for uniform base-b
// range-encoded indexes, comparing RangeEval with RangeEval-Opt.
func runFig8(cfg Config, w io.Writer) error {
	cards := []uint64{100}
	if !cfg.Quick {
		cards = append(cards, 1000)
	}
	for _, card := range cards {
		section(w, "Figure 8: RangeEval vs RangeEval-Opt, uniform bases, C = %d", card)
		t := newTable(w)
		t.row("base", "n", "scans_naive", "scans_opt", "ops_naive", "ops_opt")
		// Dense points for small bases where the curves bend, sampled
		// beyond (they are smooth there).
		var bases []uint64
		for b := uint64(2); b <= card; b++ {
			if b <= 32 || (b%16 == 0 && b <= 128) || b%64 == 0 || b == card {
				bases = append(bases, b)
			}
		}
		for _, b := range bases {
			base := core.UniformFor(b, card)
			ix, err := core.Build([]uint64{0}, card, base, core.RangeEncoded, nil)
			if err != nil {
				return err
			}
			var sn, so core.Stats
			for _, op := range core.AllOps {
				for v := uint64(0); v < card; v++ {
					ix.EvalRangeNaive(op, v, &core.EvalOptions{Stats: &sn})
					ix.Eval(op, v, &core.EvalOptions{Stats: &so})
				}
			}
			q := float64(6 * card)
			t.row(b, base.N(),
				fmt.Sprintf("%.3f", float64(sn.Scans)/q),
				fmt.Sprintf("%.3f", float64(so.Scans)/q),
				fmt.Sprintf("%.3f", float64(sn.Ops())/q),
				fmt.Sprintf("%.3f", float64(so.Ops())/q))
		}
		if err := t.flush(); err != nil {
			return err
		}
	}
	return nil
}
