package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bitmapindex/internal/core"
)

func TestSpaceRange(t *testing.T) {
	cases := []struct {
		base core.Base
		want int
	}{
		{core.Base{9}, 8},
		{core.Base{3, 3}, 4},
		{core.Base{2, 2, 2, 2}, 4},
		{core.Base{10, 10, 10}, 27},
	}
	for _, c := range cases {
		if got := SpaceRange(c.base); got != c.want {
			t.Errorf("SpaceRange(%v) = %d, want %d", c.base, got, c.want)
		}
		if got := Space(c.base, core.RangeEncoded); got != c.want {
			t.Errorf("Space(range) disagrees")
		}
	}
}

func TestSpaceEquality(t *testing.T) {
	cases := []struct {
		base core.Base
		want int
	}{
		{core.Base{9}, 9},
		{core.Base{3, 3}, 6},
		{core.Base{2, 2, 2}, 3}, // base-2 components store one bitmap each
		{core.Base{2, 5}, 6},
	}
	for _, c := range cases {
		if got := SpaceEquality(c.base); got != c.want {
			t.Errorf("SpaceEquality(%v) = %d, want %d", c.base, got, c.want)
		}
	}
}

// TestSpaceMatchesBuiltIndex ensures the analytic space metric equals the
// stored-bitmap count of real indexes.
func TestSpaceMatchesBuiltIndex(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, base := range []core.Base{{7}, {3, 3}, {2, 2, 3}, {4, 2}} {
		card, _ := base.Product()
		vals := make([]uint64, 40)
		for i := range vals {
			vals[i] = uint64(r.Intn(int(card)))
		}
		for _, enc := range []core.Encoding{core.EqualityEncoded, core.RangeEncoded} {
			ix, err := core.Build(vals, card, base, enc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ix.NumBitmaps(), Space(base, enc); got != want {
				t.Errorf("base %v enc %v: built %d bitmaps, model says %d", base, enc, got, want)
			}
		}
	}
}

// TestScansModelMatchesEvaluator is the keystone cross-check: the pure
// digit-level scan model must agree with the instrumented evaluators on
// every query, for both encodings.
func TestScansModelMatchesEvaluator(t *testing.T) {
	bases := []core.Base{{9}, {3, 3}, {4, 3}, {2, 2, 2, 2}, {5, 2, 3}, {2, 7}, {12, 2}}
	for _, base := range bases {
		card, _ := base.Product()
		// A one-row index suffices: scan counts are data independent.
		vals := []uint64{0}
		for _, enc := range []core.Encoding{core.RangeEncoded, core.EqualityEncoded} {
			ix, err := core.Build(vals, card, base, enc, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range core.AllOps {
				for v := uint64(0); v < card; v++ {
					var st core.Stats
					ix.Eval(op, v, &core.EvalOptions{Stats: &st})
					var want int
					if enc == core.RangeEncoded {
						want = ScansRange(base, card, op, v)
					} else {
						want = ScansEquality(base, card, op, v)
					}
					if st.Scans != want {
						t.Fatalf("%v %v: A %s %d: evaluator scanned %d, model says %d",
							base, enc, op, v, st.Scans, want)
					}
				}
			}
		}
	}
}

// TestClosedFormMatchesEnumeration verifies eq. (4): when C equals the base
// product, the closed form equals exact enumeration.
func TestClosedFormMatchesEnumeration(t *testing.T) {
	for _, base := range []core.Base{{9}, {3, 3}, {10, 10}, {2, 2, 2, 2}, {4, 5, 3}, {17, 2}} {
		card, _ := base.Product()
		closed := TimeRange(base, card)
		exact := ExactTimeRange(base, card)
		if math.Abs(closed-exact) > 1e-9 {
			t.Errorf("base %v: closed form %.9f != enumeration %.9f", base, closed, exact)
		}
	}
}

// TestClosedFormSingleComponent checks the n = 1 special values: a
// single-component base-C range-encoded index needs (1 - 1/C) scans for a
// range predicate and 2 - 2/C for an equality predicate, averaging
// (4/3)*(1 - 1/C).
func TestClosedFormSingleComponent(t *testing.T) {
	for _, c := range []uint64{2, 10, 100, 1000} {
		want := (4.0 / 3.0) * (1 - 1/float64(c))
		if got := TimeRange(core.Base{c}, c); math.Abs(got-want) > 1e-12 {
			t.Errorf("C=%d: TimeRange = %f, want %f", c, got, want)
		}
	}
}

func TestTimeRangeMonotoneInComponents(t *testing.T) {
	// Theorem 6.1(4): splitting into more components never improves time.
	// <1000> vs <40,25> vs <10,10,10> vs base-2.
	seq := []core.Base{{1000}, {25, 40}, {10, 10, 10}, {2, 2, 2, 2, 2, 2, 2, 2, 2, 2}}
	prev := -1.0
	for _, b := range seq {
		tm := TimeRangeAsymptotic(b)
		if tm < prev {
			t.Fatalf("time decreased from %f to %f at %v", prev, tm, b)
		}
		prev = tm
	}
}

// TestBufferedFormula checks eq. (5) boundary behaviour.
func TestBufferedFormula(t *testing.T) {
	base := core.Base{10, 10}
	if got, want := TimeRangeBuffered(base, 100, nil), TimeRange(base, 100); math.Abs(got-want) > 1e-12 {
		t.Fatalf("no buffering: %f != %f", got, want)
	}
	// Fully buffering every stored bitmap drives the cost to zero.
	if got := TimeRangeBuffered(base, 100, []int{9, 9}); math.Abs(got) > 1e-12 {
		t.Fatalf("fully buffered cost = %f, want 0", got)
	}
	// Clamping: over-large and negative assignments are tolerated.
	if got := TimeRangeBuffered(base, 100, []int{100, -5}); got < 0 || got > TimeRange(base, 100) {
		t.Fatalf("clamped cost out of range: %f", got)
	}
	// Buffering a bitmap of component 2 helps more than one of component 1
	// when bases are equal (marginal 2/b vs 4/(3b)).
	b1 := TimeRangeBuffered(base, 100, []int{1, 0})
	b2 := TimeRangeBuffered(base, 100, []int{0, 1})
	if b2 >= b1 {
		t.Fatalf("buffering comp2 (%f) should beat comp1 (%f)", b2, b1)
	}
}

func TestBufferedMonotoneProperty(t *testing.T) {
	f := func(b1r, b2r uint8, f1r, f2r uint8) bool {
		base := core.Base{uint64(b1r%20) + 2, uint64(b2r%20) + 2}
		f1 := int(f1r) % int(base[0])
		f2 := int(f2r) % int(base[1])
		card, _ := base.Product()
		t0 := TimeRangeBuffered(base, card, []int{f1, f2})
		// Adding one more buffered bitmap never hurts.
		t1 := TimeRangeBuffered(base, card, []int{f1 + 1, f2})
		t2 := TimeRangeBuffered(base, card, []int{f1, f2 + 1})
		return t1 <= t0+1e-12 && t2 <= t0+1e-12 && t0 <= TimeRange(base, card)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWorstCaseMatchesMeasured verifies Table 1: the analytic worst-case
// totals equal the maximum over all queries of the instrumented counts, for
// null-free indexes whose bases have interior digits (b_i >= 3).
func TestWorstCaseMatchesMeasured(t *testing.T) {
	for _, base := range []core.Base{{5}, {4, 3}, {3, 3, 3}, {5, 4, 3, 3}} {
		n := base.N()
		card, _ := base.Product()
		ix, err := core.Build([]uint64{0}, card, base, core.RangeEncoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range core.AllOps {
			var maxOptOps, maxOptScans, maxNaiveOps, maxNaiveScans int
			for v := uint64(0); v < card; v++ {
				var so, sn core.Stats
				ix.EvalDirect(op, v, &core.EvalOptions{Stats: &so})
				ix.EvalRangeNaive(op, v, &core.EvalOptions{Stats: &sn})
				if so.Ops() > maxOptOps {
					maxOptOps = so.Ops()
				}
				if so.Scans > maxOptScans {
					maxOptScans = so.Scans
				}
				if sn.Ops() > maxNaiveOps {
					maxNaiveOps = sn.Ops()
				}
				if sn.Scans > maxNaiveScans {
					maxNaiveScans = sn.Scans
				}
			}
			wo, wn := WorstCaseOpt(op, n), WorstCaseNaive(op, n)
			if maxOptOps != wo.Total() || maxOptScans != wo.Scans {
				t.Errorf("base %v op %s: measured opt (%d ops, %d scans), table (%d, %d)",
					base, op, maxOptOps, maxOptScans, wo.Total(), wo.Scans)
			}
			if maxNaiveOps != wn.Total() || maxNaiveScans != wn.Scans {
				t.Errorf("base %v op %s: measured naive (%d ops, %d scans), table (%d, %d)",
					base, op, maxNaiveOps, maxNaiveScans, wn.Total(), wn.Scans)
			}
		}
	}
}

// TestWorstCaseReductionClaims checks the paper's headline Section 3 claims:
// RangeEval-Opt cuts range-predicate operations by about half (at least 45%
// for n >= 2) and needs exactly one fewer scan; equality predicates cost
// the same.
func TestWorstCaseReductionClaims(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for _, op := range []core.Op{core.Lt, core.Le, core.Gt, core.Ge} {
			opt, naive := WorstCaseOpt(op, n), WorstCaseNaive(op, n)
			if opt.Scans != naive.Scans-1 {
				t.Errorf("n=%d op %s: scans %d vs %d, want exactly one fewer", n, op, opt.Scans, naive.Scans)
			}
			if n >= 2 {
				reduction := 1 - float64(opt.Total())/float64(naive.Total())
				if reduction < 0.45 {
					t.Errorf("n=%d op %s: ops reduction %.2f < 0.45", n, op, reduction)
				}
			}
		}
		for _, op := range []core.Op{core.Eq, core.Ne} {
			opt, naive := WorstCaseOpt(op, n), WorstCaseNaive(op, n)
			if opt != naive {
				t.Errorf("n=%d op %s: equality rows differ: %+v vs %+v", n, op, opt, naive)
			}
		}
	}
}

func TestExactTimeEqualityAgainstEvaluator(t *testing.T) {
	// Average instrumented scans over all queries must equal the exact
	// enumeration for equality encoding.
	for _, base := range []core.Base{{9}, {3, 3}, {2, 2, 3}, {6, 4}} {
		card, _ := base.Product()
		ix, err := core.Build([]uint64{0}, card, base, core.EqualityEncoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, op := range core.AllOps {
			for v := uint64(0); v < card; v++ {
				var st core.Stats
				ix.EvalDirect(op, v, &core.EvalOptions{Stats: &st})
				total += st.Scans
			}
		}
		measured := float64(total) / float64(6*card)
		exact := ExactTimeEquality(base, card)
		if math.Abs(measured-exact) > 1e-9 {
			t.Errorf("base %v: measured %.6f != exact %.6f", base, measured, exact)
		}
		if ExactTime(base, core.EqualityEncoded, card) != exact {
			t.Error("ExactTime dispatch wrong")
		}
	}
	b := core.Base{3, 3}
	if ExactTime(b, core.RangeEncoded, 9) != ExactTimeRange(b, 9) {
		t.Error("ExactTime dispatch wrong for range")
	}
}

// TestRangeBeatsEqualityOnRangeQueries spot-checks Section 5's conclusion:
// at equal decomposition, range encoding needs fewer expected scans than
// equality encoding once bases are non-trivial.
func TestRangeBeatsEqualityOnRangeQueries(t *testing.T) {
	for _, base := range []core.Base{{100}, {10, 10}, {25, 40}} {
		card, _ := base.Product()
		r := ExactTimeRange(base, card)
		e := ExactTimeEquality(base, card)
		if r >= e {
			t.Errorf("base %v: range time %.3f not better than equality %.3f", base, r, e)
		}
	}
}

// TestTimeEqualityClosedForm: the closed form equals exact enumeration
// whenever C is the base product.
func TestTimeEqualityClosedForm(t *testing.T) {
	for _, base := range []core.Base{{9}, {2}, {3, 3}, {10, 10}, {2, 2, 2}, {4, 5, 3}, {17, 2}, {2, 17}} {
		card, _ := base.Product()
		closed := TimeEquality(base, card)
		exact := ExactTimeEquality(base, card)
		if math.Abs(closed-exact) > 1e-9 {
			t.Errorf("base %v: closed form %.9f != enumeration %.9f", base, closed, exact)
		}
	}
}
