package buffer

import (
	"math"
	"math/rand"
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
	"bitmapindex/internal/design"
)

func TestAssignmentBasics(t *testing.T) {
	a := Assignment{1, 2, 0}
	if a.Total() != 3 {
		t.Fatalf("Total = %d", a.Total())
	}
	base := core.Base{4, 4, 4}
	if err := a.Validate(base); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := (Assignment{4, 0, 0}).Validate(base); err == nil {
		t.Fatal("f_1 = b_1 - 0 must be invalid")
	}
	if err := (Assignment{-1, 0, 0}).Validate(base); err == nil {
		t.Fatal("negative f must be invalid")
	}
	if err := (Assignment{1, 2}).Validate(base); err == nil {
		t.Fatal("length mismatch must be invalid")
	}
}

// bruteOptimal searches every valid assignment of m bitmaps.
func bruteOptimal(base core.Base, card uint64, m int) float64 {
	best := math.Inf(1)
	n := len(base)
	a := make(Assignment, n)
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == n {
			if tm := Time(base, card, a); tm < best {
				best = tm
			}
			return
		}
		maxF := int(base[i]) - 1
		if maxF > left {
			maxF = left
		}
		for f := 0; f <= maxF; f++ {
			a[i] = f
			rec(i+1, left-f)
		}
		a[i] = 0
	}
	rec(0, m)
	return best
}

// TestOptimalMatchesBruteForce: the greedy policy of Theorem 10.1 achieves
// the exact optimum for every buffer size.
func TestOptimalMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(3) + 1
		base := make(core.Base, n)
		for i := range base {
			base[i] = uint64(r.Intn(8) + 2)
		}
		card, _ := base.Product()
		total := cost.SpaceRange(base)
		for m := 0; m <= total+2; m++ {
			a := Optimal(base, card, m)
			if err := a.Validate(base); err != nil {
				t.Fatalf("base %v m=%d: invalid assignment %v: %v", base, m, a, err)
			}
			want := m
			if want > total {
				want = total
			}
			if a.Total() != want {
				t.Fatalf("base %v m=%d: assignment uses %d slots, want %d", base, m, a.Total(), want)
			}
			got := Time(base, card, a)
			best := bruteOptimal(base, card, m)
			if math.Abs(got-best) > 1e-9 {
				t.Fatalf("base %v m=%d: greedy time %.6f, brute force %.6f (assignment %v)",
					base, m, got, best, a)
			}
		}
	}
}

// TestTheorem101Priority: buffering prefers components with small bases,
// and prefers component i >= 2 over component 1 iff b_i < (3/2) b_1.
func TestTheorem101Priority(t *testing.T) {
	// base <10, 2>: b_2 = 2 < 15 -> component 2's bitmap is taken first.
	a := Optimal(core.Base{10, 2}, 20, 1)
	if a[1] != 1 || a[0] != 0 {
		t.Fatalf("base <2,10> (big-endian) m=1: assignment %v, want component 2 first", a)
	}
	// base <4, 30>: b_2 = 30 > (3/2)*4 -> component 1's bitmaps are taken
	// first even though it is position 1.
	a = Optimal(core.Base{4, 30}, 120, 3)
	if a[0] != 3 || a[1] != 0 {
		t.Fatalf("base <30,4> (big-endian) m=3: assignment %v, want component 1 first", a)
	}
}

// TestBufferingImprovesMeasuredScans: the simulated buffered evaluation
// over all queries matches the exact digit-level model for the concrete
// slot choice, and stays within the boundary-correction gap (n-1)/(3C) of
// the eq. (5) formula (which averages over a random slot choice).
func TestBufferingImprovesMeasuredScans(t *testing.T) {
	for _, base := range []core.Base{{5, 4}, {9}, {3, 3, 3}} {
		card, _ := base.Product()
		ix, err := core.Build([]uint64{0}, card, base, core.RangeEncoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := cost.SpaceRange(base)
		prev := math.Inf(1)
		for m := 0; m <= total; m++ {
			a := Optimal(base, card, m)
			scans := 0
			for _, op := range core.AllOps {
				for v := uint64(0); v < card; v++ {
					var st core.Stats
					ix.Eval(op, v, &core.EvalOptions{Stats: &st, Buffered: a.For()})
					scans += st.Scans
				}
			}
			measured := float64(scans) / float64(6*card)
			model := cost.ExactTimeRangeBuffered(base, card, a.For())
			if math.Abs(measured-model) > 1e-9 {
				t.Fatalf("base %v m=%d: measured %.6f, digit model %.6f", base, m, measured, model)
			}
			gap := float64(base.N()-1) / (3 * float64(card))
			if formula := Time(base, card, a); math.Abs(measured-formula) > gap+1e-9 {
				t.Fatalf("base %v m=%d: measured %.6f vs formula %.6f exceeds gap %.6f",
					base, m, measured, formula, gap)
			}
			if measured > prev+1e-9 {
				t.Fatalf("base %v m=%d: more buffering increased measured scans", base, m)
			}
			prev = measured
		}
	}
}

// TestTheorem102 verifies that the closed-form buffered time-optimal index
// matches a brute-force search over all minimal bases with optimal
// assignments.
func TestTheorem102(t *testing.T) {
	for _, card := range []uint64{30, 100, 250} {
		for m := 1; m <= 6; m++ {
			base, a, err := TimeOptimalIndex(card, m)
			if err != nil {
				t.Fatal(err)
			}
			if !base.Covers(card) {
				t.Fatalf("C=%d m=%d: base %v does not cover", card, m, base)
			}
			got := Time(base, card, a)
			best := math.Inf(1)
			var bestBase core.Base
			design.EnumerateMinimal(card, design.MaxComponents(card), func(b core.Base) {
				if tm := Time(b, card, Optimal(b, card, m)); tm < best {
					best = tm
					bestBase = b.Clone()
				}
			})
			if got-best > 1e-9 {
				t.Errorf("C=%d m=%d: theorem index %v (%.4f) beaten by %v (%.4f)",
					card, m, base, got, bestBase, best)
			}
		}
	}
}

func TestTimeOptimalIndexLargeBuffer(t *testing.T) {
	// With m >= ceil(log2 C) the whole base-2 index fits in memory.
	base, a, err := TimeOptimalIndex(100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if base.N() != core.Log2Ceil(100) {
		t.Fatalf("base %v, want %d components", base, core.Log2Ceil(100))
	}
	if tm := Time(base, 100, a); math.Abs(tm) > 1e-9 {
		t.Fatalf("fully buffered time = %f, want 0", tm)
	}
}

func TestTimeOptimalIndexErrors(t *testing.T) {
	if _, _, err := TimeOptimalIndex(1, 2); err == nil {
		t.Error("C=1 must fail")
	}
	if _, _, err := TimeOptimalIndex(100, -1); err == nil {
		t.Error("negative m must fail")
	}
	// m = 0 degenerates to the unbuffered single-component optimum.
	base, a, err := TimeOptimalIndex(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.N() != 1 || a.Total() != 0 {
		t.Errorf("m=0: got %v / %v", base, a)
	}
}

func TestForPredicate(t *testing.T) {
	a := Assignment{2, 0, 1}
	p := a.For()
	cases := []struct {
		comp, slot int
		want       bool
	}{
		{0, 0, true}, {0, 1, true}, {0, 2, false},
		{1, 0, false},
		{2, 0, true}, {2, 1, false},
		{5, 0, false},
	}
	for _, c := range cases {
		if got := p(c.comp, c.slot); got != c.want {
			t.Errorf("For()(%d,%d) = %v, want %v", c.comp, c.slot, got, c.want)
		}
	}
}

// TestCountingForHitAccounting: the counting predicate agrees with For on
// every consultation, misses equal the measured scan count (the evaluator
// consults the buffer exactly once per distinct bitmap referenced), and
// the measured hit rate matches f_i/(b_i-1) aggregated over the reference
// mix.
func TestCountingForHitAccounting(t *testing.T) {
	base := core.Base{5, 4}
	card, _ := base.Product()
	ix, err := core.Build([]uint64{0}, card, base, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := Optimal(base, card, 3)
	var h HitStats
	pred := a.CountingFor(&h)
	plain := a.For()
	totalScans := 0
	for _, op := range core.AllOps {
		for v := uint64(0); v < card; v++ {
			var st core.Stats
			ix.Eval(op, v, &core.EvalOptions{Stats: &st, Buffered: pred})
			totalScans += st.Scans
		}
	}
	if h.Misses() != int64(totalScans) {
		t.Errorf("misses = %d, measured scans = %d (must be equal)", h.Misses(), totalScans)
	}
	if h.Hits() == 0 {
		t.Error("no hits recorded for a non-empty assignment")
	}
	if rate := h.HitRate(); rate <= 0 || rate >= 1 {
		t.Errorf("hit rate %v outside (0,1)", rate)
	}
	// The counting wrapper must not change residency decisions.
	for comp := range base {
		for slot := 0; slot < int(base[comp])-1; slot++ {
			if pred(comp, slot) != plain(comp, slot) {
				t.Fatalf("CountingFor disagrees with For at (%d,%d)", comp, slot)
			}
		}
	}
	// Zero-value stats report a zero rate rather than NaN.
	var empty HitStats
	if empty.HitRate() != 0 {
		t.Errorf("empty HitRate = %v, want 0", empty.HitRate())
	}
}
