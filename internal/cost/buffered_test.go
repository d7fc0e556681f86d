package cost

import (
	"math"
	"testing"

	"bitmapindex/internal/core"
)

func TestSpaceInterval(t *testing.T) {
	cases := []struct {
		base core.Base
		want int
	}{
		{core.Base{9}, 5},
		{core.Base{10}, 5},
		{core.Base{3, 3}, 4},
		{core.Base{2, 2, 2}, 3},
		{core.Base{100}, 50},
	}
	for _, c := range cases {
		if got := SpaceInterval(c.base); got != c.want {
			t.Errorf("SpaceInterval(%v) = %d, want %d", c.base, got, c.want)
		}
		if got := Space(c.base, core.IntervalEncoded); got != c.want {
			t.Errorf("Space(interval) disagrees for %v", c.base)
		}
	}
	// Interval stores no more than range encoding, and about half for
	// large bases.
	for _, base := range []core.Base{{50}, {32, 32}, {10, 10, 10}} {
		if SpaceInterval(base) > SpaceRange(base) {
			t.Errorf("base %v: interval larger than range", base)
		}
	}
}

// TestScansRangeBufferedMatchesEvaluator: the buffered digit model must
// agree with the evaluator's counts for deterministic slot choices.
func TestScansRangeBufferedMatchesEvaluator(t *testing.T) {
	for _, base := range []core.Base{{9}, {4, 3}, {5, 2, 3}} {
		card, _ := base.Product()
		ix, err := core.Build([]uint64{0}, card, base, core.RangeEncoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		buffered := func(comp, slot int) bool { return (comp+slot)%2 == 0 }
		for _, op := range core.AllOps {
			for v := uint64(0); v < card+1; v++ {
				var st core.Stats
				ix.Eval(op, v, &core.EvalOptions{Stats: &st, Buffered: buffered})
				if want := ScansRangeBuffered(base, card, op, v, buffered); st.Scans != want {
					t.Fatalf("base %v A %s %d: evaluator %d, model %d", base, op, v, st.Scans, want)
				}
			}
		}
	}
}

func TestScansRangeBufferedNilPredicate(t *testing.T) {
	base := core.Base{4, 3}
	card, _ := base.Product()
	for _, op := range core.AllOps {
		for v := uint64(0); v < card; v++ {
			if ScansRangeBuffered(base, card, op, v, nil) != ScansRange(base, card, op, v) {
				t.Fatalf("nil buffered predicate must equal unbuffered model")
			}
		}
	}
}

func TestExactTimeRangeBuffered(t *testing.T) {
	base := core.Base{5, 4}
	card, _ := base.Product()
	unbuf := ExactTimeRangeBuffered(base, card, nil)
	if math.Abs(unbuf-ExactTimeRange(base, card)) > 1e-12 {
		t.Fatalf("unbuffered mismatch: %f vs %f", unbuf, ExactTimeRange(base, card))
	}
	all := ExactTimeRangeBuffered(base, card, func(comp, slot int) bool { return true })
	if all != 0 {
		t.Fatalf("everything buffered should cost 0, got %f", all)
	}
	some := ExactTimeRangeBuffered(base, card, func(comp, slot int) bool { return slot == 0 })
	if some <= 0 || some >= unbuf {
		t.Fatalf("partial buffering %f not between 0 and %f", some, unbuf)
	}
}

// TestMeasuredTimeAgreesWithModels: the measured reference must equal
// the digit-level models for the two modelled encodings, and be positive
// and sane for interval encoding.
func TestMeasuredTimeAgreesWithModels(t *testing.T) {
	for _, base := range []core.Base{{9}, {3, 3}, {6, 4}} {
		card, _ := base.Product()
		if m, e := MeasuredTime(base, core.RangeEncoded, card), ExactTimeRange(base, card); math.Abs(m-e) > 1e-9 {
			t.Errorf("base %v range: measured %f != model %f", base, m, e)
		}
		if m, e := MeasuredTime(base, core.EqualityEncoded, card), ExactTimeEquality(base, card); math.Abs(m-e) > 1e-9 {
			t.Errorf("base %v equality: measured %f != model %f", base, m, e)
		}
		iv := MeasuredTime(base, core.IntervalEncoded, card)
		if iv <= 0 || iv > 4*float64(base.N()) {
			t.Errorf("base %v interval: measured %f out of range", base, iv)
		}
		if ExactTime(base, core.IntervalEncoded, card) != iv {
			t.Errorf("ExactTime(interval) must dispatch to MeasuredTime")
		}
	}
}

// TestIntervalTimeBetweenEncodings: single-component interval encoding
// costs more scans than range encoding but roughly half the space; its
// time stays within 2x of range encoding.
func TestIntervalTimeBetweenEncodings(t *testing.T) {
	for _, card := range []uint64{25, 100} {
		b := core.SingleComponent(card)
		r := TimeRange(b, card)
		iv := MeasuredTime(b, core.IntervalEncoded, card)
		if iv <= r {
			t.Errorf("C=%d: interval time %f should exceed range time %f", card, iv, r)
		}
		if iv > 2*r+0.5 {
			t.Errorf("C=%d: interval time %f more than ~2x range time %f", card, iv, r)
		}
	}
}
