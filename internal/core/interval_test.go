package core

import (
	"math/rand"
	"testing"
)

// TestIntervalExhaustive checks the interval evaluator against the scalar
// reference for every operator and constant across a gallery of bases
// (odd, even, base-2, single- and multi-component) and null patterns.
func TestIntervalExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	cases := []struct {
		card uint64
		base Base
	}{
		{2, Base{2}},
		{3, Base{3}},
		{4, Base{4}},
		{5, Base{5}},
		{9, Base{3, 3}},
		{9, Base{9}},
		{10, Base{10}},
		{10, Base{4, 3}},
		{12, Base{2, 3, 2}},
		{16, Base{2, 2, 2, 2}},
		{30, Base{3, 5, 2}},
		{50, Base{10, 5}},
		{100, Base{100}},
	}
	for _, c := range cases {
		for _, withNulls := range []bool{false, true} {
			vals := make([]uint64, 150)
			var nulls []bool
			for i := range vals {
				vals[i] = uint64(r.Intn(int(c.card)))
			}
			var opts *BuildOptions
			if withNulls {
				nulls = make([]bool, len(vals))
				for i := range nulls {
					nulls[i] = r.Intn(6) == 0
				}
				opts = &BuildOptions{Nulls: nulls}
			}
			ix, err := Build(vals, c.card, c.base, IntervalEncoded, opts)
			if err != nil {
				t.Fatalf("Build(%v): %v", c.base, err)
			}
			for _, op := range AllOps {
				for v := uint64(0); v < c.card+2; v++ {
					got := ix.EvalDirect(op, v, nil)
					want := referenceEval(vals, nulls, op, v)
					if !got.Equal(want) {
						t.Fatalf("base %v nulls=%v: A %s %d\n got %s\nwant %s",
							c.base, withNulls, op, v, got, want)
					}
					// The generic dispatcher must route here too.
					if !ix.Eval(op, v, nil).Equal(want) {
						t.Fatalf("base %v: Eval dispatch differs for A %s %d", c.base, op, v)
					}
				}
			}
		}
	}
}

// TestIntervalStoredBitmaps verifies the window semantics directly: stored
// bitmap j of a component marks digits in [j, j+m-1].
func TestIntervalStoredBitmaps(t *testing.T) {
	for _, base := range []Base{{6}, {7}, {4, 5}, {2, 9}} {
		card, _ := base.Product()
		vals := make([]uint64, int(card))
		for i := range vals {
			vals[i] = uint64(i) // every value once
		}
		ix, err := Build(vals, card, base, IntervalEncoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		digits := make([]uint64, base.N())
		for i, bi := range base {
			m := ivWindows(bi)
			if ix.ComponentBitmaps(i) != m {
				t.Fatalf("base %v comp %d: %d bitmaps, want %d", base, i, ix.ComponentBitmaps(i), m)
			}
			for j := 0; j < m; j++ {
				bm := ix.StoredBitmap(i, j)
				for r := range vals {
					base.Decompose(vals[r], digits)
					d := digits[i]
					want := d >= uint64(j) && d <= uint64(j+m-1)
					if bm.Get(r) != want {
						t.Fatalf("base %v comp %d window %d row %d (digit %d): got %v want %v",
							base, i, j, r, d, bm.Get(r), want)
					}
				}
			}
		}
	}
}

// TestIntervalSpaceHalvesRange: the extension's selling point — interval
// encoding stores about half as many bitmaps as range encoding.
func TestIntervalSpaceHalvesRange(t *testing.T) {
	for _, base := range []Base{{100}, {10, 10}, {32, 32}} {
		card, _ := base.Product()
		vals := []uint64{0, card - 1}
		rix, err := Build(vals, card, base, RangeEncoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		iix, err := Build(vals, card, base, IntervalEncoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		if iix.NumBitmaps() > rix.NumBitmaps()/2+base.N() {
			t.Fatalf("base %v: interval stores %d bitmaps vs range %d; expected about half",
				base, iix.NumBitmaps(), rix.NumBitmaps())
		}
	}
}

// TestIntervalScanBounds: every single-digit comparison needs at most two
// stored bitmaps, so a query reads at most 4 per component (2 for the
// less-than part, 2 for the prefix-equality part).
func TestIntervalScanBounds(t *testing.T) {
	for _, base := range []Base{{10}, {7, 9}, {4, 5, 6}} {
		card, _ := base.Product()
		ix, err := Build([]uint64{0}, card, base, IntervalEncoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range AllOps {
			for v := uint64(0); v < card; v++ {
				var st Stats
				ix.EvalDirect(op, v, &EvalOptions{Stats: &st})
				max := 4 * base.N()
				if !op.IsRange() {
					max = 2 * base.N()
				}
				if st.Scans > max {
					t.Fatalf("base %v A %s %d: %d scans > %d", base, op, v, st.Scans, max)
				}
			}
		}
	}
}

func TestIntervalValueRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, base := range []Base{{12}, {4, 3}, {2, 3, 2}, {5, 5}} {
		card, _ := base.Product()
		vals := make([]uint64, 200)
		nulls := make([]bool, 200)
		for i := range vals {
			vals[i] = uint64(r.Intn(int(card)))
			nulls[i] = r.Intn(10) == 0
		}
		ix, err := Build(vals, card, base, IntervalEncoded, &BuildOptions{Nulls: nulls})
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			got, ok := ix.Value(i)
			if nulls[i] {
				if ok {
					t.Fatalf("base %v row %d: expected null", base, i)
				}
				continue
			}
			if !ok || got != vals[i] {
				t.Fatalf("base %v row %d: Value = %d,%v want %d", base, i, got, ok, vals[i])
			}
		}
	}
}

func TestIntervalEncodingParse(t *testing.T) {
	if IntervalEncoded.String() != "interval" {
		t.Fatal("String wrong")
	}
	for _, s := range []string{"interval", "iv", "I"} {
		if e, err := ParseEncoding(s); err != nil || e != IntervalEncoded {
			t.Fatalf("ParseEncoding(%q) = %v, %v", s, e, err)
		}
	}
}
