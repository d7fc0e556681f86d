package core

import (
	"errors"
	"math/rand"
	"testing"
)

// figure1Column is a 10-record column over C = 9 used throughout the
// paper's running example (Figures 1, 3, 4).
var figure1Column = []uint64{3, 2, 1, 2, 8, 2, 2, 0, 7, 5}

func TestBuildValueListIndex(t *testing.T) {
	// Single-component, equality-encoded = the Value-List index (Fig. 1).
	ix, err := Build(figure1Column, 9, SingleComponent(9), EqualityEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumBitmaps() != 9 {
		t.Fatalf("NumBitmaps = %d, want 9", ix.NumBitmaps())
	}
	// Each record's bit must be set in exactly the bitmap of its value.
	for r, v := range figure1Column {
		for j := 0; j < 9; j++ {
			want := uint64(j) == v
			if got := ix.StoredBitmap(0, j).Get(r); got != want {
				t.Fatalf("record %d, bitmap B%d: got %v want %v", r, j, got, want)
			}
		}
	}
}

func TestBuildTwoComponentValueList(t *testing.T) {
	// Figure 3: base <3,3> equality-encoded reduces 9 bitmaps to 6.
	ix, err := Build(figure1Column, 9, Base{3, 3}, EqualityEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumBitmaps() != 6 {
		t.Fatalf("NumBitmaps = %d, want 6", ix.NumBitmaps())
	}
	for r, v := range figure1Column {
		lo, hi := v%3, v/3
		if !ix.StoredBitmap(0, int(lo)).Get(r) {
			t.Fatalf("record %d: low digit bitmap %d not set", r, lo)
		}
		if !ix.StoredBitmap(1, int(hi)).Get(r) {
			t.Fatalf("record %d: high digit bitmap %d not set", r, hi)
		}
	}
}

func TestBuildRangeEncoded(t *testing.T) {
	// Figure 4(b): single-component base-9 range-encoded index stores 8
	// bitmaps B^0..B^7; B^j is set for records with value <= j.
	ix, err := Build(figure1Column, 9, SingleComponent(9), RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumBitmaps() != 8 {
		t.Fatalf("NumBitmaps = %d, want 8", ix.NumBitmaps())
	}
	for r, v := range figure1Column {
		for j := 0; j < 8; j++ {
			want := v <= uint64(j)
			if got := ix.StoredBitmap(0, j).Get(r); got != want {
				t.Fatalf("record %d (value %d), B^%d: got %v want %v", r, v, j, got, want)
			}
		}
	}
}

func TestBuildRangeEncodedTwoComponent(t *testing.T) {
	// Figure 4(c): base <3,3> range-encoded stores 2 bitmaps per component.
	ix, err := Build(figure1Column, 9, Base{3, 3}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumBitmaps() != 4 {
		t.Fatalf("NumBitmaps = %d, want 4", ix.NumBitmaps())
	}
	for r, v := range figure1Column {
		lo, hi := v%3, v/3
		for j := uint64(0); j < 2; j++ {
			if got := ix.StoredBitmap(0, int(j)).Get(r); got != (lo <= j) {
				t.Fatalf("record %d low B^%d wrong", r, j)
			}
			if got := ix.StoredBitmap(1, int(j)).Get(r); got != (hi <= j) {
				t.Fatalf("record %d high B^%d wrong", r, j)
			}
		}
	}
}

func TestBuildBase2EqualityStoresOneBitmap(t *testing.T) {
	vals := []uint64{0, 1, 1, 0, 1}
	ix, err := Build(vals, 2, Base{2}, EqualityEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumBitmaps() != 1 {
		t.Fatalf("base-2 equality component stores %d bitmaps, want 1", ix.NumBitmaps())
	}
	for r, v := range vals {
		if ix.StoredBitmap(0, 0).Get(r) != (v == 1) {
			t.Fatalf("record %d: stored E^1 wrong", r)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build([]uint64{0}, 0, Base{2}, RangeEncoded, nil); err == nil {
		t.Error("cardinality 0 must fail")
	}
	if _, err := Build([]uint64{5}, 4, Base{4}, RangeEncoded, nil); !errors.Is(err, ErrValueOutOfRange) {
		t.Errorf("out-of-range value: err = %v", err)
	}
	if _, err := Build([]uint64{0}, 4, Base{2}, RangeEncoded, nil); err == nil {
		t.Error("base not covering cardinality must fail")
	}
	if _, err := Build([]uint64{0, 1}, 4, Base{4}, RangeEncoded, &BuildOptions{Nulls: []bool{true}}); !errors.Is(err, ErrNullsLength) {
		t.Errorf("nulls length mismatch: err = %v", err)
	}
}

func TestBuildWithNulls(t *testing.T) {
	vals := []uint64{3, 0, 99, 2, 1} // value at null row is ignored
	nulls := []bool{false, false, true, false, false}
	ix, err := Build(vals, 4, Base{2, 2}, RangeEncoded, &BuildOptions{Nulls: nulls})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.HasNulls() {
		t.Fatal("HasNulls = false")
	}
	if ix.NonNull().Get(2) {
		t.Fatal("null row marked non-null")
	}
	if ix.NonNull().Count() != 4 {
		t.Fatalf("NonNull count = %d, want 4", ix.NonNull().Count())
	}
	// Null rows must be 0 in every stored bitmap.
	for i := 0; i < ix.Components(); i++ {
		for j := 0; j < ix.ComponentBitmaps(i); j++ {
			if ix.StoredBitmap(i, j).Get(2) {
				t.Fatalf("null row set in component %d slot %d", i, j)
			}
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, enc := range []Encoding{EqualityEncoded, RangeEncoded, IntervalEncoded} {
		for _, base := range []Base{{12}, {4, 3}, {2, 3, 2}, {2, 2, 2, 2}, {3, 5}, {2, 6}} {
			card := uint64(12)
			if !base.Covers(card) {
				t.Fatalf("test base %v does not cover %d", base, card)
			}
			vals := make([]uint64, 200)
			nulls := make([]bool, 200)
			for i := range vals {
				vals[i] = uint64(r.Intn(int(card)))
				nulls[i] = r.Intn(10) == 0
			}
			ix, err := Build(vals, card, base, enc, &BuildOptions{Nulls: nulls})
			if err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				got, ok := ix.Value(i)
				if nulls[i] {
					if ok {
						t.Fatalf("%v/%v row %d: expected null", enc, base, i)
					}
					continue
				}
				if !ok || got != vals[i] {
					t.Fatalf("%v/%v row %d: Value = %d,%v want %d", enc, base, i, got, ok, vals[i])
				}
			}
		}
	}
}

// TestDecodeWordSelects checks that DecodeWord writes exactly the selected
// non-null rows of a word, with the values Build was given, and leaves the
// other entries of dst alone.
func TestDecodeWordSelects(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	const rows, card = 150, 30
	vals := make([]uint64, rows)
	nulls := make([]bool, rows)
	for i := range vals {
		vals[i] = uint64(r.Intn(card))
		nulls[i] = r.Intn(8) == 0
	}
	for _, enc := range []Encoding{EqualityEncoded, RangeEncoded, IntervalEncoded} {
		for _, base := range []Base{{30}, {5, 6}, {2, 3, 5}} {
			ix, err := Build(vals, card, base, enc, &BuildOptions{Nulls: nulls})
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w*64 < rows; w++ {
				sel := r.Uint64()
				var dst [64]uint64
				for k := range dst {
					dst[k] = 1000 + uint64(k)
				}
				got := ix.DecodeWord(w, sel, &dst)
				for k := 0; k < 64; k++ {
					row := w*64 + k
					want := row < rows && sel&(1<<uint(k)) != 0 && !nulls[row]
					if (got&(1<<uint(k)) != 0) != want {
						t.Fatalf("%v/%v row %d: in mask %v, want %v", enc, base, row, !want, want)
					}
					switch {
					case want && dst[k] != vals[row]:
						t.Fatalf("%v/%v row %d: decoded %d, want %d", enc, base, row, dst[k], vals[row])
					case !want && dst[k] != 1000+uint64(k):
						t.Fatalf("%v/%v row %d: unselected entry overwritten with %d", enc, base, row, dst[k])
					}
				}
			}
		}
	}
}

// TestValueAllocatesNothing pins Value at zero allocations for every
// encoding: its word buffer stays on the stack.
func TestValueAllocatesNothing(t *testing.T) {
	vals := make([]uint64, 300)
	for i := range vals {
		vals[i] = uint64(i*7) % 100
	}
	for _, enc := range []Encoding{EqualityEncoded, RangeEncoded, IntervalEncoded} {
		ix, err := Build(vals, 100, Base{10, 10}, enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		row := 0
		allocs := testing.AllocsPerRun(100, func() {
			ix.Value(row)
			row = (row + 37) % len(vals)
		})
		if allocs != 0 {
			t.Errorf("%v: Value allocates %.1f times per call, want 0", enc, allocs)
		}
	}
}

func TestAccessors(t *testing.T) {
	ix, err := Build(figure1Column, 9, Base{3, 3}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Base().Equal(Base{3, 3}) {
		t.Errorf("Base = %v", ix.Base())
	}
	if ix.Encoding() != RangeEncoded {
		t.Errorf("Encoding = %v", ix.Encoding())
	}
	if ix.Cardinality() != 9 {
		t.Errorf("Cardinality = %d", ix.Cardinality())
	}
	if ix.Rows() != 10 {
		t.Errorf("Rows = %d", ix.Rows())
	}
	if ix.Components() != 2 {
		t.Errorf("Components = %d", ix.Components())
	}
	if ix.HasNulls() {
		t.Error("HasNulls = true")
	}
	if ix.ComponentBitmaps(0) != 2 || ix.ComponentBitmaps(1) != 2 {
		t.Error("ComponentBitmaps wrong")
	}
	// 10 rows -> 2 bytes per bitmap; 4 stored + B_nn = 5 bitmaps.
	if got := ix.SizeBytes(); got != 2*5 {
		t.Errorf("SizeBytes = %d, want 10", got)
	}
	// Mutating the returned base must not affect the index.
	b := ix.Base()
	b[0] = 99
	if !ix.Base().Equal(Base{3, 3}) {
		t.Error("Base() leaked internal state")
	}
}

func TestEncodingStringParse(t *testing.T) {
	if EqualityEncoded.String() != "equality" || RangeEncoded.String() != "range" {
		t.Fatal("Encoding.String wrong")
	}
	if e, err := ParseEncoding("range"); err != nil || e != RangeEncoded {
		t.Fatal("ParseEncoding(range) wrong")
	}
	if e, err := ParseEncoding("eq"); err != nil || e != EqualityEncoded {
		t.Fatal("ParseEncoding(eq) wrong")
	}
	if _, err := ParseEncoding("bogus"); err == nil {
		t.Fatal("expected error")
	}
	if s := Encoding(9).String(); s != "Encoding(9)" {
		t.Fatalf("unknown encoding String = %q", s)
	}
}
