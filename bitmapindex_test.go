package bitmapindex

import (
	"path/filepath"
	"testing"
)

var paperColumn = []uint64{3, 2, 1, 2, 8, 2, 2, 0, 7, 5}

func TestNewDefaultIsKnee(t *testing.T) {
	ix, err := New(paperColumn, 9)
	if err != nil {
		t.Fatal(err)
	}
	knee, err := KneeBase(9)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Base().Equal(knee) {
		t.Fatalf("default base %v, want knee %v", ix.Base(), knee)
	}
	if ix.Encoding() != RangeEncoded {
		t.Fatal("default encoding must be range")
	}
	got := ix.Eval(Le, 4, nil)
	want := []int{0, 1, 2, 3, 5, 6, 7}
	if got.Count() != len(want) {
		t.Fatalf("A <= 4 matched %d rows, want %d", got.Count(), len(want))
	}
	for _, r := range want {
		if !got.Get(r) {
			t.Fatalf("row %d should match", r)
		}
	}
}

func TestNewOptions(t *testing.T) {
	base, err := ParseBase("<3,3>")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(paperColumn, 9, WithBase(base), WithEncoding(EqualityEncoded))
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Base().Equal(base) || ix.Encoding() != EqualityEncoded {
		t.Fatalf("options not applied: %v %v", ix.Base(), ix.Encoding())
	}
	if ix.NumBitmaps() != 6 {
		t.Fatalf("NumBitmaps = %d, want 6", ix.NumBitmaps())
	}

	ix, err = New(paperColumn, 9, WithComponents(3))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Components() != 3 {
		t.Fatalf("WithComponents(3) built %d components", ix.Components())
	}

	ix, err = New(paperColumn, 9, WithTimeOptimalBase())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Components() != 1 {
		t.Fatal("time-optimal must be single component")
	}

	ix, err = New(paperColumn, 9, WithSpaceOptimalBase())
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumBitmaps() != MaxComponents(9) {
		t.Fatalf("space-optimal stores %d bitmaps, want %d", ix.NumBitmaps(), MaxComponents(9))
	}

	ix, err = New(paperColumn, 9, WithSpaceBudget(5))
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumBitmaps() > 5 {
		t.Fatalf("space budget exceeded: %d bitmaps", ix.NumBitmaps())
	}
}

func TestNewWithNulls(t *testing.T) {
	nulls := make([]bool, len(paperColumn))
	nulls[4] = true
	ix, err := New(paperColumn, 9, WithNulls(nulls))
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Eval(Ge, 0, nil); got.Get(4) {
		t.Fatal("null row matched A >= 0")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New([]uint64{9}, 9); err == nil {
		t.Fatal("out-of-range value must fail")
	}
	if _, err := New(paperColumn, 9, WithBase(Base{2})); err == nil {
		t.Fatal("non-covering base must fail")
	}
	if _, err := New(paperColumn, 9, WithSpaceBudget(1)); err == nil {
		t.Fatal("infeasible budget must fail")
	}
}

func TestDesignHelpers(t *testing.T) {
	b, err := SpaceOptimalBase(1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if NumBitmaps(b, RangeEncoded) != 62 {
		t.Fatalf("space-optimal 2-comp for C=1000 has %d bitmaps, want 62", NumBitmaps(b, RangeEncoded))
	}
	tb, err := TimeOptimalBase(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ExpectedScans(tb, 1000) >= ExpectedScans(b, 1000) {
		t.Fatal("time-optimal must have fewer expected scans than space-optimal")
	}
	if ExpectedScansExact(tb, RangeEncoded, 1000) <= 0 {
		t.Fatal("exact scans must be positive")
	}
	heur, err := BestBaseUnderSpace(1000, 50)
	if err != nil {
		t.Fatal(err)
	}
	if NumBitmaps(heur, RangeEncoded) > 50 {
		t.Fatal("heuristic exceeded budget")
	}
	exact, err := BestBaseUnderSpaceExact(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	if NumBitmaps(exact, RangeEncoded) > 20 {
		t.Fatal("exact search exceeded budget")
	}
	if Describe(exact, RangeEncoded, 100) == "" || Describe(exact, EqualityEncoded, 100) == "" {
		t.Fatal("Describe empty")
	}
}

func TestBufferingHelpers(t *testing.T) {
	base := Base{10, 10}
	a := OptimalBuffer(base, 100, 3)
	if a.Total() != 3 {
		t.Fatalf("assignment %v", a)
	}
	if ExpectedScansBuffered(base, 100, a) >= ExpectedScans(base, 100) {
		t.Fatal("buffering must reduce expected scans")
	}
	bb, ba, err := BufferedTimeOptimalBase(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bb.N() != 4 || ba.Total() != 4 {
		t.Fatalf("theorem 10.2 index %v / %v", bb, ba)
	}
}

func TestStorageRoundTripPublic(t *testing.T) {
	ix, err := New(paperColumn, 9)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ix")
	st, err := SaveIndex(ix, dir, StoreOptions{Scheme: ComponentLevel, Codec: CodecZlib})
	if err != nil {
		t.Fatal(err)
	}
	var m StoreMetrics
	got, err := st.Eval(Gt, 4, &m)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ix.Eval(Gt, 4, nil)) {
		t.Fatal("on-disk result differs")
	}
	st2, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := st2.Eval(Gt, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(got) {
		t.Fatal("reopened store differs")
	}
}

func TestParseHelpers(t *testing.T) {
	if op, err := ParseOp("<="); err != nil || op != Le {
		t.Fatal("ParseOp")
	}
	if e, err := ParseEncoding("range"); err != nil || e != RangeEncoded {
		t.Fatal("ParseEncoding")
	}
	if s, err := ParseStoreScheme("CS"); err != nil || s != ComponentLevel {
		t.Fatal("ParseStoreScheme")
	}
}

func TestStreamingBuilder(t *testing.T) {
	base, err := KneeBase(9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStreamingBuilder(9, base, RangeEncoded)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range paperColumn {
		if err := b.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddNull(); err != nil {
		t.Fatal(err)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ix.Rows() != len(paperColumn)+1 || !ix.HasNulls() {
		t.Fatalf("rows %d nulls %v", ix.Rows(), ix.HasNulls())
	}
	direct, err := New(paperColumn, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Eval(Le, 4, nil)
	want := direct.Eval(Le, 4, nil)
	for r := 0; r < len(paperColumn); r++ {
		if got.Get(r) != want.Get(r) {
			t.Fatalf("row %d differs", r)
		}
	}
	if got.Get(len(paperColumn)) {
		t.Fatal("null row matched")
	}
}

func TestIntervalEncodedPublic(t *testing.T) {
	ix, err := New(paperColumn, 9, WithEncoding(IntervalEncoded))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Encoding() != IntervalEncoded {
		t.Fatal("encoding not applied")
	}
	got := ix.Eval(Ge, 5, nil)
	if got.Count() != 3 { // values 8, 7, 5
		t.Fatalf("A >= 5 matched %d rows, want 3", got.Count())
	}
	if ExpectedScansExact(ix.Base(), IntervalEncoded, 9) <= 0 {
		t.Fatal("exact time must be positive")
	}
}

func TestMutablePublic(t *testing.T) {
	m, err := NewMutable(9, RangeEncoded)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range paperColumn {
		if _, err := m.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Delete(4); err != nil { // value 8
		t.Fatal(err)
	}
	if got := m.Eval(Ge, 7); got.Count() != 1 { // only the 7 remains
		t.Fatalf("A >= 7 matched %d rows, want 1", got.Count())
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if m.Rows() != len(paperColumn)-1 {
		t.Fatalf("rows after compact = %d", m.Rows())
	}
	m2 := NewMutableFrom(m.Base())
	if m2.Live() != m.Live() {
		t.Fatal("FromIndex live mismatch")
	}
}

func TestBestDesignUnderSpacePublic(t *testing.T) {
	base, enc, err := BestDesignUnderSpace(100, 12)
	if err != nil {
		t.Fatal(err)
	}
	if NumBitmaps(base, enc) > 12 {
		t.Fatalf("budget violated: %v/%v", base, enc)
	}
	// The chosen cross-encoding design is at least as fast as the best
	// range-only design within the same budget.
	rb, err := BestBaseUnderSpaceExact(100, 12)
	if err != nil {
		t.Fatal(err)
	}
	if ExpectedScansExact(base, enc, 100) > ExpectedScansExact(rb, RangeEncoded, 100)+1e-9 {
		t.Fatal("combined search worse than range-only search")
	}
}
