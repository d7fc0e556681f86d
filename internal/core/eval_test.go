package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bitmapindex/internal/bitvec"
)

// referenceEval computes the expected result bitmap by scanning the raw
// column, the semantics every index evaluator must reproduce.
func referenceEval(vals []uint64, nulls []bool, op Op, v uint64) *bitvec.Vector {
	out := bitvec.New(len(vals))
	for i, a := range vals {
		if nulls != nil && nulls[i] {
			continue
		}
		if op.Matches(a, v) {
			out.Set(i)
		}
	}
	return out
}

type evalFn func(ix *Index, op Op, v uint64, opt *EvalOptions) *bitvec.Vector

func allEvaluators(enc Encoding) map[string]evalFn {
	if enc == RangeEncoded {
		return map[string]evalFn{
			"RangeEvalOpt":   (*Index).Eval,
			"RangeEvalNaive": (*Index).EvalRangeNaive,
		}
	}
	return map[string]evalFn{
		"EqualityEval": (*Index).Eval,
	}
}

// TestEvalExhaustiveSmall checks every evaluator against the reference for
// every operator and every constant (including out-of-domain constants) on
// a gallery of bases, encodings, and null patterns.
func TestEvalExhaustiveSmall(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	type tc struct {
		card uint64
		base Base
	}
	cases := []tc{
		{2, Base{2}},
		{5, Base{5}},
		{9, Base{3, 3}},
		{9, Base{9}},
		{10, Base{4, 3}}, // product 12 > C
		{12, Base{2, 3, 2}},
		{16, Base{2, 2, 2, 2}},
		{30, Base{3, 5, 2}},
		{7, Base{2, 2, 2}},
	}
	for _, c := range cases {
		for _, withNulls := range []bool{false, true} {
			vals := make([]uint64, 120)
			var nulls []bool
			for i := range vals {
				vals[i] = uint64(r.Intn(int(c.card)))
			}
			var opts *BuildOptions
			if withNulls {
				nulls = make([]bool, len(vals))
				for i := range nulls {
					nulls[i] = r.Intn(7) == 0
				}
				opts = &BuildOptions{Nulls: nulls}
			}
			for _, enc := range []Encoding{EqualityEncoded, RangeEncoded} {
				ix, err := Build(vals, c.card, c.base, enc, opts)
				if err != nil {
					t.Fatalf("Build(%v,%v): %v", c.base, enc, err)
				}
				for name, fn := range allEvaluators(enc) {
					for _, op := range AllOps {
						for v := uint64(0); v < c.card+2; v++ {
							got := fn(ix, op, v, nil)
							want := referenceEval(vals, nulls, op, v)
							if !got.Equal(want) {
								t.Fatalf("%s base=%v enc=%v nulls=%v: A %s %d\n got %s\nwant %s",
									name, c.base, enc, withNulls, op, v, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestEvalAgreementProperty is a quick-check that the two range evaluators
// and the reference always agree on random inputs.
func TestEvalAgreementProperty(t *testing.T) {
	f := func(seed int64, rawOp uint8, v uint64, b1, b2 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		base := Base{uint64(b1%9) + 2, uint64(b2%9) + 2}
		p, _ := base.Product()
		card := p - uint64(r.Intn(int(p/2)))
		op := AllOps[rawOp%6]
		v %= card + 3
		vals := make([]uint64, 80)
		for i := range vals {
			vals[i] = uint64(r.Intn(int(card)))
		}
		ix, err := Build(vals, card, base, RangeEncoded, nil)
		if err != nil {
			return false
		}
		want := referenceEval(vals, nil, op, v)
		return ix.Eval(op, v, nil).Equal(want) &&
			ix.EvalRangeNaive(op, v, nil).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalWrongEncodingPanics(t *testing.T) {
	ix, _ := Build([]uint64{0, 1}, 2, Base{2}, EqualityEncoded, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("EvalRangeNaive on equality-encoded index did not panic")
		}
	}()
	ix.EvalRangeNaive(Le, 0, nil)
}

// TestOptNeverMoreScansThanNaive verifies the paper's Section 3 claim: the
// improved algorithm never performs more bitmap scans or operations than
// RangeEval, and strictly fewer scans for the worst-case range predicates.
func TestOptNeverMoreScansThanNaive(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, base := range []Base{{10, 10}, {4, 4, 4}, {2, 2, 2, 2, 2, 2}, {100}} {
		card, _ := base.Product()
		vals := make([]uint64, 50)
		for i := range vals {
			vals[i] = uint64(r.Intn(int(card)))
		}
		ix, err := Build(vals, card, base, RangeEncoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		sawStrictlyFewer := false
		for _, op := range AllOps {
			for v := uint64(0); v < card; v++ {
				var so, sn Stats
				ix.Eval(op, v, &EvalOptions{Stats: &so})
				ix.EvalRangeNaive(op, v, &EvalOptions{Stats: &sn})
				if so.Scans > sn.Scans {
					t.Fatalf("base %v A %s %d: opt scans %d > naive %d", base, op, v, so.Scans, sn.Scans)
				}
				if so.Ops() > sn.Ops() {
					t.Fatalf("base %v A %s %d: opt ops %d > naive %d", base, op, v, so.Ops(), sn.Ops())
				}
				if op.IsRange() && so.Scans < sn.Scans {
					sawStrictlyFewer = true
				}
			}
		}
		if !sawStrictlyFewer {
			t.Errorf("base %v: opt never scanned strictly fewer bitmaps", base)
		}
	}
}

// TestScanBounds checks the paper's worst-case scan counts: RangeEval-Opt
// reads at most 2n-1 bitmaps for a range predicate and at most 2n for an
// equality predicate; RangeEval reads at most 2n.
func TestScanBounds(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, base := range []Base{{10, 10}, {5, 4, 3}, {7}} {
		n := base.N()
		card, _ := base.Product()
		vals := make([]uint64, 30)
		for i := range vals {
			vals[i] = uint64(r.Intn(int(card)))
		}
		ix, _ := Build(vals, card, base, RangeEncoded, nil)
		for _, op := range AllOps {
			for v := uint64(0); v < card; v++ {
				var so, sn Stats
				ix.Eval(op, v, &EvalOptions{Stats: &so})
				ix.EvalRangeNaive(op, v, &EvalOptions{Stats: &sn})
				maxOpt := 2*n - 1
				if !op.IsRange() {
					maxOpt = 2 * n
				}
				if so.Scans > maxOpt {
					t.Fatalf("base %v A %s %d: opt scans %d > %d", base, op, v, so.Scans, maxOpt)
				}
				if sn.Scans > 2*n {
					t.Fatalf("base %v A %s %d: naive scans %d > %d", base, op, v, sn.Scans, 2*n)
				}
			}
		}
	}
}

// TestEqualityEvalScanBounds checks the stated behaviour for equality
// encoding: one scan per component for equality predicates; between 0 and
// ceil(b_i/2)+1 per component for range predicates.
func TestEqualityEvalScanBounds(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, base := range []Base{{10, 10}, {6, 5}, {25}, {2, 2, 5}} {
		card, _ := base.Product()
		vals := make([]uint64, 30)
		for i := range vals {
			vals[i] = uint64(r.Intn(int(card)))
		}
		ix, _ := Build(vals, card, base, EqualityEncoded, nil)
		for v := uint64(0); v < card; v++ {
			var s Stats
			ix.Eval(Eq, v, &EvalOptions{Stats: &s})
			if s.Scans != base.N() {
				t.Fatalf("base %v A = %d: scans %d, want %d", base, v, s.Scans, base.N())
			}
		}
		budget := 0
		for _, bi := range base {
			budget += int(bi/2) + 1
		}
		for _, op := range []Op{Lt, Le, Gt, Ge} {
			for v := uint64(0); v < card; v++ {
				var s Stats
				ix.Eval(op, v, &EvalOptions{Stats: &s})
				if s.Scans > budget {
					t.Fatalf("base %v A %s %d: scans %d > budget %d", base, op, v, s.Scans, budget)
				}
			}
		}
	}
}

func TestStatsAddAndOps(t *testing.T) {
	a := Stats{Scans: 1, Ands: 2, Ors: 3, Xors: 4, Nots: 5}
	b := Stats{Scans: 10, Ands: 20, Ors: 30, Xors: 40, Nots: 50}
	a.Add(b)
	if a.Scans != 11 || a.Ands != 22 || a.Ors != 33 || a.Xors != 44 || a.Nots != 55 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.Ops() != 22+33+44+55 {
		t.Fatalf("Ops = %d", a.Ops())
	}
}

func TestOpHelpers(t *testing.T) {
	for _, op := range AllOps {
		parsed, err := ParseOp(op.String())
		if err != nil || parsed != op {
			t.Fatalf("ParseOp(String(%v)) = %v, %v", op, parsed, err)
		}
	}
	if op, err := ParseOp("=="); err != nil || op != Eq {
		t.Fatal("ParseOp(==) wrong")
	}
	if op, err := ParseOp("<>"); err != nil || op != Ne {
		t.Fatal("ParseOp(<>) wrong")
	}
	if _, err := ParseOp("~"); err == nil {
		t.Fatal("expected error")
	}
	if !Lt.IsRange() || !Ge.IsRange() || Eq.IsRange() || Ne.IsRange() {
		t.Fatal("IsRange wrong")
	}
	if s := Op(42).String(); s != "Op(42)" {
		t.Fatalf("unknown op String = %q", s)
	}
}

func TestBufferedScansNotCounted(t *testing.T) {
	vals := []uint64{0, 5, 9, 3, 7, 2}
	ix, _ := Build(vals, 10, Base{5, 2}, RangeEncoded, nil)
	var unbuf, buf Stats
	ix.Eval(Le, 7, &EvalOptions{Stats: &unbuf})
	ix.Eval(Le, 7, &EvalOptions{
		Stats:    &buf,
		Buffered: func(comp, slot int) bool { return comp == 0 },
	})
	if buf.Scans >= unbuf.Scans {
		t.Fatalf("buffered scans %d not fewer than unbuffered %d", buf.Scans, unbuf.Scans)
	}
	if buf.Ops() != unbuf.Ops() {
		t.Fatalf("buffering must not change op count: %d vs %d", buf.Ops(), unbuf.Ops())
	}
}

// TestFigure7Example reproduces the paper's Figure 7: evaluating A <= 62
// with a 3-component base-<5,5,4> index... the paper uses base-10 over
// C=1000; we use base <5,5,4> over C=100 and check both algorithms give the
// reference answer while Opt uses fewer operations.
func TestFigure7Example(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	vals := make([]uint64, 500)
	for i := range vals {
		vals[i] = uint64(r.Intn(100))
	}
	ix, err := Build(vals, 100, Base{4, 5, 5}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	var so, sn Stats
	got := ix.Eval(Le, 62, &EvalOptions{Stats: &so})
	naive := ix.EvalRangeNaive(Le, 62, &EvalOptions{Stats: &sn})
	want := referenceEval(vals, nil, Le, 62)
	if !got.Equal(want) || !naive.Equal(want) {
		t.Fatal("wrong answer for A <= 62")
	}
	if so.Ops() >= sn.Ops() {
		t.Fatalf("opt ops %d not fewer than naive %d", so.Ops(), sn.Ops())
	}
	if so.Scans != sn.Scans-1 {
		t.Fatalf("opt scans %d, naive %d; want exactly one fewer", so.Scans, sn.Scans)
	}
}

func BenchmarkEvalRangeOptLe(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]uint64, 1<<16)
	for i := range vals {
		vals[i] = uint64(r.Intn(1000))
	}
	ix, _ := Build(vals, 1000, Base{10, 10, 10}, RangeEncoded, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Eval(Le, uint64(i%1000), nil)
	}
}

func BenchmarkEvalRangeNaiveLe(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]uint64, 1<<16)
	for i := range vals {
		vals[i] = uint64(r.Intn(1000))
	}
	ix, _ := Build(vals, 1000, Base{10, 10, 10}, RangeEncoded, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.EvalRangeNaive(Le, uint64(i%1000), nil)
	}
}

func BenchmarkBuildRange1000(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]uint64, 1<<16)
	for i := range vals {
		vals[i] = uint64(r.Intn(1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(vals, 1000, Base{10, 10, 10}, RangeEncoded, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEvalBetween(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	vals := make([]uint64, 300)
	for i := range vals {
		vals[i] = uint64(r.Intn(30))
	}
	nulls := make([]bool, 300)
	for i := range nulls {
		nulls[i] = r.Intn(10) == 0
	}
	for _, enc := range []Encoding{EqualityEncoded, RangeEncoded, IntervalEncoded} {
		ix, err := Build(vals, 30, Base{6, 5}, enc, &BuildOptions{Nulls: nulls})
		if err != nil {
			t.Fatal(err)
		}
		for lo := uint64(0); lo < 32; lo += 3 {
			for hi := uint64(0); hi < 32; hi += 3 {
				got := ix.EvalBetween(lo, hi, nil)
				want := bitvec.New(300)
				for i, v := range vals {
					if !nulls[i] && v >= lo && v <= hi {
						want.Set(i)
					}
				}
				if !got.Equal(want) {
					t.Fatalf("enc %v: between [%d,%d] differs", enc, lo, hi)
				}
			}
		}
		// Scan budget: two one-sided evaluations.
		var st Stats
		ix.EvalBetween(7, 22, &EvalOptions{Stats: &st})
		if enc == RangeEncoded && st.Scans > 2*(2*ix.Components()-1) {
			t.Fatalf("between scanned %d bitmaps", st.Scans)
		}
	}
}
