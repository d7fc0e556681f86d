package core

import (
	"math/rand"
	"testing"
)

// FuzzEvalAgreement cross-checks all evaluators against the scalar
// reference on fuzzer-chosen designs, data, and predicates; the segmented
// run at the narrowest segment width makes every fuzzed index span
// several segment windows. Run with
// `go test -fuzz=FuzzEvalAgreement ./internal/core` to explore; the seed
// corpus runs as an ordinary test.
func FuzzEvalAgreement(f *testing.F) {
	f.Add(int64(1), uint8(0), uint64(3), uint8(3), uint8(3), uint8(1))
	f.Add(int64(2), uint8(4), uint64(0), uint8(2), uint8(9), uint8(0))
	f.Add(int64(3), uint8(5), uint64(99), uint8(7), uint8(2), uint8(2))
	f.Add(int64(4), uint8(2), uint64(7), uint8(16), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rawOp uint8, v uint64, b1r, b2r, encR uint8) {
		base := Base{uint64(b1r%20) + 2, uint64(b2r%20) + 2}
		prod, _ := base.Product()
		r := rand.New(rand.NewSource(seed))
		card := prod - uint64(r.Intn(int(prod/2+1)))
		if card < 2 {
			card = 2
		}
		op := AllOps[rawOp%6]
		enc := Encoding(encR % 3)
		v %= card + 3
		const rows = 200
		vals := make([]uint64, rows)
		nulls := make([]bool, rows)
		for i := range vals {
			vals[i] = uint64(r.Intn(int(card)))
			nulls[i] = r.Intn(8) == 0
		}
		ix, err := Build(vals, card, base, enc, &BuildOptions{Nulls: nulls})
		if err != nil {
			t.Fatalf("Build(%v, %d, %v): %v", base, card, enc, err)
		}
		want := referenceEval(vals, nulls, op, v)
		var st Stats
		got := ix.Eval(op, v, &EvalOptions{Stats: &st})
		if !got.Equal(want) {
			t.Fatalf("base %v card %d enc %v: A %s %d\n got %s\nwant %s", base, card, enc, op, v, got, want)
		}
		var sst Stats
		seg := ix.SegmentedEval(op, v, &EvalOptions{Stats: &sst}, SegConfig{SegBits: MinSegBits, Workers: 2})
		if !seg.Equal(want) || sst != st {
			t.Fatalf("base %v card %d enc %v: A %s %d: segmented result or stats %+v differ from Eval's %+v",
				base, card, enc, op, v, sst, st)
		}
		// Scan bounds per encoding: range reads at most 2 bitmaps per
		// component, interval at most 4, and equality up to half the
		// component's bitmaps plus the prefix probe.
		bound := 0
		for _, bi := range base {
			switch enc {
			case RangeEncoded:
				bound += 2
			case IntervalEncoded:
				bound += 4
			default:
				bound += int(bi/2) + 1
			}
		}
		if st.Scans > bound {
			t.Fatalf("scan count %d exceeds bound %d for %v/%v", st.Scans, bound, base, enc)
		}
		// The naive baseline must agree on range-encoded indexes.
		if enc == RangeEncoded {
			if !ix.EvalRangeNaive(op, v, nil).Equal(want) {
				t.Fatalf("naive evaluator disagrees for %v A %s %d", base, op, v)
			}
		}
		// Value reconstruction inverts the build.
		for i := 0; i < 8; i++ {
			got, ok := ix.Value(i)
			if nulls[i] != !ok || (ok && got != vals[i]) {
				t.Fatalf("Value(%d) = %d,%v want %d null=%v", i, got, ok, vals[i], nulls[i])
			}
		}
	})
}

// FuzzBaseDecompose checks the decomposition invariants on arbitrary
// bases and values.
func FuzzBaseDecompose(f *testing.F) {
	f.Add(uint64(42), uint8(3), uint8(5), uint8(7))
	f.Add(uint64(0), uint8(2), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, v uint64, b1, b2, b3 uint8) {
		base := Base{uint64(b1%60) + 2, uint64(b2%60) + 2, uint64(b3%60) + 2}
		prod, _ := base.Product()
		v %= prod
		d := base.Decompose(v, nil)
		for i, bi := range base {
			if d[i] >= bi {
				t.Fatalf("digit %d = %d out of range for base %d", i, d[i], bi)
			}
		}
		if back := base.Compose(d); back != v {
			t.Fatalf("Compose(Decompose(%d)) = %d", v, back)
		}
	})
}
