package core

import "testing"

// accountingCases pins the summed operation accounting of every evaluator
// per (evaluator, base, nullable), over every operator and every constant
// v in [0, C+2) with C the base product. The expected counts were recorded
// from the earlier whole-bitmap evaluators, before predicate evaluation
// moved onto compiled segment programs, so any drift in the paper's cost
// measures shows up here per counter.
var accountingCases = []struct {
	eval     string // range-opt, range-naive, equality or interval
	base     Base
	nullable bool
	want     Stats
}{
	{"range-opt", Base{2}, false, Stats{Scans: 8, Ands: 4, Ors: 0, Xors: 0, Nots: 8}},
	{"range-opt", Base{2}, true, Stats{Scans: 8, Ands: 16, Ors: 0, Xors: 0, Nots: 8}},
	{"range-opt", Base{7}, false, Stats{Scans: 48, Ands: 14, Ors: 0, Xors: 10, Nots: 23}},
	{"range-opt", Base{7}, true, Stats{Scans: 48, Ands: 56, Ors: 0, Xors: 10, Nots: 23}},
	{"range-opt", Base{3, 4}, false, Stats{Scans: 170, Ands: 84, Ors: 34, Xors: 20, Nots: 50}},
	{"range-opt", Base{3, 4}, true, Stats{Scans: 170, Ands: 156, Ors: 34, Xors: 20, Nots: 50}},
	{"range-opt", Base{2, 2, 2, 2}, false, Stats{Scans: 346, Ands: 224, Ors: 90, Xors: 0, Nots: 112}},
	{"range-opt", Base{2, 2, 2, 2}, true, Stats{Scans: 346, Ands: 320, Ors: 90, Xors: 0, Nots: 112}},
	{"range-opt", Base{5, 2, 3}, false, Stats{Scans: 608, Ands: 320, Ors: 136, Xors: 56, Nots: 152}},
	{"range-opt", Base{5, 2, 3}, true, Stats{Scans: 608, Ands: 500, Ors: 136, Xors: 56, Nots: 152}},
	{"range-opt", Base{4, 4, 4}, false, Stats{Scans: 1532, Ands: 768, Ors: 380, Xors: 192, Nots: 288}},
	{"range-opt", Base{4, 4, 4}, true, Stats{Scans: 1532, Ands: 1152, Ors: 380, Xors: 192, Nots: 288}},
	{"range-opt", Base{2, 9}, false, Stats{Scans: 262, Ands: 136, Ors: 62, Xors: 28, Nots: 76}},
	{"range-opt", Base{2, 9}, true, Stats{Scans: 262, Ands: 244, Ors: 62, Xors: 28, Nots: 76}},
	{"range-opt", Base{10, 10}, false, Stats{Scans: 1798, Ands: 760, Ors: 358, Xors: 320, Nots: 340}},
	{"range-opt", Base{10, 10}, true, Stats{Scans: 1798, Ands: 1360, Ors: 358, Xors: 320, Nots: 340}},
	{"range-naive", Base{2}, false, Stats{Scans: 12, Ands: 16, Ors: 8, Xors: 0, Nots: 10}},
	{"range-naive", Base{2}, true, Stats{Scans: 12, Ands: 18, Ors: 8, Xors: 0, Nots: 10}},
	{"range-naive", Base{7}, false, Stats{Scans: 72, Ands: 66, Ors: 38, Xors: 30, Nots: 25}},
	{"range-naive", Base{7}, true, Stats{Scans: 72, Ands: 73, Ors: 38, Xors: 30, Nots: 25}},
	{"range-naive", Base{3, 4}, false, Stats{Scans: 204, Ands: 212, Ors: 92, Xors: 60, Nots: 88}},
	{"range-naive", Base{3, 4}, true, Stats{Scans: 204, Ands: 224, Ors: 92, Xors: 60, Nots: 88}},
	{"range-naive", Base{2, 2, 2, 2}, false, Stats{Scans: 384, Ands: 512, Ors: 160, Xors: 0, Nots: 272}},
	{"range-naive", Base{2, 2, 2, 2}, true, Stats{Scans: 384, Ands: 528, Ors: 160, Xors: 0, Nots: 272}},
	{"range-naive", Base{5, 2, 3}, false, Stats{Scans: 708, Ands: 776, Ors: 296, Xors: 168, Nots: 334}},
	{"range-naive", Base{5, 2, 3}, true, Stats{Scans: 708, Ands: 806, Ors: 296, Xors: 168, Nots: 334}},
	{"range-naive", Base{4, 4, 4}, false, Stats{Scans: 1728, Ands: 1728, Ors: 704, Xors: 576, Nots: 640}},
	{"range-naive", Base{4, 4, 4}, true, Stats{Scans: 1728, Ands: 1792, Ors: 704, Xors: 576, Nots: 640}},
	{"range-naive", Base{2, 9}, false, Stats{Scans: 300, Ands: 316, Ors: 136, Xors: 84, Nots: 134}},
	{"range-naive", Base{2, 9}, true, Stats{Scans: 300, Ands: 334, Ors: 136, Xors: 84, Nots: 134}},
	{"range-naive", Base{10, 10}, false, Stats{Scans: 2160, Ands: 1920, Ors: 920, Xors: 960, Nots: 580}},
	{"range-naive", Base{10, 10}, true, Stats{Scans: 2160, Ands: 2020, Ors: 920, Xors: 960, Nots: 580}},
	{"equality", Base{2}, false, Stats{Scans: 8, Ands: 10, Ors: 4, Xors: 0, Nots: 10}},
	{"equality", Base{2}, true, Stats{Scans: 8, Ands: 14, Ors: 4, Xors: 0, Nots: 10}},
	{"equality", Base{7}, false, Stats{Scans: 62, Ands: 24, Ors: 48, Xors: 0, Nots: 31}},
	{"equality", Base{7}, true, Stats{Scans: 62, Ands: 43, Ors: 48, Xors: 0, Nots: 31}},
	{"equality", Base{3, 4}, false, Stats{Scans: 160, Ands: 136, Ors: 80, Xors: 0, Nots: 62}},
	{"equality", Base{3, 4}, true, Stats{Scans: 160, Ands: 170, Ors: 80, Xors: 0, Nots: 62}},
	{"equality", Base{2, 2, 2, 2}, false, Stats{Scans: 340, Ands: 680, Ors: 128, Xors: 0, Nots: 322}},
	{"equality", Base{2, 2, 2, 2}, true, Stats{Scans: 340, Ands: 726, Ors: 128, Xors: 0, Nots: 322}},
	{"equality", Base{5, 2, 3}, false, Stats{Scans: 596, Ands: 734, Ors: 284, Xors: 0, Nots: 322}},
	{"equality", Base{5, 2, 3}, true, Stats{Scans: 596, Ands: 822, Ors: 284, Xors: 0, Nots: 322}},
	{"equality", Base{4, 4, 4}, false, Stats{Scans: 1528, Ands: 1336, Ors: 768, Xors: 0, Nots: 382}},
	{"equality", Base{4, 4, 4}, true, Stats{Scans: 1528, Ands: 1526, Ors: 768, Xors: 0, Nots: 382}},
	{"equality", Base{2, 9}, false, Stats{Scans: 304, Ands: 258, Ors: 196, Xors: 0, Nots: 138}},
	{"equality", Base{2, 9}, true, Stats{Scans: 304, Ands: 310, Ors: 196, Xors: 0, Nots: 138}},
	{"equality", Base{10, 10}, false, Stats{Scans: 2636, Ands: 1316, Ors: 2000, Xors: 0, Nots: 618}},
	{"equality", Base{10, 10}, true, Stats{Scans: 2636, Ands: 1614, Ors: 2000, Xors: 0, Nots: 618}},
	{"interval", Base{2}, false, Stats{Scans: 8, Ands: 4, Ors: 4, Xors: 0, Nots: 6}},
	{"interval", Base{2}, true, Stats{Scans: 8, Ands: 10, Ors: 4, Xors: 0, Nots: 6}},
	{"interval", Base{7}, false, Stats{Scans: 72, Ands: 50, Ors: 32, Xors: 0, Nots: 43}},
	{"interval", Base{7}, true, Stats{Scans: 72, Ands: 76, Ors: 32, Xors: 0, Nots: 43}},
	{"interval", Base{3, 4}, false, Stats{Scans: 232, Ands: 238, Ors: 98, Xors: 0, Nots: 128}},
	{"interval", Base{3, 4}, true, Stats{Scans: 232, Ands: 284, Ors: 98, Xors: 0, Nots: 128}},
	{"interval", Base{2, 2, 2, 2}, false, Stats{Scans: 340, Ands: 404, Ors: 128, Xors: 0, Nots: 206}},
	{"interval", Base{2, 2, 2, 2}, true, Stats{Scans: 340, Ands: 466, Ors: 128, Xors: 0, Nots: 206}},
	{"interval", Base{5, 2, 3}, false, Stats{Scans: 816, Ands: 912, Ors: 260, Xors: 0, Nots: 430}},
	{"interval", Base{5, 2, 3}, true, Stats{Scans: 816, Ands: 1030, Ors: 260, Xors: 0, Nots: 430}},
	{"interval", Base{4, 4, 4}, false, Stats{Scans: 2096, Ands: 2192, Ors: 992, Xors: 0, Nots: 1046}},
	{"interval", Base{4, 4, 4}, true, Stats{Scans: 2096, Ands: 2446, Ors: 992, Xors: 0, Nots: 1046}},
	{"interval", Base{2, 9}, false, Stats{Scans: 328, Ands: 340, Ors: 124, Xors: 0, Nots: 194}},
	{"interval", Base{2, 9}, true, Stats{Scans: 328, Ands: 410, Ors: 124, Xors: 0, Nots: 194}},
	{"interval", Base{10, 10}, false, Stats{Scans: 2512, Ands: 2352, Ors: 1120, Xors: 0, Nots: 1334}},
	{"interval", Base{10, 10}, true, Stats{Scans: 2512, Ands: 2750, Ors: 1120, Xors: 0, Nots: 1334}},
}

func TestEvalAccountingPinned(t *testing.T) {
	encOf := map[string]Encoding{
		"range-opt": RangeEncoded, "range-naive": RangeEncoded,
		"equality": EqualityEncoded, "interval": IntervalEncoded,
	}
	for _, c := range accountingCases {
		card, _ := c.base.Product()
		vals := make([]uint64, 64)
		nulls := make([]bool, len(vals))
		for i := range vals {
			vals[i] = uint64(i) % card
			nulls[i] = c.nullable && i%5 == 0
		}
		var opts *BuildOptions
		if c.nullable {
			opts = &BuildOptions{Nulls: nulls}
		}
		ix, err := Build(vals, card, c.base, encOf[c.eval], opts)
		if err != nil {
			t.Fatal(err)
		}
		eval := ix.EvalDirect
		if c.eval == "range-naive" {
			eval = ix.EvalRangeNaive
		}
		var got Stats
		for _, op := range AllOps {
			for v := uint64(0); v < card+2; v++ {
				eval(op, v, &EvalOptions{Stats: &got})
			}
		}
		if got != c.want {
			t.Errorf("%s base %v nullable=%v: stats %+v, want %+v", c.eval, c.base, c.nullable, got, c.want)
		}
	}
}
