package engine

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/design"
)

func TestDictRoundTrip(t *testing.T) {
	raw := []int64{500, -3, 500, 42, 0, -3, 99}
	d, ranks := NewDict(raw)
	if d.Card() != 5 {
		t.Fatalf("Card = %d, want 5", d.Card())
	}
	for i, v := range raw {
		if d.Value(ranks[i]) != v {
			t.Fatalf("row %d: rank %d maps back to %d, want %d", i, ranks[i], d.Value(ranks[i]), v)
		}
	}
	// Ranks preserve order.
	for r := uint64(1); r < d.Card(); r++ {
		if d.Value(r-1) >= d.Value(r) {
			t.Fatal("dictionary not sorted")
		}
	}
	if _, ok := d.Rank(123456); ok {
		t.Fatal("absent value must not have a rank")
	}
	if r, ok := d.Rank(-3); !ok || r != 0 {
		t.Fatalf("Rank(-3) = %d,%v", r, ok)
	}
}

func TestDictTranslateExhaustive(t *testing.T) {
	raw := []int64{10, 20, 20, 30, 50}
	d, ranks := NewDict(raw)
	// For every op and constants around/between the values, translating
	// then evaluating in rank space must equal evaluating in raw space.
	for _, op := range core.AllOps {
		for c := int64(5); c <= 55; c++ {
			rop, rank, all, none := d.Translate(op, c)
			for i, v := range raw {
				want := core.Op.Matches(op, uint64(v+100), uint64(c+100)) // shift to stay unsigned
				var got bool
				switch {
				case none:
					got = false
				case all:
					got = true
				default:
					got = rop.Matches(ranks[i], rank)
				}
				if got != want {
					t.Fatalf("op %s c=%d row %d (v=%d): got %v want %v (rop=%s rank=%d all=%v none=%v)",
						op, c, i, v, got, want, rop, rank, all, none)
				}
			}
		}
	}
}

func buildRelation(t *testing.T, n int, seed int64) *Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	qty := make([]int64, n)
	price := make([]int64, n)
	region := make([]int64, n)
	for i := 0; i < n; i++ {
		qty[i] = int64(r.Intn(50) + 1)
		price[i] = int64(r.Intn(1000)) * 5
		region[i] = int64(r.Intn(8))
	}
	rel := NewRelation("lineitem")
	for name, col := range map[string][]int64{"quantity": qty, "price": price, "region": region} {
		c, err := rel.AddInt64(name, col)
		if err != nil {
			t.Fatal(err)
		}
		c.BuildRIDIndex()
		knee, err := design.Knee(c.Card())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.BuildBitmapIndex(knee, core.RangeEncoded); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// TestAllPlansAgree is the engine's keystone test: every plan returns the
// same result bitmap for a battery of conjunctive selections.
func TestAllPlansAgree(t *testing.T) {
	rel := buildRelation(t, 3000, 1)
	queries := [][]Pred{
		{{Col: "quantity", Op: core.Le, Val: 10}},
		{{Col: "quantity", Op: core.Gt, Val: 45}, {Col: "region", Op: core.Eq, Val: 3}},
		{{Col: "price", Op: core.Ge, Val: 2500}, {Col: "quantity", Op: core.Lt, Val: 25}},
		{{Col: "price", Op: core.Lt, Val: 3}, {Col: "region", Op: core.Ne, Val: 0}},
		{{Col: "quantity", Op: core.Eq, Val: 7}, {Col: "price", Op: core.Le, Val: 4000}, {Col: "region", Op: core.Ge, Val: 2}},
		{{Col: "quantity", Op: core.Eq, Val: 999}}, // absent constant
	}
	for qi, preds := range queries {
		var ref *bitvec.Vector
		for _, m := range []Method{FullScan, IndexFilter, RIDMerge, BitmapMerge, Auto} {
			got, cost, err := rel.Select(preds, m)
			if err != nil {
				t.Fatalf("query %d method %v: %v", qi, m, err)
			}
			if cost.Rows != got.Count() {
				t.Fatalf("query %d method %v: cost.Rows %d != result %d", qi, m, cost.Rows, got.Count())
			}
			if ref == nil {
				ref = got
				continue
			}
			if !got.Equal(ref) {
				t.Fatalf("query %d: method %v disagrees with full scan", qi, m)
			}
		}
	}
}

// TestIntroCostCrossover reproduces the paper's Section 1 analysis: for a
// one-bitmap-per-predicate equality query, the bitmap plan reads fewer
// bytes than the RID plan iff the result fraction exceeds about 1/32.
func TestIntroCostCrossover(t *testing.T) {
	n := 64000
	rel := NewRelation("r")
	// A column engineered so value v selects exactly (v+1)/64 of the rows.
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i * 64 / n) // uniform over 0..63
	}
	c, err := rel.AddRanked("a", vals, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.BuildRIDIndex()
	if err := c.BuildBitmapIndex(nil, core.EqualityEncoded); err != nil {
		t.Fatal(err)
	}
	bitmapBytes := int64((n + 7) / 8)
	for v := int64(0); v < 64; v++ {
		preds := []Pred{{Col: "a", Op: core.Eq, Val: v}}
		_, ridCost, err := rel.Select(preds, RIDMerge)
		if err != nil {
			t.Fatal(err)
		}
		_, bmCost, err := rel.Select(preds, BitmapMerge)
		if err != nil {
			t.Fatal(err)
		}
		if bmCost.BytesRead != bitmapBytes {
			t.Fatalf("v=%d: bitmap plan read %d bytes, want one bitmap (%d)", v, bmCost.BytesRead, bitmapBytes)
		}
		sel := float64(ridCost.Rows) / float64(n)
		bitmapWins := bmCost.BytesRead <= ridCost.BytesRead
		// n/N >= 1/32  <=>  4n >= N/8.
		wantWin := sel >= 1.0/32
		if bitmapWins != wantWin {
			t.Errorf("selectivity %.4f: bitmapWins=%v, analysis says %v (bm %d vs rid %d bytes)",
				sel, bitmapWins, wantWin, bmCost.BytesRead, ridCost.BytesRead)
		}
	}
}

func TestAutoPicksCheapest(t *testing.T) {
	rel := buildRelation(t, 5000, 2)
	preds := []Pred{{Col: "quantity", Op: core.Le, Val: 40}, {Col: "region", Op: core.Ne, Val: 7}}
	_, autoCost, err := rel.Select(preds, Auto)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{FullScan, IndexFilter, RIDMerge, BitmapMerge} {
		est, err := rel.EstimateBytes(preds, m)
		if err != nil {
			continue
		}
		_, c, err := rel.Select(preds, m)
		if err != nil {
			t.Fatal(err)
		}
		// Estimates must equal the measured bytes for the deterministic
		// plans (FullScan, RIDMerge, BitmapMerge).
		if m != IndexFilter && est != c.BytesRead {
			t.Errorf("method %v: estimate %d != measured %d", m, est, c.BytesRead)
		}
		if autoCost.BytesRead > c.BytesRead {
			t.Errorf("auto (%v, %d bytes) beaten by %v (%d bytes)", autoCost.Method, autoCost.BytesRead, m, c.BytesRead)
		}
	}
}

func TestRelationErrors(t *testing.T) {
	rel := NewRelation("r")
	if _, err := rel.AddInt64("a", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.AddInt64("a", []int64{1, 2, 3}); err == nil {
		t.Error("duplicate column must fail")
	}
	if _, err := rel.AddInt64("b", []int64{1}); err == nil {
		t.Error("row count mismatch must fail")
	}
	if _, err := rel.Column("nope"); err == nil {
		t.Error("missing column must fail")
	}
	if _, _, err := rel.Select(nil, FullScan); err == nil {
		t.Error("empty predicate list must fail")
	}
	if _, _, err := rel.Select([]Pred{{Col: "zzz", Op: core.Eq, Val: 1}}, FullScan); err == nil {
		t.Error("unknown column in predicate must fail")
	}
	// Plans that need indexes fail without them.
	if _, _, err := rel.Select([]Pred{{Col: "a", Op: core.Eq, Val: 1}}, RIDMerge); err == nil {
		t.Error("RIDMerge without RID index must fail")
	}
	if _, _, err := rel.Select([]Pred{{Col: "a", Op: core.Eq, Val: 1}}, BitmapMerge); err == nil {
		t.Error("BitmapMerge without bitmap index must fail")
	}
	if _, _, err := rel.Select([]Pred{{Col: "a", Op: core.Eq, Val: 1}}, IndexFilter); err == nil {
		t.Error("IndexFilter without any RID index must fail")
	}
	if _, err := rel.AddRanked("c", []uint64{5}, 4); err == nil {
		t.Error("AddRanked with out-of-range rank must fail")
	}
}

func TestRowBytes(t *testing.T) {
	rel := buildRelation(t, 100, 3)
	if rel.RowBytes() != 3*ColBytes {
		t.Fatalf("RowBytes = %d", rel.RowBytes())
	}
	if rel.Rows() != 100 {
		t.Fatalf("Rows = %d", rel.Rows())
	}
	if NewRelation("x").Rows() != 0 {
		t.Fatal("empty relation Rows != 0")
	}
}

// TestSortRIDs checks that RID-index probes return sorted RID lists (the
// merge plans rely on it) holding exactly the matching rows.
func TestSortRIDs(t *testing.T) {
	rel := buildRelation(t, 500, 4)
	qty, _ := rel.Column("quantity")
	for _, op := range core.AllOps {
		for _, val := range []int64{0, 1, 17, 50, 99} {
			p := Pred{Col: "quantity", Op: op, Val: val}
			rids, _, err := rel.ridsFor(p)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.IsSorted(rids) {
				t.Fatalf("%v: RID list not sorted", p)
			}
			want := 0
			for row := 0; row < rel.Rows(); row++ {
				if p.matches(qty, row) {
					want++
				}
			}
			if len(rids) != want {
				t.Fatalf("%v: %d RIDs, want %d", p, len(rids), want)
			}
		}
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range []Method{FullScan, IndexFilter, RIDMerge, BitmapMerge, Auto} {
		if m.String() == "" {
			t.Fatal("empty method name")
		}
	}
	if _, _, err := buildRelation(t, 10, 5).Select([]Pred{{Col: "quantity", Op: core.Eq, Val: 1}}, Method(42)); err == nil {
		t.Fatal("unknown method must fail")
	}
}

func TestDictSerializationRoundTrip(t *testing.T) {
	d, _ := NewDict([]int64{5, -2, 9, 5, 0})
	vals := d.Values()
	d2, err := DictFromValues(vals)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Card() != d.Card() {
		t.Fatal("cardinality changed")
	}
	for r := uint64(0); r < d.Card(); r++ {
		if d.Value(r) != d2.Value(r) {
			t.Fatalf("rank %d differs", r)
		}
	}
	// Mutating the copy must not affect the dictionary.
	vals[0] = 999
	if d.Value(0) == 999 {
		t.Fatal("Values leaked internal state")
	}
	if _, err := DictFromValues([]int64{1, 1}); err == nil {
		t.Fatal("duplicate values must fail")
	}
	if _, err := DictFromValues([]int64{2, 1}); err == nil {
		t.Fatal("unsorted values must fail")
	}
}

func TestExplain(t *testing.T) {
	rel := buildRelation(t, 1000, 14)
	preds := []Pred{{Col: "quantity", Op: core.Le, Val: 30}}
	out := rel.Explain(preds)
	for _, want := range []string{"P1-fullscan", "P3-bitmapmerge", "-> auto picks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
	// Without any index only the full scan shows as available.
	rel2 := NewRelation("bare")
	if _, err := rel2.AddInt64("a", []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	out = rel2.Explain([]Pred{{Col: "a", Op: core.Eq, Val: 1}})
	if !strings.Contains(out, "unavailable") {
		t.Fatalf("Explain should mark index plans unavailable:\n%s", out)
	}
}

// TestExplainNamesAutoPlan: the plan Explain says Auto picks is the plan
// Select(preds, Auto) runs, on relations with every index, with no RID
// index, with no bitmap index and with no index at all.
func TestExplainNamesAutoPlan(t *testing.T) {
	full := buildRelation(t, 2000, 21)
	partial := func(rids, bitmaps bool) *Relation {
		rel := NewRelation("partial")
		for _, name := range []string{"quantity", "price", "region"} {
			src, _ := full.Column(name)
			vals := make([]int64, full.Rows())
			for i, rank := range src.Ranks() {
				vals[i] = src.Dict().Value(rank)
			}
			c, err := rel.AddInt64(name, vals)
			if err != nil {
				t.Fatal(err)
			}
			if rids {
				c.BuildRIDIndex()
			}
			if bitmaps {
				if err := c.BuildBitmapIndex(src.BitmapIndex().Base(), core.RangeEncoded); err != nil {
					t.Fatal(err)
				}
			}
		}
		return rel
	}
	rels := map[string]*Relation{
		"all-indexes": full,
		"no-rid":      partial(false, true),
		"no-bitmap":   partial(true, false),
		"no-index":    partial(false, false),
	}
	queries := [][]Pred{
		{{Col: "quantity", Op: core.Eq, Val: 7}},
		{{Col: "quantity", Op: core.Le, Val: 40}},
		{{Col: "price", Op: core.Lt, Val: 10}, {Col: "region", Op: core.Eq, Val: 3}},
		{{Col: "quantity", Op: core.Gt, Val: 45}, {Col: "region", Op: core.Ne, Val: 0}},
		{{Col: "quantity", Op: core.Eq, Val: 999}},
	}
	picked := make(map[Method]bool)
	for name, rel := range rels {
		for qi, preds := range queries {
			out := rel.Explain(preds)
			_, line, ok := strings.Cut(out, "-> auto picks ")
			if !ok {
				t.Fatalf("%s query %d: Explain names no pick:\n%s", name, qi, out)
			}
			line, _, _ = strings.Cut(line, "\n")
			_, c, err := rel.Select(preds, Auto)
			if err != nil {
				t.Fatalf("%s query %d: %v", name, qi, err)
			}
			if line != c.Method.String() {
				t.Errorf("%s query %d: Explain picks %s, Select(Auto) ran %v:\n%s", name, qi, line, c.Method, out)
			}
			picked[c.Method] = true
		}
	}
	if len(picked) != 4 {
		t.Errorf("Auto picked only %v; the query set should reach all four plans", picked)
	}
}

func TestSelectErrors(t *testing.T) {
	rel := buildRelation(t, 500, 1)
	if _, _, err := rel.Select(nil, FullScan); err == nil {
		t.Fatal("empty predicate list: want error")
	}
	if _, _, err := rel.Select([]Pred{{Col: "nope", Op: core.Eq, Val: 1}}, FullScan); err == nil {
		t.Fatal("unknown column: want error")
	}
	if _, _, err := rel.Select([]Pred{{Col: "quantity", Op: core.Eq, Val: 1}}, Method(99)); err == nil {
		t.Fatal("unknown method: want error")
	}
	bare := NewRelation("bare")
	if _, err := bare.AddInt64("v", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bare.Select([]Pred{{Col: "v", Op: core.Eq, Val: 1}}, BitmapMerge); err == nil {
		t.Fatal("missing bitmap index: want error")
	}
	if _, _, err := bare.Select([]Pred{{Col: "v", Op: core.Eq, Val: 1}}, IndexFilter); err == nil {
		t.Fatal("missing RID index: want error")
	}
}
