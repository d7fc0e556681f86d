package engine

import (
	"math/rand"
	"testing"

	"bitmapindex/internal/core"
)

// randomExpr builds a random expression tree over the given predicates.
func randomExpr(r *rand.Rand, preds []Pred, depth int) Expr {
	if depth == 0 || r.Intn(3) == 0 {
		return Leaf(preds[r.Intn(len(preds))])
	}
	switch r.Intn(3) {
	case 0:
		return All(randomExpr(r, preds, depth-1), randomExpr(r, preds, depth-1))
	case 1:
		return Any(randomExpr(r, preds, depth-1), randomExpr(r, preds, depth-1))
	default:
		return Not(randomExpr(r, preds, depth-1))
	}
}

// TestExprBitmapMatchesScan: for random expression trees, the bitmap
// evaluation must equal the row-at-a-time scan.
func TestExprBitmapMatchesScan(t *testing.T) {
	rel := buildRelation(t, 2500, 9)
	r := rand.New(rand.NewSource(10))
	preds := []Pred{
		{Col: "quantity", Op: core.Le, Val: 15},
		{Col: "quantity", Op: core.Gt, Val: 40},
		{Col: "price", Op: core.Ge, Val: 2000},
		{Col: "region", Op: core.Eq, Val: 3},
		{Col: "region", Op: core.Ne, Val: 0},
		{Col: "price", Op: core.Lt, Val: 100},
	}
	for trial := 0; trial < 60; trial++ {
		e := randomExpr(r, preds, 3)
		scan, scanCost, err := rel.SelectExpr(e, FullScan)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		bm, bmCost, err := rel.SelectExpr(e, BitmapMerge)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if !scan.Equal(bm) {
			t.Fatalf("expression %s: bitmap result differs from scan", e)
		}
		if scanCost.Rows != bmCost.Rows {
			t.Fatalf("expression %s: row counts differ", e)
		}
		if bmCost.BytesRead < 0 {
			t.Fatalf("negative bytes")
		}
	}
}

func TestExprDeMorgan(t *testing.T) {
	rel := buildRelation(t, 1000, 11)
	a := Leaf(Pred{Col: "quantity", Op: core.Le, Val: 20})
	b := Leaf(Pred{Col: "region", Op: core.Eq, Val: 2})
	lhs, _, err := rel.SelectExpr(Not(All(a, b)), BitmapMerge)
	if err != nil {
		t.Fatal(err)
	}
	rhs, _, err := rel.SelectExpr(Any(Not(a), Not(b)), BitmapMerge)
	if err != nil {
		t.Fatal(err)
	}
	if !lhs.Equal(rhs) {
		t.Fatal("De Morgan violated by bitmap expression evaluation")
	}
}

func TestExprEmptyAndString(t *testing.T) {
	rel := buildRelation(t, 100, 12)
	all, _, err := rel.SelectExpr(All(), BitmapMerge)
	if err != nil {
		t.Fatal(err)
	}
	if all.Count() != 100 {
		t.Fatalf("empty conjunction matched %d rows, want all", all.Count())
	}
	none, _, err := rel.SelectExpr(Any(), BitmapMerge)
	if err != nil {
		t.Fatal(err)
	}
	if none.Count() != 0 {
		t.Fatalf("empty disjunction matched %d rows, want none", none.Count())
	}
	if All().String() != "TRUE" || Any().String() != "FALSE" {
		t.Fatal("empty expression strings wrong")
	}
	e := Not(Any(Leaf(Pred{Col: "quantity", Op: core.Le, Val: 5}), Leaf(Pred{Col: "region", Op: core.Eq, Val: 1})))
	want := "NOT (quantity <= 5 OR region = 1)"
	if e.String() != want {
		t.Fatalf("String = %q, want %q", e.String(), want)
	}
}

func TestExprErrors(t *testing.T) {
	rel := NewRelation("r")
	if _, err := rel.AddInt64("a", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	e := Leaf(Pred{Col: "a", Op: core.Eq, Val: 1})
	if _, _, err := rel.SelectExpr(e, BitmapMerge); err == nil {
		t.Error("missing bitmap index must fail")
	}
	if _, _, err := rel.SelectExpr(e, RIDMerge); err == nil {
		t.Error("RIDMerge on expressions must fail")
	}
	bad := Leaf(Pred{Col: "zzz", Op: core.Eq, Val: 1})
	if _, _, err := rel.SelectExpr(bad, BitmapMerge); err == nil {
		t.Error("unknown column must fail")
	}
	if _, _, err := rel.SelectExpr(All(bad), BitmapMerge); err == nil {
		t.Error("error must propagate through conjunction")
	}
	if _, _, err := rel.SelectExpr(Not(bad), BitmapMerge); err == nil {
		t.Error("error must propagate through negation")
	}
}
