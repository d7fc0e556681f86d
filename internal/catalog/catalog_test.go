package catalog

import (
	"errors"
	"math/rand"
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/storage"
)

func buildRelation(t *testing.T, n int, seed int64) *engine.Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	qty := make([]int64, n)
	price := make([]int64, n)
	for i := 0; i < n; i++ {
		qty[i] = int64(r.Intn(50) + 1)
		price[i] = int64(r.Intn(300)) * 5 // non-consecutive raw values
	}
	rel := engine.NewRelation("lineitem")
	if _, err := rel.AddInt64("quantity", qty); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.AddInt64("price", price); err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestCreateOpenQuery(t *testing.T) {
	rel := buildRelation(t, 2000, 5)
	for _, opts := range []Options{
		{},
		{Store: storage.Options{Scheme: storage.ComponentLevel, Codec: storage.CodecZlib}},
		{Encoding: core.IntervalEncoded},
	} {
		dir := t.TempDir()
		tbl, err := Create(dir, rel, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Name() != "lineitem" || tbl.Rows() != 2000 {
			t.Fatalf("descriptor wrong: %s %d", tbl.Name(), tbl.Rows())
		}
		if got := tbl.Attributes(); len(got) != 2 || got[0] != "quantity" || got[1] != "price" {
			t.Fatalf("attributes = %v", got)
		}
		// Reopen and compare against the reference plan on the relation.
		tbl2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		queries := [][]engine.Pred{
			{{Col: "quantity", Op: core.Le, Val: 10}},
			{{Col: "quantity", Op: core.Gt, Val: 25}, {Col: "price", Op: core.Lt, Val: 700}},
			{{Col: "price", Op: core.Eq, Val: 35}},
			{{Col: "price", Op: core.Eq, Val: 37}}, // absent raw value
			{{Col: "quantity", Op: core.Ge, Val: 1}, {Col: "price", Op: core.Ne, Val: 0}},
		}
		for qi, preds := range queries {
			want, _, err := rel.Select(preds, engine.FullScan)
			if err != nil {
				t.Fatal(err)
			}
			var m storage.Metrics
			got, err := tbl2.Query(preds, &m)
			if err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			if !got.Equal(want) {
				t.Fatalf("opts %v query %d: catalog result differs from full scan", opts, qi)
			}
			n, err := tbl2.Count(preds, nil)
			if err != nil || n != want.Count() {
				t.Fatalf("Count = %d, want %d (err %v)", n, want.Count(), err)
			}
		}
	}
}

func TestAttrAccessors(t *testing.T) {
	rel := buildRelation(t, 500, 6)
	dir := t.TempDir()
	tbl, err := Create(dir, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbl.Attr("price")
	if err != nil {
		t.Fatal(err)
	}
	if a.Dict().Card() == 0 || a.Store() == nil {
		t.Fatal("attribute accessors broken")
	}
	if _, err := tbl.Attr("nope"); !errors.Is(err, ErrNoAttribute) {
		t.Fatalf("missing attribute: %v, want ErrNoAttribute", err)
	}
	if !Exists(dir) || Exists(t.TempDir()) {
		t.Fatal("Exists wrong")
	}
}

func TestCatalogErrors(t *testing.T) {
	if _, err := Create(t.TempDir(), engine.NewRelation("empty"), Options{}); err == nil {
		t.Fatal("empty relation must fail")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("missing descriptor must fail")
	}
	rel := buildRelation(t, 100, 7)
	dir := t.TempDir()
	tbl, err := Create(dir, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Query(nil, nil); err == nil {
		t.Fatal("empty predicates must fail")
	}
	if _, err := tbl.Query([]engine.Pred{{Col: "zzz", Op: core.Eq, Val: 1}}, nil); err == nil {
		t.Fatal("unknown attribute must fail")
	}
}
