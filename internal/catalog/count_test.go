package catalog

import (
	"math/rand"
	"testing"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/reorder"
	"bitmapindex/internal/storage"
)

// TestCountMatchesQuery: Count, taken in sorted row space, equals the
// population of Query's mapped-back bitmap under every sort order, for
// one-, two- and three-predicate conjunctions and for constants that miss
// the dictionary (translated to all or none rows).
func TestCountMatchesQuery(t *testing.T) {
	rel := buildRelation(t, 1500, 41)
	r := rand.New(rand.NewSource(42))
	region := make([]int64, rel.Rows())
	for i := range region {
		region[i] = int64(r.Intn(8))
	}
	if _, err := rel.AddInt64("region", region); err != nil {
		t.Fatal(err)
	}
	queries := [][]engine.Pred{
		{{Col: "quantity", Op: core.Le, Val: 10}},
		{{Col: "quantity", Op: core.Gt, Val: 25}, {Col: "price", Op: core.Lt, Val: 700}},
		{{Col: "quantity", Op: core.Ge, Val: 7}, {Col: "region", Op: core.Eq, Val: 3}, {Col: "price", Op: core.Gt, Val: 212}},
		{{Col: "price", Op: core.Eq, Val: 37}},                                            // miss: no rows
		{{Col: "price", Op: core.Ne, Val: 37}},                                            // miss: all rows
		{{Col: "quantity", Op: core.Le, Val: 1000}, {Col: "region", Op: core.Ne, Val: 5}}, // all rows, then a real bitmap
		{{Col: "region", Op: core.Lt, Val: 6}, {Col: "quantity", Op: core.Gt, Val: 1000}}, // a real bitmap, then none
		{{Col: "quantity", Op: core.Ge, Val: -4}, {Col: "price", Op: core.Ne, Val: 0}, {Col: "region", Op: core.Ge, Val: 2}},
	}
	for _, ord := range []reorder.Order{reorder.None, reorder.Lex, reorder.Gray} {
		tbl, err := Create(t.TempDir(), rel, Options{
			Store:    storage.Options{Scheme: storage.BitmapLevel, Codec: storage.CodecZlib},
			Encoding: core.IntervalEncoded,
			Reorder:  ord,
		})
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		for qi, preds := range queries {
			res, err := tbl.Query(preds, nil)
			if err != nil {
				t.Fatalf("%v q%d: %v", ord, qi, err)
			}
			var m storage.Metrics
			n, err := tbl.Count(preds, &m)
			if err != nil {
				t.Fatalf("%v q%d: %v", ord, qi, err)
			}
			if n != res.Count() {
				t.Errorf("%v q%d: Count = %d, Query(...).Count() = %d", ord, qi, n, res.Count())
			}
		}
	}
	if _, err := (&Table{}).Count(nil, nil); err == nil {
		t.Error("Count of an empty conjunction must fail")
	}
}

// countTable is built once per benchmark binary: 2^20 rows shaped like
// the repository benchmark's table workload, stored as zlib bitmaps,
// interval-encoded, rows sorted lexicographically.
var countTable *Table

func benchTable(b *testing.B) *Table {
	if countTable != nil {
		return countTable
	}
	const rows = 1 << 20
	scaled := func(c data.Column, scale int64) []int64 {
		out := make([]int64, len(c.Values))
		for i, v := range c.Values {
			out[i] = int64(v) * scale
		}
		return out
	}
	rel := engine.NewRelation("table")
	for _, col := range []struct {
		name string
		vals []int64
	}{
		{"qty", scaled(data.Uniform(rows, 100, 1), 1)},
		{"region", scaled(data.Zipf(rows, 16, 1.5, 2), 1)},
		{"price", scaled(data.Uniform(rows, 1000, 3), 5)},
	} {
		if _, err := rel.AddInt64(col.name, col.vals); err != nil {
			b.Fatal(err)
		}
	}
	tbl, err := Create(b.TempDir(), rel, Options{
		Store:    storage.Options{Scheme: storage.BitmapLevel, Codec: storage.CodecZlib},
		Encoding: core.IntervalEncoded,
		Reorder:  reorder.Lex,
	})
	if err != nil {
		b.Fatal(err)
	}
	countTable = tbl
	return tbl
}

// countSink keeps the benchmarked counts live.
var countSink int

// BenchmarkTableCount times one conjunction per op, cycling through a
// fixed mix of one- to three-predicate queries: query maps the result back
// to original row ids and counts it, count counts in sorted row space.
func BenchmarkTableCount(b *testing.B) {
	tbl := benchTable(b)
	queries := [][]engine.Pred{
		{{Col: "qty", Op: core.Le, Val: 37}},
		{{Col: "qty", Op: core.Gt, Val: 60}, {Col: "region", Op: core.Eq, Val: 2}},
		{{Col: "qty", Op: core.Lt, Val: 50}, {Col: "price", Op: core.Ge, Val: 2501}},
		{{Col: "qty", Op: core.Ge, Val: 10}, {Col: "region", Op: core.Eq, Val: 0}, {Col: "price", Op: core.Lt, Val: 1234}},
	}
	for _, mode := range []string{"query", "count"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				preds := queries[i%len(queries)]
				var err error
				if mode == "query" {
					var res *bitvec.Vector
					if res, err = tbl.Query(preds, nil); err == nil {
						countSink = res.Count()
					}
				} else {
					countSink, err = tbl.Count(preds, nil)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
