package bitmapindex

// One benchmark per paper artifact: each Benchmark<ID> drives the same
// code path that regenerates the corresponding table or figure (see
// DESIGN.md for the mapping and cmd/bixbench for full-scale runs), at a
// reduced scale suitable for testing.B. Micro-benchmarks for the core
// operations follow.

import (
	"io"
	"math/rand"
	"testing"

	"bitmapindex/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.Default()
	cfg.Quick = true
	cfg.Rows = 20000
	cfg.TempDir = b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntro(b *testing.B)            { benchExperiment(b, "intro") }
func BenchmarkTable1(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkFig8(b *testing.B)             { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)             { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)            { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkKnee(b *testing.B)             { benchExperiment(b, "knee") }
func BenchmarkFig13(b *testing.B)            { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)            { benchExperiment(b, "fig14") }
func BenchmarkTable2(b *testing.B)           { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)           { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)           { benchExperiment(b, "table4") }
func BenchmarkFig16(b *testing.B)            { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)            { benchExperiment(b, "fig17") }
func BenchmarkAblationWAH(b *testing.B)      { benchExperiment(b, "ablation-wah") }
func BenchmarkAblationInterval(b *testing.B) { benchExperiment(b, "ablation-interval") }
func BenchmarkAblationAgg(b *testing.B)      { benchExperiment(b, "ablation-agg") }
func BenchmarkAblationCache(b *testing.B)    { benchExperiment(b, "ablation-cache") }
func BenchmarkAblationRefine(b *testing.B)   { benchExperiment(b, "ablation-refine") }

// --- core micro-benchmarks ---

func randomColumn(n int, card uint64, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(r.Int63n(int64(card)))
	}
	return vals
}

func BenchmarkBuildKnee1M(b *testing.B) {
	vals := randomColumn(1<<20, 1000, 1)
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(vals, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalRangeQuery1M(b *testing.B) {
	vals := randomColumn(1<<20, 1000, 2)
	ix, err := New(vals, 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Eval(Le, uint64(i%1000), nil)
	}
}

func BenchmarkEvalEqualityQuery1M(b *testing.B) {
	vals := randomColumn(1<<20, 1000, 3)
	ix, err := New(vals, 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Eval(Eq, uint64(i%1000), nil)
	}
}

func BenchmarkDesignAdvisor(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BestBaseUnderSpace(10000, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSaveOpenQuery(b *testing.B) {
	vals := randomColumn(1<<16, 50, 4)
	ix, err := New(vals, 50)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	st, err := SaveIndex(ix, dir, StoreOptions{Scheme: BitmapLevel, Codec: CodecZlib})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Eval(Le, uint64(i%50), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSumSelected1M(b *testing.B) {
	vals := randomColumn(1<<20, 50, 5)
	ix, err := New(vals, 50)
	if err != nil {
		b.Fatal(err)
	}
	sel := ix.Eval(Le, 25, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.SumSelected(sel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMedian1M(b *testing.B) {
	vals := randomColumn(1<<20, 1000, 6)
	ix, err := New(vals, 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.MedianSelected(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMutableAppendEval(b *testing.B) {
	m, err := NewMutable(1000, RangeEncoded)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		if _, err := m.Append(uint64(i % 1000)); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Compact(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Append(uint64(i % 1000)); err != nil {
			b.Fatal(err)
		}
		m.Eval(Le, uint64(i%1000))
	}
}

func BenchmarkEvalBetween1M(b *testing.B) {
	vals := randomColumn(1<<20, 1000, 7)
	ix, err := New(vals, 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i % 500)
		ix.EvalBetween(lo, lo+200, nil)
	}
}

func benchBatch(b *testing.B, workers int) {
	vals := randomColumn(1<<19, 1000, 8)
	ix, err := New(vals, 1000)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]BatchQuery, 48)
	for i := range queries {
		queries[i] = BatchQuery{Op: [6]Op{Lt, Le, Gt, Ge, Eq, Ne}[i%6], V: uint64(i * 20)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.EvalBatch(queries, workers, nil, nil)
	}
}

func BenchmarkEvalBatchSerial(b *testing.B)    { benchBatch(b, 1) }
func BenchmarkEvalBatchParallel8(b *testing.B) { benchBatch(b, 8) }
