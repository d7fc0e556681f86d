package mutable

import (
	"math/rand"
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
	"bitmapindex/internal/design"
)

// Benchmark state: a 2^20-row, C = 100 range-encoded knee base with 16384
// appends and 16384 deletes on top, the mid-cycle state of a maintenance
// loop that compacts every 32768 writes.
const (
	benchRows   = 1 << 20
	benchCard   = 100
	benchWrites = 16384
)

func benchBase(b *testing.B) *core.Index {
	b.Helper()
	base, err := design.Knee(benchCard)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := core.Build(data.Uniform(benchRows, benchCard, 1).Values, benchCard, base, core.RangeEncoded, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// benchIndex wraps ix and applies the appends and deletes, deletes picking
// a row anywhere in the row space as it stands.
func benchIndex(b *testing.B, ix *core.Index) *Index {
	b.Helper()
	m := FromIndex(ix)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < benchWrites; i++ {
		if _, err := m.Append(uint64(r.Intn(benchCard))); err != nil {
			b.Fatal(err)
		}
		if err := m.Delete(r.Intn(m.Rows())); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkMutableEvalCount times one maintenance query: Eval, then Count
// of its answer, cycling through the operators and constants.
func BenchmarkMutableEvalCount(b *testing.B) {
	m := benchIndex(b, benchBase(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := core.AllOps[i%len(core.AllOps)]
		m.Eval(op, uint64(i*37)%benchCard).Count()
	}
}

// BenchmarkMutableCompact times Compact of the benchmark state, rebuild
// included; each iteration compacts a fresh copy.
func BenchmarkMutableCompact(b *testing.B) {
	ix := benchBase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchIndex(b, ix)
		b.StartTimer()
		if err := m.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
