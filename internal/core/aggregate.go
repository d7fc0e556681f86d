package core

import (
	"fmt"
	"sort"

	"bitmapindex/internal/bitvec"
)

// SumSelected computes the sum of the indexed values over the selected
// rows using only bitmap ANDs and population counts — no per-row value
// access. This is the aggregation technique the paper attributes to
// Bit-Sliced indexes in Sybase IQ, generalized here to every encoding and
// base:
//
//   - equality encoding: sum += weight_i * j * Count(E_i^j AND sel)
//   - range encoding:    per component, sum of digits = sum over j of
//     Count(digit > j) = selCount - Count(B_i^j AND sel)
//   - interval encoding: digit-equality bitmaps are reconstructed from at
//     most two windows each
//
// where weight_i is the mixed-radix place value of component i. sel may
// be nil (aggregate over every row); null rows never contribute. The
// second result is the number of non-null rows aggregated. For a base-2
// equality-encoded index this degenerates to exactly the classic
// bit-sliced sum: one AND and one popcount per bit slice.
//
// The sum is computed in uint64; it overflows only when N*C exceeds 2^64.
func (ix *Index) SumSelected(sel *bitvec.Vector) (sum uint64, n int, err error) {
	selNN := ix.nn.Clone()
	if sel != nil {
		if sel.Len() != ix.rows {
			return 0, 0, fmt.Errorf("core: selection has %d bits, index has %d rows", sel.Len(), ix.rows)
		}
		selNN.And(sel)
	}
	n = selNN.Count()
	if n == 0 {
		return 0, 0, nil
	}
	weight := uint64(1)
	for i, bi := range ix.base {
		var digitSum uint64
		switch ix.enc {
		case EqualityEncoded:
			if bi == 2 {
				digitSum = uint64(bitvec.AndCount(ix.comps[i][0], selNN)) // E^1
				break
			}
			for j := uint64(1); j < bi; j++ {
				digitSum += j * uint64(bitvec.AndCount(ix.comps[i][j], selNN))
			}
		case RangeEncoded:
			// sum of digits = sum_{j=0}^{b-2} Count(digit > j).
			for j := uint64(0); j < bi-1; j++ {
				digitSum += uint64(n - bitvec.AndCount(ix.comps[i][j], selNN))
			}
		case IntervalEncoded:
			for d := uint64(1); d < bi; d++ {
				b := newProgBuilder(ix)
				eq, _ := ix.runSerial(b.seal(b.compileIvEQDigit(i, d)), nil)
				digitSum += d * uint64(bitvec.AndCount(eq, selNN))
			}
		default:
			return 0, 0, fmt.Errorf("core: unknown encoding %v", ix.enc)
		}
		sum += weight * digitSum
		weight *= bi
	}
	return sum, n, nil
}

// AvgSelected returns the mean of the indexed values over the selected
// rows, and the number of rows aggregated (0 means an empty selection and
// a mean of 0).
func (ix *Index) AvgSelected(sel *bitvec.Vector) (float64, int, error) {
	sum, n, err := ix.SumSelected(sel)
	if err != nil || n == 0 {
		return 0, n, err
	}
	return float64(sum) / float64(n), n, nil
}

// Histogram returns the number of non-null rows per value, computed from
// the index alone (C equality evaluations). Intended for statistics and
// verification rather than hot paths.
func (ix *Index) Histogram() []int {
	h, _ := ix.HistogramSelected(nil)
	return h
}

// HistogramSelected returns per-value counts restricted to the selected
// rows (nil means all rows), plus the number of rows counted.
func (ix *Index) HistogramSelected(sel *bitvec.Vector) ([]int, error) {
	selNN, _, err := ix.selAndCount(sel)
	if err != nil {
		return nil, err
	}
	out := make([]int, ix.card)
	for v := uint64(0); v < ix.card; v++ {
		out[v] = bitvec.AndCount(ix.Eval(Eq, v, nil), selNN)
	}
	return out, nil
}

// ValueCount is one histogram entry.
type ValueCount struct {
	Value uint64
	Count int
}

// TopKSelected returns the k most frequent values among the selected rows
// (nil means all rows), most frequent first; ties break toward smaller
// values. Values with zero occurrences are omitted.
func (ix *Index) TopKSelected(k int, sel *bitvec.Vector) ([]ValueCount, error) {
	if k <= 0 {
		return nil, nil
	}
	h, err := ix.HistogramSelected(sel)
	if err != nil {
		return nil, err
	}
	out := make([]ValueCount, 0, len(h))
	for v, c := range h {
		if c > 0 {
			out = append(out, ValueCount{Value: uint64(v), Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	if k < len(out) {
		out = out[:k]
	}
	return out, nil
}
