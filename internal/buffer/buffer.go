// Package buffer implements the paper's Section 10: the effect of keeping
// m bitmaps resident in main memory on the space-time tradeoff of
// range-encoded bitmap indexes.
//
// A buffer assignment <f_n, ..., f_1> keeps f_i of component i's b_i - 1
// stored bitmaps in memory. Under the uniform query distribution every
// stored bitmap of a component is referenced equally often, so buffering
// any f_i of them yields hit rate f_i/(b_i - 1) per reference and the
// expected scan count of eq. (5) (cost.TimeRangeBuffered). Because the
// expected cost is linear in each f_i, the greedy policy that repeatedly
// buffers a bitmap from the component with the highest marginal benefit is
// exactly optimal; the resulting priority order is the paper's Theorem
// 10.1: a bitmap of component i >= 2 beats one of component 1 iff
// 2/b_i > (4/3)/b_1, i.e. iff b_i < (3/2) b_1, and within a set smaller
// bases win.
package buffer

import (
	"fmt"
	"sync/atomic"

	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
)

// Assignment holds the number of buffered bitmaps per component,
// little-endian like core.Base: Assignment[0] is f_1.
type Assignment []int

// Total returns the total number of buffered bitmaps.
func (a Assignment) Total() int {
	t := 0
	for _, f := range a {
		t += f
	}
	return t
}

// Validate reports whether the assignment is well-defined for the base:
// 0 <= f_i <= b_i - 1 for every component.
func (a Assignment) Validate(base core.Base) error {
	if len(a) != len(base) {
		return fmt.Errorf("buffer: assignment has %d components, base has %d", len(a), len(base))
	}
	for i, f := range a {
		if f < 0 || f > int(base[i])-1 {
			return fmt.Errorf("buffer: f_%d = %d out of range [0, %d]", i+1, f, base[i]-1)
		}
	}
	return nil
}

// marginal returns the reduction in expected scans from buffering one more
// bitmap of component i (0-based), from the derivative of eq. (5). The
// small negative term reflects the boundary correction: a buffered slot
// occasionally holds a bitmap the degenerate constants would not have
// scanned anyway.
func marginal(base core.Base, card uint64, i int) float64 {
	if i == 0 {
		return (4.0 / 3.0) / float64(base[0])
	}
	return 2/float64(base[i]) - 1/(3*float64(card)*float64(base[i]-1))
}

// Optimal returns the optimal m-bitmap buffer assignment for the base
// (Theorem 10.1): the linear objective makes greedy-by-marginal-benefit
// exact. Assignments are capped at each component's b_i - 1 stored
// bitmaps; if m exceeds the total stored bitmaps the surplus is unused.
func Optimal(base core.Base, card uint64, m int) Assignment {
	a := make(Assignment, len(base))
	for m > 0 {
		best, bestGain := -1, 0.0
		for i := range base {
			if a[i] >= int(base[i])-1 {
				continue
			}
			if g := marginal(base, card, i); g > bestGain {
				bestGain = g
				best = i
			}
		}
		if best < 0 {
			break
		}
		a[best]++
		m--
	}
	return a
}

// Time returns the expected scans per query for the base with the given
// buffer assignment (eq. (5) with the boundary correction of
// cost.TimeRangeBuffered).
func Time(base core.Base, card uint64, a Assignment) float64 {
	return cost.TimeRangeBuffered(base, card, a)
}

// For converts an assignment into a predicate usable as
// core.EvalOptions.Buffered: the f_i lowest slots of each component are the
// resident ones (any choice of slots has the same expected hit rate under
// the uniform query distribution).
func (a Assignment) For() func(comp, slot int) bool {
	return func(comp, slot int) bool {
		return comp < len(a) && slot < a[comp]
	}
}

// HitStats counts buffer consultations so buffering experiments can report
// measured hits next to the eq. (5) expectation. The evaluator consults
// the Buffered predicate once per distinct bitmap referenced per query, so
// hits+misses equals the distinct bitmap references and misses equals the
// scan count. Safe for concurrent
// queries (core.EvalBatch).
type HitStats struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// Hits returns the number of bitmap references served by the buffer.
func (h *HitStats) Hits() int64 { return h.hits.Load() }

// Misses returns the number of bitmap references that went to storage.
func (h *HitStats) Misses() int64 { return h.misses.Load() }

// HitRate returns the fraction of bitmap references served by the buffer.
func (h *HitStats) HitRate() float64 {
	hits, misses := h.Hits(), h.Misses()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// CountingFor is For with hit accounting: every consultation is counted
// into h.
func (a Assignment) CountingFor(h *HitStats) func(comp, slot int) bool {
	resident := a.For()
	return func(comp, slot int) bool {
		if resident(comp, slot) {
			h.hits.Add(1)
			return true
		}
		h.misses.Add(1)
		return false
	}
}

// TimeOptimalIndex returns the time-optimal index design when m bitmaps
// can be buffered, together with its optimal assignment (Theorem 10.2):
// for m >= 1 it is the m-component index <2, ..., 2, ceil(C/2^(m-1))>
// whose m-1 base-2 bitmaps are all buffered plus one bitmap of component
// 1. When m meets or exceeds ceil(log2 C) the base-2 index with every
// bitmap buffered evaluates queries entirely from memory.
func TimeOptimalIndex(card uint64, m int) (core.Base, Assignment, error) {
	if card < 2 {
		return nil, nil, fmt.Errorf("buffer: cardinality must be >= 2, got %d", card)
	}
	if m < 0 {
		return nil, nil, fmt.Errorf("buffer: negative buffer size %d", m)
	}
	n := m
	if max := core.Log2Ceil(card); n > max {
		n = max
	}
	if n == 0 {
		n = 1
	}
	base := make(core.Base, n)
	rest := uint64(1) << uint(n-1)
	b1 := (card + rest - 1) / rest
	if b1 < 2 {
		b1 = 2
	}
	base[0] = b1
	for i := 1; i < n; i++ {
		base[i] = 2
	}
	return base, Optimal(base, card, m), nil
}
