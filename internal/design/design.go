// Package design implements the paper's physical-design results: the
// space-optimal and time-optimal indexes (Theorem 6.1), the knee of the
// space-time tradeoff (Section 7), and the time-optimal index under a disk
// space constraint (Section 8), both the exhaustive Algorithm TimeOptAlg
// and the near-optimal heuristic Algorithm TimeOptHeur (FindSmallestN +
// RefineIndex, Theorem 8.1).
//
// All results in this package are for range-encoded indexes, which
// Section 5 shows dominate equality-encoded ones for the selection query
// mix; the time metric is cost.TimeRange. Base sequences are kept in the
// canonical best arrangement: non-increasing from component 1, so the
// largest base number sits at b_1 where it minimizes expected scans.
package design

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
)

// ErrInfeasible is returned when no well-defined index satisfies the given
// space constraint; the minimum possible space is ceil(log2 C) bitmaps
// (the base-2 index).
var ErrInfeasible = errors.New("design: space constraint below the base-2 index size")

// Point is one index design with its space and time coordinates.
type Point struct {
	Base  core.Base
	Space int     // stored bitmaps
	Time  float64 // expected scans per query (cost.TimeRange)
}

// MaxComponents returns the largest useful number of components for
// cardinality card: ceil(log2 C), at which every base number is 2.
func MaxComponents(card uint64) int { return core.Log2Ceil(card) }

func checkNC(card uint64, n int) error {
	if card < 2 {
		return fmt.Errorf("design: cardinality must be >= 2, got %d", card)
	}
	if n < 1 || n > MaxComponents(card) {
		return fmt.Errorf("design: n = %d out of range [1, %d] for C = %d", n, MaxComponents(card), card)
	}
	return nil
}

// ceilRoot returns ceil(card^(1/n)) computed with integer arithmetic.
func ceilRoot(card uint64, n int) uint64 {
	if n == 1 {
		return card
	}
	b := uint64(math.Ceil(math.Pow(float64(card), 1/float64(n))))
	if b < 2 {
		b = 2
	}
	// Float error can be off by one in either direction; fix up exactly.
	for b > 2 && powAtLeast(b-1, n, card) {
		b--
	}
	for !powAtLeast(b, n, card) {
		b++
	}
	return b
}

// powAtLeast reports whether b^n >= card without overflowing.
func powAtLeast(b uint64, n int, card uint64) bool {
	p := uint64(1)
	for i := 0; i < n; i++ {
		if b != 0 && p > card/b+1 {
			return true
		}
		p *= b
		if p >= card {
			return true
		}
	}
	return p >= card
}

// SpaceOptimal returns the n-component space-optimal base of Theorem
// 6.1(1): with b = ceil(C^(1/n)) and r the smallest positive integer such
// that b^r * (b-1)^(n-r) >= C, the base has r components of b and n-r of
// b-1, giving n(b-2)+r stored bitmaps. When b = 2 the n-r low components
// would be base 1, so r must equal n (requiring n = ceil(log2 C) exactly
// for such n); the function then returns the all-2 base.
func SpaceOptimal(card uint64, n int) (core.Base, error) {
	if err := checkNC(card, n); err != nil {
		return nil, err
	}
	b := ceilRoot(card, n)
	if b == 2 {
		// (b-1) components would be base 1; only the uniform base-2 index
		// is well-defined, and it covers card because n >= ceil(log2 C)
		// is impossible here beyond equality.
		base := core.Uniform(2, n)
		if !base.Covers(card) {
			return nil, fmt.Errorf("design: no %d-component space-optimal base for C = %d", n, card)
		}
		return base, nil
	}
	r := 1
	for ; r <= n; r++ {
		if mixedPowAtLeast(b, r, b-1, n-r, card) {
			break
		}
	}
	if r > n {
		return nil, fmt.Errorf("design: internal: r not found for C=%d n=%d", card, n)
	}
	base := make(core.Base, n)
	for i := 0; i < r; i++ {
		base[i] = b
	}
	for i := r; i < n; i++ {
		base[i] = b - 1
	}
	return base, nil
}

// mixedPowAtLeast reports whether a^ra * b^rb >= card.
func mixedPowAtLeast(a uint64, ra int, b uint64, rb int, card uint64) bool {
	p := uint64(1)
	mul := func(f uint64) bool {
		if f != 0 && p > math.MaxUint64/f {
			return true
		}
		p *= f
		return p >= card
	}
	for i := 0; i < ra; i++ {
		if mul(a) {
			return true
		}
	}
	for i := 0; i < rb; i++ {
		if mul(b) {
			return true
		}
	}
	return p >= card
}

// MinSpace returns the number of stored bitmaps of the n-component
// space-optimal index.
func MinSpace(card uint64, n int) (int, error) {
	base, err := SpaceOptimal(card, n)
	if err != nil {
		return 0, err
	}
	return cost.SpaceRange(base), nil
}

// TimeOptimal returns the n-component time-optimal base of Theorem 6.1(3):
// <2, ..., 2, ceil(C / 2^(n-1))> in the paper's big-endian notation, i.e.
// one large component at position 1 and base-2 components elsewhere.
func TimeOptimal(card uint64, n int) (core.Base, error) {
	if err := checkNC(card, n); err != nil {
		return nil, err
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
	return base, nil
}

// SpaceOptimalBest returns the most time-efficient base among all
// n-component bases that attain the minimal space (the representative the
// paper plots in Figures 10 and 11, since the n-component space-optimal
// index is generally not unique).
func SpaceOptimalBest(card uint64, n int) (core.Base, error) {
	s, err := MinSpace(card, n)
	if err != nil {
		return nil, err
	}
	var best core.Base
	bestTime := math.Inf(1)
	// Enumerate multisets with sum of (b_i - 1) exactly s and product >= C.
	enumerateExactSpace(card, n, s, func(ms []uint64) {
		b := arrange(ms)
		if t := cost.TimeRange(b, card); t < bestTime {
			bestTime = t
			best = b.Clone()
		}
	})
	if best == nil {
		return nil, fmt.Errorf("design: internal: no base with space %d for C=%d n=%d", s, card, n)
	}
	return best, nil
}

// arrange converts a multiset of base numbers into the canonical best
// arrangement: non-increasing, so the largest base is b_1 (minimizing the
// (2/3)(1 - 1/b_1) term of the time formula).
func arrange(ms []uint64) core.Base {
	b := make(core.Base, len(ms))
	copy(b, ms)
	sort.Slice(b, func(i, j int) bool { return b[i] > b[j] })
	return b
}

// enumerateExactSpace visits every non-decreasing multiset of k base
// numbers (each >= 2) with sum_i (b_i - 1) == space and product >= card.
func enumerateExactSpace(card uint64, k, space int, visit func([]uint64)) {
	ms := make([]uint64, 0, k)
	var rec func(minB uint64, left int, prod uint64)
	rec = func(minB uint64, left int, prod uint64) {
		remaining := k - len(ms)
		if remaining == 0 {
			if left == 0 && prodAtLeast(prod, 1, card) {
				visit(ms)
			}
			return
		}
		// Each remaining component consumes at least minB-1 from the space
		// budget; the last consumes the rest.
		if remaining == 1 {
			b := uint64(left + 1)
			if b >= minB && b >= 2 {
				ms = append(ms, b)
				if prodAtLeast(prod, b, card) {
					visit(ms)
				}
				ms = ms[:len(ms)-1]
			}
			return
		}
		for b := minB; int(b-1)*remaining <= left; b++ {
			ms = append(ms, b)
			rec(b, left-int(b-1), satMul(prod, b))
			ms = ms[:len(ms)-1]
		}
	}
	rec(2, space, 1)
}

func satMul(a, b uint64) uint64 {
	if b != 0 && a > math.MaxUint64/b {
		return math.MaxUint64
	}
	return a * b
}

func prodAtLeast(prod, b, card uint64) bool { return satMul(prod, b) >= card }

// EnumerateMinimal visits every decrement-minimal multiset of base numbers
// covering card with between 1 and maxN components, in the canonical
// arrangement. A multiset is decrement-minimal when no single base number
// can be reduced by one while still covering card; only such bases can lie
// on the space-time tradeoff frontier (reducing a base number reduces both
// space and time).
func EnumerateMinimal(card uint64, maxN int, visit func(core.Base)) {
	if card < 2 {
		return
	}
	if maxN > MaxComponents(card) {
		maxN = MaxComponents(card)
	}
	ms := make([]uint64, 0, maxN)
	var rec func(minB uint64, prod uint64)
	rec = func(minB uint64, prod uint64) {
		// Close the multiset with one exact final component.
		need := (card + prod - 1) / prod // ceil(card / prod)
		if need >= minB && need >= 2 {
			ms = append(ms, need)
			if isMinimal(ms, card) {
				visit(arrange(ms))
			}
			ms = ms[:len(ms)-1]
		}
		if len(ms)+1 >= maxN {
			return
		}
		// Or keep the product strictly below card and recurse.
		for b := minB; satMul(prod, b) < card; b++ {
			ms = append(ms, b)
			rec(b, prod*b)
			ms = ms[:len(ms)-1]
		}
	}
	rec(2, 1)
}

func isMinimal(ms []uint64, card uint64) bool {
	prod := uint64(1)
	for _, b := range ms {
		prod = satMul(prod, b)
	}
	for _, b := range ms {
		if b >= 3 && satMul(prod/b, b-1) >= card {
			return false
		}
	}
	return true
}

// Frontier returns the Pareto-optimal set S of index designs for the given
// encoding: no other design is at least as good in both space and time and
// better in one. Points are sorted by increasing space (hence decreasing
// time). Time for equality encoding is computed by exact enumeration.
func Frontier(card uint64, enc core.Encoding) []Point {
	var all []Point
	EnumerateMinimal(card, MaxComponents(card), func(b core.Base) {
		p := Point{Base: b.Clone(), Space: cost.Space(b, enc)}
		if enc == core.RangeEncoded {
			p.Time = cost.TimeRange(b, card)
		} else {
			p.Time = cost.ExactTime(b, enc, card)
		}
		all = append(all, p)
	})
	return paretoMin(all)
}

// paretoMin keeps the points minimal in (Space, Time), sorted by Space.
func paretoMin(all []Point) []Point {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Space != all[j].Space {
			return all[i].Space < all[j].Space
		}
		return all[i].Time < all[j].Time
	})
	var out []Point
	best := math.Inf(1)
	for _, p := range all {
		if p.Time < best-1e-12 {
			out = append(out, p)
			best = p.Time
		}
	}
	return out
}

// Knee returns the paper's approximate characterization of the knee of the
// space-time tradeoff (Section 7): the most time-efficient 2-component
// space-optimal index (Theorem 7.1). For cardinalities of at most 4 the
// tradeoff has a single point and the 1-component index is returned; a
// single-valued attribute gets the smallest valid base, <2>.
func Knee(card uint64) (core.Base, error) {
	if card == 0 {
		return nil, fmt.Errorf("design: cardinality must be >= 1, got 0")
	}
	if card == 1 {
		return core.SingleComponent(2), nil
	}
	if MaxComponents(card) < 2 {
		return core.SingleComponent(card), nil
	}
	return SpaceOptimalBest(card, 2)
}

// KneeByDefinition computes the knee from its definition: on the optimal
// frontier I_1..I_p, with normalized gradients LG_j and RG_j (the factor
// F = Space(I_p)/Time(I_1) rescales both axes to comparable units), the
// knee is the point with LG_j > 1 and RG_j < 1 maximizing LG_j / RG_j.
func KneeByDefinition(card uint64) (Point, error) {
	front := Frontier(card, core.RangeEncoded)
	if len(front) == 0 {
		return Point{}, fmt.Errorf("design: empty frontier for C = %d", card)
	}
	if len(front) < 3 {
		return front[0], nil
	}
	f := float64(front[len(front)-1].Space) / front[0].Time
	bestRatio := math.Inf(-1)
	var knee Point
	found := false
	for j := 1; j < len(front)-1; j++ {
		lg := f * (front[j-1].Time - front[j].Time) / float64(front[j].Space-front[j-1].Space)
		rg := f * (front[j].Time - front[j+1].Time) / float64(front[j+1].Space-front[j].Space)
		if lg > 1 && rg < 1 && rg > 0 {
			if ratio := lg / rg; ratio > bestRatio {
				bestRatio = ratio
				knee = front[j]
				found = true
			}
		}
	}
	if !found {
		// Degenerate frontiers (tiny C) have no interior knee; fall back to
		// the point closest to the normalized origin.
		bestD := math.Inf(1)
		for _, p := range front {
			d := float64(p.Space)/float64(front[len(front)-1].Space) + p.Time/front[0].Time
			if d < bestD {
				bestD = d
				knee = p
			}
		}
	}
	return knee, nil
}
