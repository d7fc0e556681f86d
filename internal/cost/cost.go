// Package cost implements the paper's analytic cost model (Section 4) for
// the space-time tradeoff study.
//
// The space metric is the number of stored bitmaps (Theorem 5.1, eqs. (1)
// and (3)). The time metric is the expected number of bitmap scans to
// evaluate one selection query, with queries uniformly distributed over
//
//	Q = {A op v : op in {<, <=, >, >=, =, !=}, 0 <= v < C}.
//
// For range-encoded indexes evaluated with RangeEval-Opt the expectation
// has a closed form. With base <b_n, ..., b_1> and digits of the query
// constant uniform (exact when C equals the base product):
//
//   - an equality operator (=, !=) reads, in component i, one bitmap when
//     the digit is 0 or b_i-1 and two otherwise: expected 2 - 2/b_i;
//   - a range operator reduces to (A <= w) and reads, in component 1, one
//     bitmap unless w's digit is b_1-1 (expected 1 - 1/b_1), and in every
//     other component up to two bitmaps (expected 2 - 2/b_i).
//
// Averaging over the six operators (4 range : 2 equality) gives eq. (4):
//
//	Time(I) = 2*(n - sum_i 1/b_i) - (2/3)*(1 - 1/b_1).
//
// The buffered variant (Section 10, eq. (5)) scales each component's
// contribution by its buffer miss rate 1 - f_i/(b_i - 1):
//
//	Time(I,f) = 2*sum_{i>=2}(1 - (1+f_i)/b_i) + (4/3)*(1 - (1+f_1)/b_1).
//
// ExactTime* functions compute the same expectations by exhaustive
// enumeration of all 6C queries against a digit-level model of the
// evaluators; the test suite verifies the model against the instrumented
// evaluators and the closed forms against the enumeration.
package cost

import (
	"bitmapindex/internal/core"
)

// SpaceRange returns the number of stored bitmaps of a range-encoded index:
// sum_i (b_i - 1), eq. (3).
func SpaceRange(base core.Base) int {
	s := 0
	for _, bi := range base {
		s += int(bi) - 1
	}
	return s
}

// SpaceEquality returns the number of stored bitmaps of an equality-encoded
// index, eq. (1): b_i bitmaps per component, except base-2 components which
// store a single bitmap (the other is its complement).
func SpaceEquality(base core.Base) int {
	s := 0
	for _, bi := range base {
		if bi == 2 {
			s++
		} else {
			s += int(bi)
		}
	}
	return s
}

// SpaceInterval returns the number of stored bitmaps of an
// interval-encoded index (extension): ceil(b_i/2) per component.
func SpaceInterval(base core.Base) int {
	s := 0
	for _, bi := range base {
		s += int(bi+1) / 2
	}
	return s
}

// Space returns the stored-bitmap count for the given encoding.
func Space(base core.Base, enc core.Encoding) int {
	switch enc {
	case core.RangeEncoded:
		return SpaceRange(base)
	case core.IntervalEncoded:
		return SpaceInterval(base)
	default:
		return SpaceEquality(base)
	}
}

// TimeRangeAsymptotic returns the paper's eq. (4) closed form, the
// expected scans per query for a range-encoded index under RangeEval-Opt
// in the large-C limit. TimeRange adds the exact O(n/C) boundary
// correction; this form is kept because the paper's theorems are stated
// against it and the two orderings agree at fixed n.
func TimeRangeAsymptotic(base core.Base) float64 {
	n := float64(len(base))
	var invSum float64
	for _, bi := range base {
		invSum += 1 / float64(bi)
	}
	return 2*(n-invSum) - (2.0/3.0)*(1-1/float64(base[0]))
}

// TimeRange returns the exact expected scans per query for a range-encoded
// index under RangeEval-Opt when C = card equals the base product (digits
// of the query constant are then exactly uniform). Beyond eq. (4) it keeps
// the boundary term from the two degenerate constants: A < 0 / A >= 0 scan
// nothing, and the all-max-digit constant skips one bitmap per component
// beyond the first, giving
//
//	Time(I) = 2*(n - sum 1/b_i) - (2/3)*(1 - 1/b_1) - (n-1)/(3C).
//
// When card is less than the base product the digit distribution is not
// exactly uniform; use ExactTimeRange for the precise value then.
func TimeRange(base core.Base, card uint64) float64 {
	n := float64(len(base))
	return TimeRangeAsymptotic(base) - (n-1)/(3*float64(card))
}

// TimeRangeBuffered returns the exact expected scans when f[i] bitmaps of
// component i+1 are buffered in memory with uniform per-bitmap hit
// probability f_i/(b_i-1) (the paper's eq. (5) model plus the same
// boundary correction as TimeRange). f may be nil (no buffering); entries
// are clamped to [0, b_i-1].
func TimeRangeBuffered(base core.Base, card uint64, f []int) float64 {
	var t float64
	for i, bi := range base {
		fi := 0
		if i < len(f) {
			fi = f[i]
		}
		if fi < 0 {
			fi = 0
		}
		if fi > int(bi)-1 {
			fi = int(bi) - 1
		}
		miss := 1 - float64(1+fi)/float64(bi)
		if i == 0 {
			t += (4.0 / 3.0) * miss
		} else {
			t += 2 * miss
			// Boundary correction: the all-max-digit constant contributes
			// one scan per component beyond the first, which eq. (4)'s
			// uniform-digit averaging counts but exhaustive enumeration
			// does not (A < 0 and A >= 0 scan nothing).
			t -= (1 - float64(fi)/float64(bi-1)) / (3 * float64(card))
		}
	}
	return t
}

// scansRangeLE returns the scan count of RangeEval-Opt's (A <= w) core for
// the digit vector of w.
func scansRangeLE(base core.Base, digits []uint64) int {
	s := 0
	if digits[0] != base[0]-1 {
		s++
	}
	for i := 1; i < len(base); i++ {
		if digits[i] != base[i]-1 {
			s++
		}
		if digits[i] != 0 {
			s++
		}
	}
	return s
}

// scansRangeEQ returns the scan count of the digit equality chain on a
// range-encoded index.
func scansRangeEQ(base core.Base, digits []uint64) int {
	s := 0
	for i, bi := range base {
		if digits[i] == 0 || digits[i] == bi-1 {
			s++
		} else {
			s += 2
		}
	}
	return s
}

// ScansRange returns the number of bitmap scans RangeEval-Opt performs for
// the single query (A op v) on a range-encoded index with the given base,
// for 0 <= v < card. It is the digit-level model of the evaluator.
func ScansRange(base core.Base, card uint64, op core.Op, v uint64) int {
	if v >= card {
		return 0
	}
	digits := make([]uint64, len(base))
	if !op.IsRange() {
		base.Decompose(v, digits)
		return scansRangeEQ(base, digits)
	}
	w := v
	if op == core.Lt || op == core.Ge {
		if v == 0 {
			return 0
		}
		w = v - 1
	}
	base.Decompose(w, digits)
	return scansRangeLE(base, digits)
}

// ScansRangeBuffered is ScansRange with a buffer-residency predicate:
// fetches of buffered bitmaps are free. It is the exact model for a
// concrete (deterministic) choice of resident slots, whereas
// TimeRangeBuffered averages over a uniformly random choice.
func ScansRangeBuffered(base core.Base, card uint64, op core.Op, v uint64, buffered func(comp, slot int) bool) int {
	if v >= card {
		return 0
	}
	count := func(comp, slot int) int {
		if buffered != nil && buffered(comp, slot) {
			return 0
		}
		return 1
	}
	digits := make([]uint64, len(base))
	s := 0
	if !op.IsRange() {
		base.Decompose(v, digits)
		for i, bi := range base {
			switch digits[i] {
			case 0:
				s += count(i, 0)
			case bi - 1:
				s += count(i, int(bi-2))
			default:
				s += count(i, int(digits[i])) + count(i, int(digits[i]-1))
			}
		}
		return s
	}
	w := v
	if op == core.Lt || op == core.Ge {
		if v == 0 {
			return 0
		}
		w = v - 1
	}
	base.Decompose(w, digits)
	if digits[0] != base[0]-1 {
		s += count(0, int(digits[0]))
	}
	for i := 1; i < len(base); i++ {
		if digits[i] != base[i]-1 {
			s += count(i, int(digits[i]))
		}
		if digits[i] != 0 {
			s += count(i, int(digits[i]-1))
		}
	}
	return s
}

// ExactTimeRangeBuffered returns the expected scans per query for a
// concrete set of resident bitmaps, by enumerating all 6*card queries.
func ExactTimeRangeBuffered(base core.Base, card uint64, buffered func(comp, slot int) bool) float64 {
	total := 0
	for _, op := range core.AllOps {
		for v := uint64(0); v < card; v++ {
			total += ScansRangeBuffered(base, card, op, v, buffered)
		}
	}
	return float64(total) / float64(6*card)
}

// ExactTimeRange returns the expected scans per query for a range-encoded
// index by enumerating all 6*card queries. It equals TimeRange when card
// equals the base product and differs slightly otherwise (digit
// distributions are then not exactly uniform).
func ExactTimeRange(base core.Base, card uint64) float64 {
	total := 0
	for _, op := range core.AllOps {
		for v := uint64(0); v < card; v++ {
			total += ScansRange(base, card, op, v)
		}
	}
	return float64(total) / float64(6*card)
}

// ScansEquality returns the number of bitmap scans the equality-encoded
// evaluator performs for the single query (A op v), 0 <= v < card. It
// mirrors the equality-encoding compiler in internal/core (eqeval.go),
// including its one scan per distinct bitmap and the per-component choice
// between the forward OR and the complemented backward OR.
func ScansEquality(base core.Base, card uint64, op core.Op, v uint64) int {
	if v >= card {
		return 0
	}
	switch op {
	case core.Eq, core.Ne:
		return len(base) // one stored bitmap per component
	case core.Le, core.Gt:
		if v >= card-1 {
			return 0
		}
		return scansEqualityLT(base, v+1)
	default: // Lt, Ge
		if v == 0 {
			return 0
		}
		return scansEqualityLT(base, v)
	}
}

// scansEqualityLT models eqLT(w), 1 <= w <= card-1.
func scansEqualityLT(base core.Base, w uint64) int {
	digits := base.Decompose(w, nil)
	s := 0
	for i := len(base) - 1; i >= 0; i-- {
		bi, di := base[i], digits[i]
		backward := false
		if di > 0 {
			if bi == 2 {
				s++ // derived E^0 reads the single stored bitmap
			} else if di <= bi-di {
				s += int(di) // forward OR of E^0..E^{di-1}
			} else {
				s += int(bi - di) // backward OR of E^{di}..E^{b_i-1}
				backward = true
			}
		}
		if i > 0 {
			// Prefix update reads E_i^{di} unless the backward OR already
			// fetched it; for base-2 components the derived bitmap reads
			// the single stored slot, which the lt step already fetched
			// when di > 0.
			switch {
			case backward:
				// cache hit
			case bi == 2 && di > 0:
				// cache hit on the single stored bitmap
			default:
				s++
			}
		}
	}
	return s
}

// ExactTimeEquality returns the expected scans per query for an
// equality-encoded index by enumerating all 6*card queries.
func ExactTimeEquality(base core.Base, card uint64) float64 {
	total := 0
	for _, op := range core.AllOps {
		for v := uint64(0); v < card; v++ {
			total += ScansEquality(base, card, op, v)
		}
	}
	return float64(total) / float64(6*card)
}

// ExactTime dispatches on encoding. Range and equality use their
// digit-level models; interval encoding is measured on an instrumented
// one-row index (scan counts are data independent).
func ExactTime(base core.Base, enc core.Encoding, card uint64) float64 {
	switch enc {
	case core.RangeEncoded:
		return ExactTimeRange(base, card)
	case core.EqualityEncoded:
		return ExactTimeEquality(base, card)
	default:
		return MeasuredTime(base, enc, card)
	}
}

// MeasuredTime computes the expected scans per query for any encoding by
// instrumenting the real evaluator over a one-row index (scan counts do
// not depend on the data). It is the reference the digit-level models are
// tested against, and the primary metric for encodings without a model.
func MeasuredTime(base core.Base, enc core.Encoding, card uint64) float64 {
	ix, err := core.Build([]uint64{0}, card, base, enc, nil)
	if err != nil {
		panic("cost: " + err.Error())
	}
	var st core.Stats
	for _, op := range core.AllOps {
		for v := uint64(0); v < card; v++ {
			ix.Eval(op, v, &core.EvalOptions{Stats: &st})
		}
	}
	return float64(st.Scans) / float64(6*card)
}

// TimeEquality returns the closed-form expected scans per query for an
// equality-encoded index under this package's evaluator, exact when card
// equals the base product. Derivation (THEORY.md-style):
//
// Equality operators read one bitmap per component: n scans.
//
// Range operators reduce to (A < w), w uniform over 1..C-1 with one
// zero-cost boundary constant per operator, costing per component
//
//	component 1:  min(w_1, b_1-w_1)              (0 when w_1 = 0)
//	component i:  1                               (w_i = 0: prefix probe)
//	              w_i + 1                         (forward OR, w_i <= b_i-w_i)
//	              b_i - w_i                       (backward OR; prefix probe
//	                                               hits the fetch cache)
//
// whose uniform-digit expectations use sum_w min(w, b-w) = floor(b^2/4):
//
//	E_1 = floor(b_1^2/4) / b_1
//	E_i = (1 + floor(b_i^2/4) + floor(b_i/2)) / b_i   (b_i >= 3)
//	E_i = 1                                            (b_i = 2, the single
//	                                                    stored bitmap serves
//	                                                    both probes)
//
// so Time = n/3 + (2/3) (sum_i E_i - (n-1)/C), the last term being the
// all-zero-digit boundary constant the per-digit averaging overcounts.
func TimeEquality(base core.Base, card uint64) float64 {
	n := float64(len(base))
	var sum float64
	for i, bi := range base {
		b := float64(bi)
		quarter := float64(bi * bi / 4) // floor(b^2/4)
		switch {
		case i == 0:
			sum += quarter / b
		case bi == 2:
			sum++
		default:
			sum += (1 + quarter + float64(bi/2)) / b
		}
	}
	return n/3 + (2.0/3.0)*(sum-(n-1)/float64(card))
}
