package core

import "bitmapindex/internal/invariant"

// compileEquality compiles (A op v) on an equality-encoded index. The
// paper uses (but does not print) an equality-encoding evaluator; this one
// follows the paper's stated cost behaviour: an equality predicate reads
// one bitmap per component, while a range predicate reads between two and
// half the bitmaps of each component, choosing per component whichever of
// the two directions (OR of low digit bitmaps vs complement of the OR of
// high digit bitmaps) needs fewer bitmap scans.
func (b *progBuilder) compileEquality(op Op, v uint64) segreg {
	ix := b.ix
	switch op {
	case Eq:
		return b.compileEqEQ(v)
	case Ne:
		B := b.compileEqEQ(v)
		b.not(B)
		b.maskNN(B)
		return B
	case Lt:
		if v == 0 {
			return b.zeros()
		}
		return b.compileEqLT(v)
	case Ge:
		if v == 0 {
			return b.nonNull()
		}
		B := b.compileEqLT(v)
		b.not(B)
		b.maskNN(B)
		return B
	case Le:
		if v >= ix.card-1 {
			return b.nonNull()
		}
		return b.compileEqLT(v + 1)
	default: // Gt
		if v >= ix.card-1 {
			return b.zeros()
		}
		B := b.compileEqLT(v + 1)
		b.not(B)
		b.maskNN(B)
		return B
	}
}

// compileEqBitmap returns the digit-equality bitmap E_i^j. For base-2
// components only E_i^1 is stored; E_i^0 is derived as B_nn AND NOT E_i^1
// (one scan). When derived, the operand is a fresh register t the caller
// must release (or adopt as its accumulator).
func (b *progBuilder) compileEqBitmap(i int, j uint64) (op segOperand, t segreg, derived bool) {
	if b.ix.base[i] == 2 {
		stored := b.fetch(i, 0) // E_i^1
		if j == 1 {
			return stored, 0, false
		}
		t = b.nonNull()
		b.andNot(t, stored)
		return regOp(t), t, true
	}
	return b.fetch(i, int(j)), 0, false
}

// compileEqEQ compiles the equality bitmap (A = v): the AND over
// components of E_i^{v_i}, one scan per component.
func (b *progBuilder) compileEqEQ(v uint64) segreg {
	digits := b.ix.base.Decompose(v, nil)
	invariant.DigitsInBase(digits, b.ix.base)
	B := segreg(-1)
	for i := range b.ix.base {
		e, t, derived := b.compileEqBitmap(i, digits[i])
		if B < 0 {
			if derived {
				B = t
			} else {
				B = b.cloneInto(e)
			}
			continue
		}
		b.and(B, e)
		if derived {
			b.release(t)
		}
	}
	return B
}

// compileEqLT compiles (A < v) for 1 <= v <= C using the standard
// most-significant first expansion: A < v iff for some component i, the
// digits above i equal v's and digit_i < v_i. The prefix-equality bitmap P
// starts from B_nn so null records never qualify even when a per-digit
// comparison is computed by complement.
func (b *progBuilder) compileEqLT(v uint64) segreg {
	ix := b.ix
	digits := ix.base.Decompose(v, nil)
	invariant.DigitsInBase(digits, ix.base)
	R := b.zeros()
	P := b.nonNull()
	for i := len(ix.base) - 1; i >= 0; i-- {
		di := digits[i]
		if di > 0 {
			lt := b.compileEqLTDigit(i, di)
			b.and(lt, regOp(P))
			b.or(R, regOp(lt))
			b.release(lt)
		}
		if i > 0 {
			e, t, derived := b.compileEqBitmap(i, di)
			b.and(P, e)
			if derived {
				b.release(t)
			}
		}
	}
	b.release(P)
	return R
}

// compileEqLTDigit returns a fresh register of records whose i-th digit
// is < d, 1 <= d <= b_i - 1. It reads min(d, b_i - d) stored bitmaps:
// either the OR of E_i^0..E_i^{d-1}, or the complement of the OR of
// E_i^d..E_i^{b_i-1}. The complement direction may include null rows;
// callers AND the result with a null-free prefix bitmap.
func (b *progBuilder) compileEqLTDigit(i int, d uint64) segreg {
	bi := b.ix.base[i]
	if bi == 2 {
		// Only d = 1 is possible: digit < 1 means digit = 0.
		e, t, derived := b.compileEqBitmap(i, 0)
		if derived {
			return t
		}
		return b.cloneInto(e)
	}
	if d <= bi-d {
		// Forward: OR of the d low digit bitmaps.
		acc := b.cloneInto(b.fetch(i, 0))
		for j := uint64(1); j < d; j++ {
			b.or(acc, b.fetch(i, int(j)))
		}
		return acc
	}
	// Backward: complement of the OR of the b_i - d high digit bitmaps.
	acc := b.cloneInto(b.fetch(i, int(d)))
	for j := d + 1; j < bi; j++ {
		b.or(acc, b.fetch(i, int(j)))
	}
	b.not(acc)
	return acc
}
