package core

import (
	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/invariant"
)

// compileRangeOpt compiles (A op v) on a range-encoded index with the
// paper's improved Algorithm RangeEval-Opt (Section 3, Figure 6 right).
//
// Range predicates are rewritten in terms of <= using the identities
// A < v == A <= v-1, A > v == NOT(A <= v), A >= v == NOT(A <= v-1), so a
// single bitmap B is maintained instead of the B_EQ/B_LT/B_GT triple of
// Algorithm RangeEval. Component 1 initializes B directly; each further
// component i contributes at most one AND (with B_i^{v_i}, skipped when
// v_i = b_i - 1, whose bitmap is the implicit all-ones) and one OR (with
// B_i^{v_i - 1}, skipped when v_i = 0).
func (b *progBuilder) compileRangeOpt(op Op, v uint64) segreg {
	ix := b.ix
	if !op.IsRange() {
		B := b.compileRangeEqChain(v)
		if op == Ne {
			b.not(B)
		}
		b.maskNN(B)
		return B
	}
	// Reduce to (A <= w), negating for > and >=.
	neg := op == Gt || op == Ge
	w := v
	underflow := false
	if op == Lt || op == Ge {
		if v == 0 {
			underflow = true // A <= -1: empty
		} else {
			w = v - 1
		}
	}
	var B segreg
	if underflow {
		B = b.zeros()
	} else {
		digits := ix.base.Decompose(w, nil)
		invariant.DigitsInBase(digits, ix.base)
		if digits[0] < ix.base[0]-1 {
			B = b.cloneInto(b.fetch(0, int(digits[0])))
		} else {
			B = b.ones()
		}
		for i := 1; i < len(ix.base); i++ {
			bi, di := ix.base[i], digits[i]
			if di != bi-1 {
				b.and(B, b.fetch(i, int(di)))
			}
			if di != 0 {
				b.or(B, b.fetch(i, int(di-1)))
			}
		}
	}
	if neg {
		b.not(B)
	}
	b.maskNN(B)
	return B
}

// compileRangeEqChain compiles the equality bitmap (A = v) on a
// range-encoded index: per component, digit equality is B_i^{v_i} XOR
// B_i^{v_i-1} (degenerating to a single bitmap or its complement at the
// digit extremes).
func (b *progBuilder) compileRangeEqChain(v uint64) segreg {
	ix := b.ix
	digits := ix.base.Decompose(v, nil)
	invariant.DigitsInBase(digits, ix.base)
	B := b.ones()
	for i, bi := range ix.base {
		di := digits[i]
		switch {
		case di == 0:
			b.and(B, b.fetch(i, 0))
		case di == bi-1:
			t := b.cloneInto(b.fetch(i, int(bi-2)))
			b.not(t)
			b.and(B, regOp(t))
			b.release(t)
		default:
			t := b.cloneInto(b.fetch(i, int(di)))
			b.xor(t, b.fetch(i, int(di-1)))
			b.and(B, regOp(t))
			b.release(t)
		}
	}
	return B
}

// EvalRangeNaive evaluates (A op v) on a range-encoded index using
// Algorithm RangeEval, the O'Neil-Quass evaluation strategy the paper
// improves upon (Section 3, Figure 6 left). It is retained as the
// experimental baseline for Table 1 and Figure 8. Like EvalDirect it
// publishes nothing to the process-wide telemetry registry.
func (ix *Index) EvalRangeNaive(op Op, v uint64, opt *EvalOptions) *bitvec.Vector {
	ix.mustBe(RangeEncoded)
	b := newProgBuilder(ix)
	p, ok := b.trivial(op, v)
	if !ok {
		p = b.seal(b.compileRangeNaive(op, v))
	}
	res, _ := ix.runSerial(p, opt)
	return res
}

// compileRangeNaive compiles Algorithm RangeEval: it incrementally
// maintains the equality bitmap B_EQ together with B_LT or B_GT as
// required by the operator, most significant component first.
func (b *progBuilder) compileRangeNaive(op Op, v uint64) segreg {
	ix := b.ix
	needLT := op == Lt || op == Le
	needGT := op == Gt || op == Ge
	// The register holding the answer is allocated first (register 0).
	BLT, BGT := segreg(-1), segreg(-1)
	if needLT {
		BLT = b.zeros()
	}
	if needGT {
		BGT = b.zeros()
	}
	BEQ := b.nonNull()
	digits := ix.base.Decompose(v, nil)
	invariant.DigitsInBase(digits, ix.base)
	// gtStep folds (digit_i > d, prefix equal) into B_GT: NOT B_i^d AND B_EQ.
	gtStep := func(i int, d uint64) {
		t := b.cloneInto(b.fetch(i, int(d)))
		b.not(t)
		b.and(t, regOp(BEQ))
		b.or(BGT, regOp(t))
		b.release(t)
	}
	for i := len(ix.base) - 1; i >= 0; i-- {
		bi, di := ix.base[i], digits[i]
		if di == 0 {
			if needGT {
				gtStep(i, 0)
			}
			b.and(BEQ, b.fetch(i, 0))
			continue
		}
		if needLT {
			t := b.cloneInto(regOp(BEQ))
			b.and(t, b.fetch(i, int(di-1)))
			b.or(BLT, regOp(t))
			b.release(t)
		}
		var t segreg
		if di < bi-1 {
			if needGT {
				gtStep(i, di)
			}
			t = b.cloneInto(b.fetch(i, int(di)))
			b.xor(t, b.fetch(i, int(di-1)))
		} else {
			t = b.cloneInto(b.fetch(i, int(bi-2)))
			b.not(t)
		}
		b.and(BEQ, regOp(t))
		b.release(t)
	}
	switch op {
	case Eq:
		return BEQ
	case Ne:
		b.not(BEQ)
		b.maskNN(BEQ)
		return BEQ
	case Lt:
		return BLT
	case Le:
		b.or(BLT, regOp(BEQ))
		return BLT
	case Gt:
		return BGT
	default: // Ge
		b.or(BGT, regOp(BEQ))
		return BGT
	}
}

func (ix *Index) mustBe(enc Encoding) {
	if ix.enc != enc {
		panic("core: evaluator called on " + ix.enc.String() + "-encoded index")
	}
}
