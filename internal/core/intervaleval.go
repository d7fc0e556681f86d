package core

// Interval encoding is the third encoding scheme, included as an extension
// beyond the paper's two (the same group's follow-up work): component i
// stores m_i = ceil(b_i/2) bitmaps, where window bitmap I_i^j marks
// records whose digit lies in [j, j+m_i-1]. Any single-digit comparison is
// then answerable from at most two stored bitmaps:
//
//	digit = d:   I^d AND NOT I^{d+1}              (d < m-1)
//	             I^{m-1} AND I^0                  (d = m-1)
//	             I^{d-m+1} AND NOT I^{d-m}        (m <= d <= 2m-2)
//	             NOT (I^0 OR I^{m-1})             (d = 2m-1, even b only)
//	digit <= w:  I^0 AND NOT I^{w+1}              (w < m-1)
//	             I^0                              (w = m-1)
//	             I^0 OR I^{w-m+1}                 (m <= w <= 2m-2)
//
// so interval encoding roughly halves the space of range encoding at up to
// twice the scans — a new family of points in the space-time tradeoff.

// compileInterval compiles (A op v) on an interval-encoded index.
func (b *progBuilder) compileInterval(op Op, v uint64) segreg {
	ix := b.ix
	switch op {
	case Eq:
		B := b.compileIvEQChain(v)
		b.maskNN(B)
		return B
	case Ne:
		B := b.compileIvEQChain(v)
		b.not(B)
		b.maskNN(B)
		return B
	case Lt:
		if v == 0 {
			return b.zeros()
		}
		return b.compileIvLT(v)
	case Ge:
		if v == 0 {
			return b.nonNull()
		}
		B := b.compileIvLT(v)
		b.not(B)
		b.maskNN(B)
		return B
	case Le:
		if v >= ix.card-1 {
			return b.nonNull()
		}
		return b.compileIvLT(v + 1)
	default: // Gt
		if v >= ix.card-1 {
			return b.zeros()
		}
		B := b.compileIvLT(v + 1)
		b.not(B)
		b.maskNN(B)
		return B
	}
}

// ivWindows returns m_i, the number of stored window bitmaps of component
// i under interval encoding.
func ivWindows(b uint64) int { return int((b + 1) / 2) }

// compileIvEQDigit returns a fresh register of records whose i-th digit
// equals d. Complement cases may include null rows; callers AND the result
// with a null-free prefix (or mask with B_nn at the end).
func (b *progBuilder) compileIvEQDigit(i int, d uint64) segreg {
	bi := b.ix.base[i]
	m := uint64(ivWindows(bi))
	switch {
	case d < m-1:
		t := b.cloneInto(b.fetch(i, int(d)))
		b.andNot(t, b.fetch(i, int(d+1)))
		return t
	case d == m-1:
		t := b.cloneInto(b.fetch(i, int(m-1)))
		if m > 1 {
			b.and(t, b.fetch(i, 0))
		}
		return t
	case d <= 2*m-2:
		t := b.cloneInto(b.fetch(i, int(d-m+1)))
		b.andNot(t, b.fetch(i, int(d-m)))
		return t
	default: // d == 2m-1: the one digit outside every window (even b)
		t := b.cloneInto(b.fetch(i, 0))
		if m > 1 {
			b.or(t, b.fetch(i, int(m-1)))
		}
		b.not(t)
		return t
	}
}

// compileIvLEDigit returns a fresh register of records whose i-th digit
// is <= w, for 0 <= w <= b_i-2 (w = b_i-1 is the implicit all-ones).
func (b *progBuilder) compileIvLEDigit(i int, w uint64) segreg {
	bi := b.ix.base[i]
	m := uint64(ivWindows(bi))
	switch {
	case w < m-1:
		t := b.cloneInto(b.fetch(i, 0))
		b.andNot(t, b.fetch(i, int(w+1)))
		return t
	case w == m-1:
		return b.cloneInto(b.fetch(i, 0))
	default: // m <= w <= 2m-2, always within range since w <= b-2
		t := b.cloneInto(b.fetch(i, 0))
		b.or(t, b.fetch(i, int(w-m+1)))
		return t
	}
}

// compileIvEQChain compiles (A = v) as the AND over components of digit
// equality.
func (b *progBuilder) compileIvEQChain(v uint64) segreg {
	digits := b.ix.base.Decompose(v, nil)
	B := segreg(-1)
	for i := range b.ix.base {
		e := b.compileIvEQDigit(i, digits[i])
		if B < 0 {
			B = e
			continue
		}
		b.and(B, regOp(e))
		b.release(e)
	}
	return B
}

// compileIvLT compiles (A < v) for 1 <= v <= C with the
// most-significant-first expansion, exactly like the equality-encoded
// evaluator but with interval digit primitives.
func (b *progBuilder) compileIvLT(v uint64) segreg {
	ix := b.ix
	digits := ix.base.Decompose(v, nil)
	R := b.zeros()
	P := b.nonNull()
	for i := len(ix.base) - 1; i >= 0; i-- {
		di := digits[i]
		if di > 0 {
			lt := b.compileIvLEDigit(i, di-1)
			b.and(lt, regOp(P))
			b.or(R, regOp(lt))
			b.release(lt)
		}
		if i > 0 {
			e := b.compileIvEQDigit(i, di)
			b.and(P, regOp(e))
			b.release(e)
		}
	}
	b.release(P)
	return R
}
