package bitvec

import (
	"fmt"
	"math/bits"
)

// Range-restricted kernels for segmented evaluation: each operates on the
// word window [lo, hi) of the receiver, leaving all other words untouched.
// Windows are expressed in 64-bit words, not bits, so segment boundaries
// are always word-aligned and the kernels never need partial-word masking —
// except for the tail-mask invariant, which NotRange and OnesRange restore
// when (and only when) the window covers the true last word.
//
// All binary kernels require u to have the same length as v, exactly like
// their full-vector counterparts.

// NumWords returns the number of 64-bit words backing the vector,
// i.e. ceil(Len()/64). Word windows passed to the *Range kernels must lie
// within [0, NumWords()].
func (v *Vector) NumWords() int { return len(v.words) }

// checkWindow validates the word window [lo, hi). Kept out of the hot
// paths so the kernels themselves stay allocation-free.
func (v *Vector) checkWindow(lo, hi int) {
	if lo < 0 || hi < lo || hi > len(v.words) {
		panic(fmt.Sprintf("bitvec: word window [%d,%d) out of range [0,%d]", lo, hi, len(v.words)))
	}
}

// AndRange sets v = v AND u over the word window [lo, hi).
//
//bix:hotpath
//bix:maskok (AND can only clear bits; the tail stays zero)
func (v *Vector) AndRange(u *Vector, lo, hi int) {
	v.mustMatch(u)
	v.checkWindow(lo, hi)
	a, b := v.words[lo:hi], u.words[lo:hi]
	b = b[:len(a)]
	for i := range a {
		a[i] &= b[i]
	}
}

// OrRange sets v = v OR u over the word window [lo, hi).
//
//bix:hotpath
//bix:maskok (u holds the invariant, so its tail contributes no bits)
func (v *Vector) OrRange(u *Vector, lo, hi int) {
	v.mustMatch(u)
	v.checkWindow(lo, hi)
	a, b := v.words[lo:hi], u.words[lo:hi]
	b = b[:len(a)]
	for i := range a {
		a[i] |= b[i]
	}
}

// XorRange sets v = v XOR u over the word window [lo, hi).
//
//bix:hotpath
//bix:maskok (u holds the invariant, so its tail contributes no bits)
func (v *Vector) XorRange(u *Vector, lo, hi int) {
	v.mustMatch(u)
	v.checkWindow(lo, hi)
	a, b := v.words[lo:hi], u.words[lo:hi]
	b = b[:len(a)]
	for i := range a {
		a[i] ^= b[i]
	}
}

// AndNotRange sets v = v AND (NOT u) over the word window [lo, hi).
//
//bix:hotpath
//bix:maskok (AND-NOT can only clear bits; the tail stays zero)
func (v *Vector) AndNotRange(u *Vector, lo, hi int) {
	v.mustMatch(u)
	v.checkWindow(lo, hi)
	a, b := v.words[lo:hi], u.words[lo:hi]
	b = b[:len(a)]
	for i := range a {
		a[i] &^= b[i]
	}
}

// NotRange complements v over the word window [lo, hi), masking the tail
// only when the window includes the true last word.
//
//bix:hotpath
func (v *Vector) NotRange(lo, hi int) {
	v.checkWindow(lo, hi)
	a := v.words[lo:hi]
	for i := range a {
		a[i] = ^a[i]
	}
	if hi == len(v.words) && hi > lo {
		v.words[hi-1] &= v.tailMask()
	}
}

// CopyRange sets v = u over the word window [lo, hi).
//
//bix:hotpath
//bix:maskok (copies from a same-length vector that already holds the invariant)
func (v *Vector) CopyRange(u *Vector, lo, hi int) {
	v.mustMatch(u)
	v.checkWindow(lo, hi)
	copy(v.words[lo:hi], u.words[lo:hi])
}

// ZeroRange clears every bit in the word window [lo, hi).
//
//bix:hotpath
//bix:maskok (all-zero words trivially satisfy the tail invariant)
func (v *Vector) ZeroRange(lo, hi int) {
	v.checkWindow(lo, hi)
	clear(v.words[lo:hi])
}

// OnesRange sets every bit in the word window [lo, hi), masking the tail
// only when the window includes the true last word.
//
//bix:hotpath
func (v *Vector) OnesRange(lo, hi int) {
	v.checkWindow(lo, hi)
	a := v.words[lo:hi]
	for i := range a {
		a[i] = ^uint64(0)
	}
	if hi == len(v.words) && hi > lo {
		v.words[hi-1] &= v.tailMask()
	}
}

// CountRange returns the number of set bits in the word window [lo, hi).
//
//bix:hotpath
func (v *Vector) CountRange(lo, hi int) int {
	v.checkWindow(lo, hi)
	c := 0
	for _, w := range v.words[lo:hi] {
		c += bits.OnesCount64(w)
	}
	return c
}

// AnyRange reports whether any bit is set in the word window [lo, hi).
//
//bix:hotpath
func (v *Vector) AnyRange(lo, hi int) bool {
	v.checkWindow(lo, hi)
	for _, w := range v.words[lo:hi] {
		if w != 0 {
			return true
		}
	}
	return false
}
