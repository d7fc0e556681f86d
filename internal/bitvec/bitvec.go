// Package bitvec provides the dense bit-vector kernel that every bitmap in
// the index is built on. A Vector is a fixed-length sequence of bits packed
// into 64-bit words, supporting the four logical operations the paper's
// evaluation algorithms need (AND, OR, XOR, NOT) plus AND-NOT, population
// count, and serialization for the on-disk storage schemes.
//
// Invariant: the unused high bits of the last word are always zero. Every
// mutating operation preserves this, so Count and Equal never have to mask.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"bitmapindex/internal/invariant"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is an empty (length 0)
// vector; use New to create one with a given length.
type Vector struct {
	n     int // number of valid bits
	words []uint64
}

// New returns an all-zeros vector of n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, wordsFor(n))}
}

// NewOnes returns an all-ones vector of n bits.
func NewOnes(n int) *Vector {
	v := New(n)
	v.SetAll()
	return v
}

// FromBools builds a vector whose i-th bit is set iff bs[i] is true.
func FromBools(bs []bool) *Vector {
	v := New(len(bs))
	for i, b := range bs {
		if b {
			v.Set(i)
		}
	}
	return v
}

// FromIndices builds an n-bit vector with the given bit positions set.
// It panics if any index is out of range.
func FromIndices(n int, idx []int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// FromWords returns an n-bit vector backed by words, taking ownership of
// the slice: the caller must not use it afterwards. words must hold
// exactly wordsFor(n) words; bits past n in the last word are cleared.
// Decoders build a vector this way without a byte round trip.
func FromWords(n int, words []uint64) (*Vector, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitvec: negative length %d", n)
	}
	if len(words) != wordsFor(n) {
		return nil, fmt.Errorf("bitvec: %d words for length %d, need exactly %d", len(words), n, wordsFor(n))
	}
	v := &Vector{n: n, words: words}
	v.maskTail()
	invariant.TailZero(v.words, v.n)
	return v, nil
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// tailMask returns the mask of valid bits in the last word, or ^0 when the
// length is a multiple of 64 (or zero).
func (v *Vector) tailMask() uint64 {
	if r := v.n % wordBits; r != 0 {
		return (uint64(1) << uint(r)) - 1
	}
	return ^uint64(0)
}

func (v *Vector) maskTail() {
	if len(v.words) > 0 {
		v.words[len(v.words)-1] &= v.tailMask()
	}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the backing words for read-only word-at-a-time access
// (used by the storage layer). Callers must not mutate the slice.
func (v *Vector) Words() []uint64 { return v.words }

// Get reports whether bit i is set. It panics if i is out of range.
//
//bix:hotpath
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(uint64(1)<<uint(i%wordBits)) != 0
}

// Set sets bit i to 1. It panics if i is out of range.
//
//bix:hotpath
//bix:maskok (check bounds i < n, so the set bit is always a valid bit)
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= uint64(1) << uint(i%wordBits)
}

// Clear sets bit i to 0. It panics if i is out of range.
//
//bix:hotpath
//bix:maskok (clearing bits cannot set tail bits)
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= uint64(1) << uint(i%wordBits)
}

// SetBool sets bit i to b.
func (v *Vector) SetBool(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// SetAll sets every bit to 1.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.maskTail()
	invariant.TailZero(v.words, v.n)
}

// ClearAll sets every bit to 0.
//
//bix:maskok (all-zero words trivially satisfy the tail invariant)
func (v *Vector) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Clone returns a deep copy of v.
//
//bix:maskok (copies from a vector that already holds the invariant)
func (v *Vector) Clone() *Vector {
	w := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of u. The lengths must match.
//
//bix:maskok (copies from a same-length vector that already holds the invariant)
func (v *Vector) CopyFrom(u *Vector) {
	v.mustMatch(u)
	copy(v.words, u.words)
}

func (v *Vector) mustMatch(u *Vector) {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, u.n))
	}
}

// And sets v = v AND u. The lengths must match.
//
//bix:hotpath
//bix:maskok (AND can only clear bits; the tail stays zero)
func (v *Vector) And(u *Vector) {
	v.mustMatch(u)
	v.AndRange(u, 0, len(v.words))
}

// Or sets v = v OR u. The lengths must match.
//
//bix:hotpath
//bix:maskok (u holds the invariant, so its tail contributes no bits)
func (v *Vector) Or(u *Vector) {
	v.mustMatch(u)
	v.OrRange(u, 0, len(v.words))
	invariant.TailZero(v.words, v.n)
}

// Xor sets v = v XOR u. The lengths must match.
//
//bix:hotpath
//bix:maskok (u holds the invariant, so its tail contributes no bits)
func (v *Vector) Xor(u *Vector) {
	v.mustMatch(u)
	v.XorRange(u, 0, len(v.words))
	invariant.TailZero(v.words, v.n)
}

// AndNot sets v = v AND (NOT u). The lengths must match.
//
//bix:hotpath
//bix:maskok (AND-NOT can only clear bits; the tail stays zero)
func (v *Vector) AndNot(u *Vector) {
	v.mustMatch(u)
	v.AndNotRange(u, 0, len(v.words))
}

// Not complements every bit of v in place.
//
//bix:hotpath
func (v *Vector) Not() {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.maskTail()
	invariant.TailZero(v.words, v.n)
}

// Count returns the number of set bits.
//
//bix:hotpath
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
//
//bix:hotpath
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (v *Vector) None() bool { return !v.Any() }

// All reports whether every bit is set.
func (v *Vector) All() bool {
	if v.n == 0 {
		return true
	}
	last := len(v.words) - 1
	for i := 0; i < last; i++ {
		if v.words[i] != ^uint64(0) {
			return false
		}
	}
	return v.words[last] == v.tailMask()
}

// Equal reports whether v and u have identical length and contents.
//
//bix:hotpath
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i, w := range v.words {
		if w != u.words[i] {
			return false
		}
	}
	return true
}

// Ones calls fn for each set bit position in ascending order. It stops early
// if fn returns false.
//
//bix:hotpath
func (v *Vector) Ones(fn func(i int) bool) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// OnesSlice returns the positions of all set bits in ascending order.
func (v *Vector) OnesSlice() []int {
	out := make([]int, 0, v.Count())
	v.Ones(func(i int) bool { out = append(out, i); return true })
	return out
}

// NextOne returns the position of the first set bit at or after i, or -1 if
// there is none.
//
//bix:hotpath
func (v *Vector) NextOne(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// String renders the vector as a bit string, bit 0 first, e.g. "10110".
// Intended for tests and small examples.
func (v *Vector) String() string {
	buf := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// SizeBytes returns the serialized payload size in bytes (excluding the
// length header), i.e. ceil(n/8).
func (v *Vector) SizeBytes() int { return (v.n + 7) / 8 }

// MarshalBinary serializes the vector as an 8-byte little-endian length
// followed by ceil(n/8) payload bytes.
func (v *Vector) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8+v.SizeBytes())
	binary.LittleEndian.PutUint64(out, uint64(v.n))
	copy(out[8:], v.PayloadBytes())
	return out, nil
}

// PayloadBytes returns just the bit payload, ceil(n/8) bytes, little-endian
// within each word (bit i of the vector is bit i%8 of byte i/8).
func (v *Vector) PayloadBytes() []byte {
	nb := v.SizeBytes()
	out := make([]byte, nb)
	full := nb / 8
	for i := 0; i < full; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], v.words[i])
	}
	for i := 8 * full; i < nb; i++ {
		out[i] = byte(v.words[full] >> uint(8*(i%8)))
	}
	return out
}

// UnmarshalBinary restores a vector serialized by MarshalBinary.
func (v *Vector) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bitvec: truncated header (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(int(^uint(0)>>1)) {
		return fmt.Errorf("bitvec: length %d overflows int", n)
	}
	if err := v.SetPayload(int(n), data[8:]); err != nil {
		return err
	}
	return nil
}

// SetPayload overwrites v with an n-bit vector decoded from the given
// payload bytes (the PayloadBytes format). The payload must be exactly
// ceil(n/8) bytes: trailing garbage would make the "canonical round trip"
// property ambiguous, so oversized payloads are rejected rather than
// silently truncated. (Stray bits past n within the final byte are still
// masked off, as PayloadBytes itself produces them for lengths that are
// not a multiple of 8.)
func (v *Vector) SetPayload(n int, payload []byte) error {
	nb := (n + 7) / 8
	if len(payload) != nb {
		return fmt.Errorf("bitvec: payload size mismatch: have %d bytes, need exactly %d", len(payload), nb)
	}
	v.n = n
	v.words = make([]uint64, wordsFor(n))
	full := nb / 8
	for i := 0; i < full; i++ {
		v.words[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	for i := 8 * full; i < nb; i++ {
		v.words[full] |= uint64(payload[i]) << uint(8*(i%8))
	}
	v.maskTail()
	invariant.TailZero(v.words, v.n)
	return nil
}

// AndCount returns the number of bits set in (a AND b) without
// materializing the intersection. The lengths must match.
//
//bix:hotpath
func AndCount(a, b *Vector) int {
	a.mustMatch(b)
	x, y := a.words, b.words[:len(a.words)]
	c := 0
	for i := range x {
		c += bits.OnesCount64(x[i] & y[i])
	}
	return c
}

// AndNotCount returns the number of bits set in (a AND NOT b).
//
//bix:hotpath
func AndNotCount(a, b *Vector) int {
	a.mustMatch(b)
	x, y := a.words, b.words[:len(a.words)]
	c := 0
	for i := range x {
		c += bits.OnesCount64(x[i] &^ y[i])
	}
	return c
}

// OrCount returns the number of bits set in (a OR b).
//
//bix:hotpath
func OrCount(a, b *Vector) int {
	a.mustMatch(b)
	x, y := a.words, b.words[:len(a.words)]
	c := 0
	for i := range x {
		c += bits.OnesCount64(x[i] | y[i])
	}
	return c
}
