// Package wah implements word-aligned hybrid (WAH-style) run-length
// compression for bitmaps, the bitmap-specific alternative to the paper's
// general-purpose zlib compression. It is included as an extension /
// ablation: unlike zlib, WAH supports logical operations directly on the
// compressed form, trading some compression ratio for the elimination of
// the decompression step that dominates the paper's cCS timing results
// (Figure 16(a)).
//
// Encoding: a bitmap is split into 63-bit groups. Each compressed 64-bit
// word is either a literal (MSB 0, low 63 bits of payload) or a fill
// (MSB 1; bit 62 the fill bit; low 62 bits the number of consecutive
// all-zero or all-one groups). A trailing partial group is always stored
// as a literal, zero-padded.
package wah

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"bitmapindex/internal/bitvec"
)

const (
	groupBits = 63
	fillFlag  = uint64(1) << 63
	fillOne   = uint64(1) << 62
	countMask = fillOne - 1
	groupMask = (uint64(1) << groupBits) - 1
)

// Bitmap is a WAH-compressed bitmap of a fixed logical length.
type Bitmap struct {
	words []uint64
	nbits int
}

// Len returns the logical length in bits.
func (b *Bitmap) Len() int { return b.nbits }

// SizeBytes returns the compressed size in bytes (excluding the length
// header).
func (b *Bitmap) SizeBytes() int { return 8 * len(b.words) }

func (b *Bitmap) groups() int { return (b.nbits + groupBits - 1) / groupBits }

// group extracts the g-th 63-bit group from a plain vector's words.
//
//bix:hotpath
func group(words []uint64, nbits, g int) uint64 {
	lo := g * groupBits
	wi, off := lo/64, uint(lo%64)
	v := words[wi] >> off
	if off > 64-groupBits && wi+1 < len(words) {
		v |= words[wi+1] << (64 - off)
	}
	return v & groupMask
}

// appendGroup appends one group to the compressed stream, merging fills.
// tail marks the final partial group, which must stay literal.
func appendGroup(dst []uint64, g uint64, tail bool) []uint64 {
	var fill uint64
	switch {
	case tail || (g != 0 && g != groupMask):
		return append(dst, g)
	case g == 0:
		fill = fillFlag
	default:
		fill = fillFlag | fillOne
	}
	if n := len(dst); n > 0 && dst[n-1]&^countMask == fill && dst[n-1]&countMask < countMask {
		dst[n-1]++
		return dst
	}
	return append(dst, fill|1)
}

// Compress encodes a plain bit vector.
func Compress(v *bitvec.Vector) *Bitmap {
	b := &Bitmap{nbits: v.Len()}
	ng := b.groups()
	words := v.Words()
	for g := 0; g < ng; g++ {
		b.words = appendGroup(b.words, group(words, v.Len(), g), g == ng-1 && v.Len()%groupBits != 0)
	}
	return b
}

// reader streams the groups of a compressed bitmap.
type reader struct {
	words []uint64
	pos   int
	// pending fill state
	fillLeft uint64
	fillVal  uint64
}

//bix:hotpath
func (r *reader) next() uint64 {
	if r.fillLeft > 0 {
		r.fillLeft--
		return r.fillVal
	}
	w := r.words[r.pos]
	r.pos++
	if w&fillFlag == 0 {
		return w
	}
	r.fillVal = 0
	if w&fillOne != 0 {
		r.fillVal = groupMask
	}
	r.fillLeft = w&countMask - 1
	return r.fillVal
}

// Decompress expands the bitmap to a plain vector.
func (b *Bitmap) Decompress() *bitvec.Vector {
	words := make([]uint64, (b.nbits+63)/64)
	r := reader{words: b.words}
	ng := b.groups()
	for g := 0; g < ng; g++ {
		gw := r.next()
		lo := g * groupBits
		wi, off := lo/64, uint(lo%64)
		words[wi] |= gw << off
		if off > 64-groupBits && wi+1 < len(words) {
			words[wi+1] |= gw >> (64 - off)
		}
	}
	// The vector adopts the words; FromWords masks the padded tail group.
	v, err := bitvec.FromWords(b.nbits, words)
	if err != nil {
		panic("wah: internal: " + err.Error())
	}
	return v
}

// binop merges two compressed bitmaps group-wise.
func binop(a, b *Bitmap, f func(x, y uint64) uint64) *Bitmap {
	if a.nbits != b.nbits {
		panic(fmt.Sprintf("wah: length mismatch %d vs %d", a.nbits, b.nbits))
	}
	out := &Bitmap{nbits: a.nbits}
	ra, rb := reader{words: a.words}, reader{words: b.words}
	ng := a.groups()
	tail := a.nbits%groupBits != 0
	for g := 0; g < ng; g++ {
		out.words = appendGroup(out.words, f(ra.next(), rb.next())&groupMask, tail && g == ng-1)
	}
	return out
}

// And returns a AND b on the compressed form.
func And(a, b *Bitmap) *Bitmap { return binop(a, b, func(x, y uint64) uint64 { return x & y }) }

// Or returns a OR b on the compressed form.
func Or(a, b *Bitmap) *Bitmap { return binop(a, b, func(x, y uint64) uint64 { return x | y }) }

// Xor returns a XOR b on the compressed form.
func Xor(a, b *Bitmap) *Bitmap { return binop(a, b, func(x, y uint64) uint64 { return x ^ y }) }

// AndNot returns a AND NOT b on the compressed form.
func AndNot(a, b *Bitmap) *Bitmap { return binop(a, b, func(x, y uint64) uint64 { return x &^ y }) }

// Not returns the complement on the compressed form, masking the trailing
// partial group.
func (b *Bitmap) Not() *Bitmap {
	out := &Bitmap{nbits: b.nbits}
	r := reader{words: b.words}
	ng := b.groups()
	for g := 0; g < ng; g++ {
		gw := ^r.next() & groupMask
		last := g == ng-1
		if rem := b.nbits % groupBits; last && rem != 0 {
			gw &= (uint64(1) << uint(rem)) - 1
			out.words = appendGroup(out.words, gw, true)
			continue
		}
		out.words = appendGroup(out.words, gw, false)
	}
	return out
}

// Count returns the number of set bits without decompressing.
//
//bix:hotpath
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		if w&fillFlag == 0 {
			c += bits.OnesCount64(w)
		} else if w&fillOne != 0 {
			c += groupBits * int(w&countMask)
		}
	}
	return c
}

// MarshalBinary serializes the compressed bitmap: an 8-byte little-endian
// bit length followed by the compressed words.
func (b *Bitmap) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8+8*len(b.words))
	binary.LittleEndian.PutUint64(out, uint64(b.nbits))
	for i, w := range b.words {
		binary.LittleEndian.PutUint64(out[8+8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary restores a bitmap serialized by MarshalBinary.
func (b *Bitmap) UnmarshalBinary(p []byte) error {
	if len(p) < 8 || (len(p)-8)%8 != 0 {
		return fmt.Errorf("wah: bad payload length %d", len(p))
	}
	n := binary.LittleEndian.Uint64(p)
	if n > uint64(int(^uint(0)>>1)) {
		return fmt.Errorf("wah: length %d overflows int", n)
	}
	b.nbits = int(n)
	b.words = make([]uint64, (len(p)-8)/8)
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(p[8+8*i:])
	}
	// Validate that the stream decodes to exactly the right group count.
	// The running total is bounds-checked per word: fill counts go up to
	// 2^62-1, so an unchecked sum wraps int64 and a crafted stream could
	// wrap it back to exactly groups(), leaving Count (which trusts every
	// fill's full count) disagreeing with Decompress (which stops after
	// groups() groups).
	got := 0
	for _, w := range b.words {
		if w&fillFlag == 0 {
			got++
		} else {
			c := int(w & countMask)
			if c == 0 {
				return fmt.Errorf("wah: zero-length fill word")
			}
			got += c
		}
		if got > b.groups() {
			return fmt.Errorf("wah: stream exceeds the %d groups the length needs", b.groups())
		}
	}
	if got != b.groups() {
		return fmt.Errorf("wah: stream has %d groups, length needs %d", got, b.groups())
	}
	// A partial tail group must not carry bits beyond the logical length,
	// or Count and Decompress would disagree. Compress always emits the
	// tail as a zero-padded literal; a zero fill is equally unambiguous.
	if rem := b.nbits % groupBits; rem != 0 && len(b.words) > 0 {
		last := b.words[len(b.words)-1]
		switch {
		case last&fillFlag == 0:
			if last&groupMask&^((uint64(1)<<uint(rem))-1) != 0 {
				return fmt.Errorf("wah: tail literal has bits beyond length %d", b.nbits)
			}
		case last&fillOne != 0:
			return fmt.Errorf("wah: tail group inside a ones fill is ambiguous")
		}
	}
	return nil
}
