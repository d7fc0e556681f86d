package roaring

import (
	"bytes"
	"encoding/binary"
	"testing"

	"bitmapindex/internal/bitvec"
)

// vecFromBytes builds an n-bit dense vector from a raw payload, zero
// padding or truncating as needed (and masking the tail).
func vecFromBytes(n int, p []byte) *bitvec.Vector {
	need := (n + 7) / 8
	buf := make([]byte, need)
	copy(buf, p)
	if n%8 != 0 && need > 0 {
		buf[need-1] &= byte(1<<(n%8)) - 1
	}
	v := bitvec.New(n)
	if err := v.SetPayload(n, buf); err != nil {
		panic(err)
	}
	return v
}

// FuzzOpsVsDense differentially checks every roaring operation and Count
// against the dense bitvec kernel on arbitrary bit patterns. Seeds pin
// the chunk boundaries (k*2^16 ± 1) and container-transition densities.
func FuzzOpsVsDense(f *testing.F) {
	f.Add(uint32(0), []byte{}, []byte{})
	f.Add(uint32(1), []byte{1}, []byte{0})
	f.Add(uint32(63), bytes.Repeat([]byte{0xff}, 8), bytes.Repeat([]byte{0x55}, 8))
	f.Add(uint32(64), bytes.Repeat([]byte{0xaa}, 8), bytes.Repeat([]byte{0xff}, 8))
	f.Add(uint32(65), bytes.Repeat([]byte{0xff}, 9), []byte{0x01})
	f.Add(uint32(chunkBits-1), bytes.Repeat([]byte{0xff}, chunkBits/8), bytes.Repeat([]byte{0x0f}, 16))
	f.Add(uint32(chunkBits), bytes.Repeat([]byte{0xf0}, chunkBits/8), []byte{})
	f.Add(uint32(chunkBits+1), []byte{0x80}, bytes.Repeat([]byte{0xff}, chunkBits/8+1))
	f.Add(uint32(2*chunkBits+1), bytes.Repeat([]byte{0x01, 0x00}, chunkBits/8), bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, n32 uint32, pa, pb []byte) {
		n := int(n32 % (3*chunkBits + 2))
		va, vb := vecFromBytes(n, pa), vecFromBytes(n, pb)
		ra, rb := FromVector(va), FromVector(vb)
		if ra.Count() != va.Count() || rb.Count() != vb.Count() {
			t.Fatalf("Count mismatch: roaring %d/%d dense %d/%d", ra.Count(), rb.Count(), va.Count(), vb.Count())
		}
		check := func(name string, got *Bitmap, want *bitvec.Vector) {
			if got.Count() != want.Count() {
				t.Fatalf("%s: Count %d want %d", name, got.Count(), want.Count())
			}
			if !got.ToVector().Equal(want) {
				t.Fatalf("%s: bits differ", name)
			}
			if !got.Equal(FromVector(want)) {
				t.Fatalf("%s: result not canonical", name)
			}
			p, err := got.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			var back Bitmap
			if err := back.UnmarshalBinary(p); err != nil {
				t.Fatalf("%s: unmarshal own serialization: %v", name, err)
			}
			if !back.Equal(got) {
				t.Fatalf("%s: serialization round trip differs", name)
			}
		}
		and := va.Clone()
		and.And(vb)
		check("and", ra.And(rb), and)
		or := va.Clone()
		or.Or(vb)
		check("or", ra.Or(rb), or)
		xor := va.Clone()
		xor.Xor(vb)
		check("xor", ra.Xor(rb), xor)
		andnot := va.Clone()
		andnot.AndNot(vb)
		check("andnot", ra.AndNot(rb), andnot)
	})
}

// FuzzUnmarshal feeds arbitrary bytes to UnmarshalBinary: it must either
// reject them or produce a bitmap whose re-serialization is canonical and
// whose Count matches its expansion.
func FuzzUnmarshal(f *testing.F) {
	for _, n := range []int{0, 1, 65, chunkBits, 2*chunkBits + 1} {
		b := FromVector(mkVec(n, func(i int) bool { return i%3 == 0 }))
		p, _ := b.MarshalBinary()
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var b Bitmap
		if err := b.UnmarshalBinary(p); err != nil {
			return
		}
		// Expanding to a dense vector is only feasible for modest lengths;
		// a huge-but-valid sparse bitmap is checked structurally instead.
		if b.Len() <= 1<<24 {
			if got, want := b.Count(), b.ToVector().Count(); got != want {
				t.Fatalf("accepted payload with Count %d but %d set bits", got, want)
			}
		}
		p2, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(p, p2) {
			t.Fatalf("accepted non-canonical serialization")
		}
	})
}

// FuzzDecodeVector differentially checks the dense decoder against
// UnmarshalBinary: on arbitrary bytes both accept or both reject, and an
// accepted payload decodes to ToVector's bits. The decoder writes into a
// reused buffer that still holds stale bits, as a pooled buffer does, so a
// word it fails to write shows. Headers declaring more than 2^24 bits are
// skipped, since the buffer holds the whole length.
func FuzzDecodeVector(f *testing.F) {
	f.Add([]byte{})
	for _, n := range []int{0, 1, 65, chunkBits, 2*chunkBits + 1} {
		b := FromVector(mkVec(n, func(i int) bool { return i%3 == 0 }))
		p, _ := b.MarshalBinary()
		f.Add(p)
	}
	// One container of each kind, then a tail chunk holding a single bit:
	// once at the last valid position, once just past the length.
	kinds, _ := FromVector(mkVec(3*chunkBits, func(i int) bool {
		switch i / chunkBits {
		case 0:
			return i%1000 == 0
		case 1:
			return i%3 != 0
		default:
			return (i%chunkBits)/8192%2 == 0
		}
	})).MarshalBinary()
	f.Add(kinds)
	n := 2*chunkBits + 1
	tail, _ := FromVector(mkVec(n, func(i int) bool { return i == n-1 })).MarshalBinary()
	f.Add(tail)
	stray := append([]byte(nil), tail...)
	stray[len(stray)-2] = 1 // the array entry: bit 1 of a 1-bit tail chunk
	f.Add(stray)
	f.Fuzz(func(t *testing.T, p []byte) {
		nbits := 0
		if len(p) >= 8 {
			n := binary.LittleEndian.Uint64(p)
			if n > 1<<24 {
				return
			}
			nbits = int(n)
		}
		var b Bitmap
		uerr := b.UnmarshalBinary(p)
		words := make([]uint64, (nbits+63)/64)
		for _, stale := range []uint64{^uint64(0), 0x5555555555555555} {
			for i := range words {
				words[i] = stale
			}
			derr := DecodeWords(p, words)
			if (uerr == nil) != (derr == nil) {
				t.Fatalf("UnmarshalBinary error %v, DecodeWords error %v", uerr, derr)
			}
			if uerr != nil {
				return
			}
			v, err := bitvec.FromWords(nbits, words)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Equal(b.ToVector()) {
				t.Fatalf("DecodeWords over stale words %#x differs from ToVector", stale)
			}
			if v.Count() != b.Count() {
				t.Fatalf("DecodeWords Count %d, bitmap Count %d", v.Count(), b.Count())
			}
		}
	})
}
