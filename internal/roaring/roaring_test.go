package roaring

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"bitmapindex/internal/bitvec"
)

// mkVec builds a dense vector of n bits with bits set by fill.
func mkVec(n int, fill func(i int) bool) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if fill(i) {
			v.Set(i)
		}
	}
	return v
}

// boundaryLengths exercises k*2^16 ± 1 plus small and tail-odd sizes.
var boundaryLengths = []int{
	0, 1, 63, 64, 65, 100, 4095, 4096, 4097,
	chunkBits - 1, chunkBits, chunkBits + 1,
	2*chunkBits - 1, 2 * chunkBits, 2*chunkBits + 1,
	3*chunkBits + 17,
}

// fills covers the container transitions: empty and full chunks, sparse
// (array), dense-random (bitmap), clustered (run), and mixtures that put
// different container types in adjacent chunks.
var fills = []struct {
	name string
	fn   func(rng *rand.Rand) func(i int) bool
}{
	{"empty", func(*rand.Rand) func(int) bool { return func(int) bool { return false } }},
	{"full", func(*rand.Rand) func(int) bool { return func(int) bool { return true } }},
	{"sparse", func(rng *rand.Rand) func(int) bool {
		return func(int) bool { return rng.Intn(1000) == 0 }
	}},
	{"dense", func(rng *rand.Rand) func(int) bool {
		return func(int) bool { return rng.Intn(4) != 0 }
	}},
	{"half", func(rng *rand.Rand) func(int) bool {
		return func(int) bool { return rng.Intn(2) == 0 }
	}},
	{"runs", func(*rand.Rand) func(int) bool {
		return func(i int) bool { return (i/777)%2 == 0 }
	}},
	{"longruns", func(*rand.Rand) func(int) bool {
		return func(i int) bool { return (i/20000)%2 == 0 }
	}},
	{"mixed", func(rng *rand.Rand) func(int) bool {
		// Chunk 0 sparse, chunk 1 dense, chunk 2 runs, repeat.
		return func(i int) bool {
			switch (i / chunkBits) % 3 {
			case 0:
				return rng.Intn(500) == 0
			case 1:
				return rng.Intn(3) != 0
			default:
				return (i/999)%2 == 1
			}
		}
	}},
	{"edgebits", func(*rand.Rand) func(int) bool {
		// Only bits at chunk and word boundaries.
		return func(i int) bool {
			m := i % chunkBits
			return m == 0 || m == 63 || m == 64 || m == chunkBits-1
		}
	}},
}

func TestRoundTripVector(t *testing.T) {
	for _, n := range boundaryLengths {
		for _, f := range fills {
			rng := rand.New(rand.NewSource(int64(n)))
			v := mkVec(n, f.fn(rng))
			b := FromVector(v)
			if b.Len() != n {
				t.Fatalf("%s/%d: Len=%d", f.name, n, b.Len())
			}
			if got, want := b.Count(), v.Count(); got != want {
				t.Fatalf("%s/%d: Count=%d want %d", f.name, n, got, want)
			}
			back := b.ToVector()
			if !back.Equal(v) {
				t.Fatalf("%s/%d: ToVector(FromVector(v)) != v", f.name, n)
			}
			// Spot-check Get against the dense vector.
			for i := 0; i < n; i += 1 + n/97 {
				if b.Get(i) != v.Get(i) {
					t.Fatalf("%s/%d: Get(%d)=%v want %v", f.name, n, i, b.Get(i), v.Get(i))
				}
			}
		}
	}
}

func TestOpsMatchDense(t *testing.T) {
	dense := func(f func(v, u *bitvec.Vector)) func(a, b *bitvec.Vector) *bitvec.Vector {
		return func(a, b *bitvec.Vector) *bitvec.Vector {
			out := a.Clone()
			f(out, b)
			return out
		}
	}
	ops := []struct {
		name string
		r    func(a, b *Bitmap) *Bitmap
		d    func(a, b *bitvec.Vector) *bitvec.Vector
	}{
		{"and", (*Bitmap).And, dense((*bitvec.Vector).And)},
		{"or", (*Bitmap).Or, dense((*bitvec.Vector).Or)},
		{"xor", (*Bitmap).Xor, dense((*bitvec.Vector).Xor)},
		{"andnot", (*Bitmap).AndNot, dense((*bitvec.Vector).AndNot)},
	}
	for _, n := range boundaryLengths {
		for ai, af := range fills {
			for bi, bf := range fills {
				rngA := rand.New(rand.NewSource(int64(n*31 + ai)))
				rngB := rand.New(rand.NewSource(int64(n*37 + bi)))
				va := mkVec(n, af.fn(rngA))
				vb := mkVec(n, bf.fn(rngB))
				ra, rb := FromVector(va), FromVector(vb)
				for _, op := range ops {
					got := op.r(ra, rb)
					want := op.d(va, vb)
					if got.Count() != want.Count() || !got.ToVector().Equal(want) {
						t.Fatalf("%s(%s,%s)/%d: mismatch", op.name, af.name, bf.name, n)
					}
					// The result must itself be canonical: re-compressing its
					// expansion yields a structurally identical bitmap.
					if !got.Equal(FromVector(want)) {
						t.Fatalf("%s(%s,%s)/%d: result not canonical", op.name, af.name, bf.name, n)
					}
				}
			}
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And on mismatched lengths did not panic")
		}
	}()
	New(64).And(New(65))
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, n := range boundaryLengths {
		for _, f := range fills {
			rng := rand.New(rand.NewSource(int64(n ^ 0x5a5a)))
			b := FromVector(mkVec(n, f.fn(rng)))
			p, err := b.MarshalBinary()
			if err != nil {
				t.Fatalf("%s/%d: marshal: %v", f.name, n, err)
			}
			if want := 12 + b.SizeBytes(); len(p) != want {
				t.Fatalf("%s/%d: payload %d bytes, SizeBytes says %d", f.name, n, len(p), want)
			}
			var back Bitmap
			if err := back.UnmarshalBinary(p); err != nil {
				t.Fatalf("%s/%d: unmarshal: %v", f.name, n, err)
			}
			if !back.Equal(b) {
				t.Fatalf("%s/%d: round trip not equal", f.name, n)
			}
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := FromVector(mkVec(3*chunkBits+17, fills[7].fn(rng))) // mixed
	good, _ := b.MarshalBinary()
	cases := []struct {
		name string
		mut  func(p []byte) []byte
	}{
		{"truncated header", func(p []byte) []byte { return p[:8] }},
		{"truncated body", func(p []byte) []byte { return p[:len(p)-3] }},
		{"trailing bytes", func(p []byte) []byte { return append(p, 0) }},
		{"bad type", func(p []byte) []byte { p[14] = 9; return p }},
		{"container count too large", func(p []byte) []byte { p[8] = 0xff; p[9] = 0xff; return p }},
	}
	for _, tc := range cases {
		p := append([]byte(nil), good...)
		var nb Bitmap
		if err := nb.UnmarshalBinary(tc.mut(p)); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	// A non-canonical but otherwise well-formed payload must be rejected:
	// an array container whose contents are one long run.
	one := New(chunkBits)
	one.keys = []uint16{0}
	arr := make([]uint16, 64)
	for i := range arr {
		arr[i] = uint16(i)
	}
	one.containers = []container{{typ: typeArray, card: len(arr), arr: arr}}
	p, _ := one.MarshalBinary()
	var nb Bitmap
	if err := nb.UnmarshalBinary(p); err == nil {
		t.Fatal("accepted non-canonical array-of-one-run container")
	}
}

// TestBitmapRunCountStopsAtCrossover is a differential test of
// parseContainer's early-stopping run count against the full countRuns
// verdict, on bitmap containers at 2047, 2048 and 2049 runs and 4096 and
// 4097 set bits, in a whole chunk and in a partial tail chunk, with the
// runs at the front or at the end of the chunk, decoded both into the
// container's own words and into a dense window. Only the 4097-bit
// bitmaps with at least minBitmapRuns runs are in minimal form.
func TestBitmapRunCountStopsAtCrossover(t *testing.T) {
	for _, limit := range []int{chunkBits, 6211} {
		keep := (limit + 63) / 64
		for _, card := range []int{arrayCutoff, arrayCutoff + 1} {
			for _, nruns := range []int{minBitmapRuns - 1, minBitmapRuns, minBitmapRuns + 1} {
				for _, atEnd := range []bool{false, true} {
					// nruns runs holding card bits, one clear bit apart.
					words := make([]uint64, chunkWords)
					pos := 0
					if atEnd {
						pos = limit - (card + nruns - 1)
					}
					for r := 0; r < nruns; r++ {
						n := card / nruns
						if r < card%nruns {
							n++
						}
						for ; n > 0; n-- {
							words[pos/64] |= 1 << (pos % 64)
							pos++
						}
						pos++
					}
					if got := countRuns(words); got != nruns {
						t.Fatalf("built %d runs, want %d", got, nruns)
					}
					p := make([]byte, 8*chunkWords)
					for i, w := range words {
						binary.LittleEndian.PutUint64(p[8*i:], w)
					}
					want := canonical(typeBitmap, card, countRuns(words[:keep]))
					if want != (card > arrayCutoff && nruns >= minBitmapRuns) {
						t.Fatalf("canonical(bitmap, %d, %d) = %v", card, nruns, want)
					}
					for _, win := range [][]uint64{nil, make([]uint64, keep)} {
						_, _, err := parseContainer(p, typeBitmap, limit, win)
						if (err == nil) != want {
							t.Errorf("limit=%d card=%d runs=%d atEnd=%v dense=%v: err %v, minimal form %v",
								limit, card, nruns, atEnd, win != nil, err, want)
						}
					}
				}
			}
		}
	}
}

func TestContainerKinds(t *testing.T) {
	// One chunk of each kind: sparse -> array, dense-random -> bitmap,
	// clustered -> run.
	rng := rand.New(rand.NewSource(3))
	v := mkVec(3*chunkBits, func(i int) bool {
		switch i / chunkBits {
		case 0:
			return i%1000 == 0
		case 1:
			return rng.Intn(3) != 0
		default:
			return (i%chunkBits)/8192%2 == 0
		}
	})
	b := FromVector(v)
	a, bm, r := b.ContainerKinds()
	if a != 1 || bm != 1 || r != 1 {
		t.Fatalf("ContainerKinds = %d arrays, %d bitmaps, %d runs; want 1,1,1", a, bm, r)
	}
	if b.Containers() != 3 {
		t.Fatalf("Containers = %d, want 3", b.Containers())
	}
}

func TestSizeBytesBeatsDenseOnSparse(t *testing.T) {
	n := 1 << 20
	v := mkVec(n, func(i int) bool { return i%5000 == 0 })
	b := FromVector(v)
	if b.SizeBytes() >= v.SizeBytes() {
		t.Fatalf("sparse roaring %d bytes, dense %d", b.SizeBytes(), v.SizeBytes())
	}
}
