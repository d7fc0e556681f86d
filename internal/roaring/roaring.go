// Package roaring implements a Roaring-style hybrid-container compressed
// bitmap (Chambi, Lemire, Kaser, Godin — "Better bitmap performance with
// Roaring bitmaps", arXiv:1402.6407), the third compression backend next
// to the dense bitvec kernel and WAH run-length coding.
//
// The row space is split into chunks of 2^16 rows keyed by the high 16
// bits of the row id. Each non-empty chunk is stored in whichever of
// three container forms is smallest for its contents:
//
//   - array: a sorted []uint16 of the set low bits (sparse chunks,
//     2 bytes per set row);
//   - bitmap: a packed 1024-word dense bitmap (8 KiB, for chunks too
//     dense for an array);
//   - run: sorted, non-overlapping, non-adjacent [start,last] intervals
//     (4 bytes per run — the form that wins on sorted/clustered data,
//     where WAH needs two 8-byte words per run boundary).
//
// All logical operations (And/Or/Xor/AndNot) and Count run directly on
// the container forms; a full-length dense vector is never materialized
// except by ToVector. Containers are kept canonical after every
// operation: empty chunks are dropped and each survivor is re-encoded in
// its minimal form, so two Bitmaps holding the same bits are structurally
// identical (Equal is a cheap structural walk).
package roaring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"bitmapindex/internal/bitvec"
)

const (
	chunkBits  = 1 << 16 // rows per chunk
	chunkWords = chunkBits / 64

	// arrayCutoff is the container cardinality at which an array (2 bytes
	// per entry) stops being smaller than the 8 KiB packed bitmap.
	arrayCutoff = 4096

	// minBitmapRuns is the fewest runs a chunk of more than arrayCutoff
	// bits can have and still be a bitmap in minimal form: with 2*card
	// above the bitmap's 8192 bytes, runWins reduces to 4*nruns < 8192.
	minBitmapRuns = 8 * chunkWords / 4

	typeArray  = uint8(0)
	typeBitmap = uint8(1)
	typeRun    = uint8(2)
)

// run is one inclusive interval [start, last] of set low bits.
type run struct{ start, last uint16 }

// container holds one chunk's bits in exactly one of the three forms,
// selected by typ. card caches the container's popcount; canonical
// containers always have card >= 1.
type container struct {
	typ  uint8
	card int
	arr  []uint16 // typeArray: sorted set positions
	bits []uint64 // typeBitmap: chunkWords packed words
	runs []run    // typeRun: sorted, non-overlapping, non-adjacent
}

// Bitmap is a roaring-compressed bitmap of fixed logical length. Chunks
// absent from keys are all-zero. keys is sorted ascending and parallel to
// containers.
type Bitmap struct {
	nbits      int
	keys       []uint16
	containers []container
}

// New returns an empty (all zeros) bitmap of n bits.
func New(n int) *Bitmap {
	if n < 0 {
		panic("roaring: negative length")
	}
	return &Bitmap{nbits: n}
}

// Len returns the logical length in bits.
func (b *Bitmap) Len() int { return b.nbits }

// Count returns the number of set bits, from the cached container
// cardinalities — no decompression.
//
//bix:hotpath
func (b *Bitmap) Count() int {
	c := 0
	for i := range b.containers {
		c += b.containers[i].card
	}
	return c
}

// Containers returns the number of non-empty chunks.
func (b *Bitmap) Containers() int { return len(b.containers) }

// ContainerKinds returns how many containers are stored in each form
// (array, bitmap, run) — the space study and the container-transition
// tests read it.
func (b *Bitmap) ContainerKinds() (arrays, bitmaps, runs int) {
	for i := range b.containers {
		switch b.containers[i].typ {
		case typeArray:
			arrays++
		case typeBitmap:
			bitmaps++
		default:
			runs++
		}
	}
	return
}

// SizeBytes returns the compressed size in bytes: the serialized payload
// minus the fixed 12-byte header, i.e. 3 bytes of per-container directory
// (key + type) plus each container's body. Comparable to
// bitvec.Vector.SizeBytes and wah.Bitmap.SizeBytes.
func (b *Bitmap) SizeBytes() int {
	n := 0
	for i := range b.containers {
		n += 3 + b.containers[i].body()
	}
	return n
}

// body returns the serialized body size of one container in bytes
// (excluding the key/type directory entry).
func (c *container) body() int {
	switch c.typ {
	case typeArray:
		return 2 + 2*len(c.arr) // uint16 count + entries
	case typeBitmap:
		return 8 * chunkWords
	default:
		return 2 + 4*len(c.runs) // uint16 count + [start,last] pairs
	}
}

// Get reports whether bit i is set. It panics if i is out of range.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.nbits {
		panic(fmt.Sprintf("roaring: index %d out of range [0,%d)", i, b.nbits))
	}
	ci, ok := b.find(uint16(i >> 16))
	if !ok {
		return false
	}
	return b.containers[ci].get(uint16(i & 0xffff))
}

// find locates the container for chunk key, by binary search.
func (b *Bitmap) find(key uint16) (int, bool) {
	lo, hi := 0, len(b.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(b.keys) && b.keys[lo] == key
}

func (c *container) get(low uint16) bool {
	switch c.typ {
	case typeArray:
		lo, hi := 0, len(c.arr)
		for lo < hi {
			mid := (lo + hi) / 2
			if c.arr[mid] < low {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(c.arr) && c.arr[lo] == low
	case typeBitmap:
		return c.bits[low>>6]&(1<<(low&63)) != 0
	default:
		for _, r := range c.runs {
			if low < r.start {
				return false
			}
			if low <= r.last {
				return true
			}
		}
		return false
	}
}

// FromVector compresses a dense vector.
func FromVector(v *bitvec.Vector) *Bitmap {
	b := New(v.Len())
	words := v.Words()
	nchunks := (v.Len() + chunkBits - 1) / chunkBits
	var cw [chunkWords]uint64
	for k := 0; k < nchunks; k++ {
		base := k * chunkWords
		card := 0
		for i := 0; i < chunkWords; i++ {
			w := uint64(0)
			if base+i < len(words) {
				w = words[base+i]
			}
			cw[i] = w
			card += bits.OnesCount64(w)
		}
		if card == 0 {
			continue
		}
		b.keys = append(b.keys, uint16(k))
		b.containers = append(b.containers, packContainer(&cw, card))
	}
	return b
}

// packContainer encodes one chunk's words in its minimal form. card must
// be the popcount of cw and must be >= 1. The form rule compares payload
// sizes (array 2*card, run 4*nruns, bitmap 8192 bytes — count headers
// excluded, as in classic roaring): run wins when strictly smallest,
// otherwise array up to arrayCutoff entries, otherwise bitmap.
func packContainer(cw *[chunkWords]uint64, card int) container {
	nruns := countRuns(cw[:])
	if runWins(card, nruns) {
		return runsFromWords(cw, card, nruns)
	}
	if card <= arrayCutoff {
		return arrayFromWords(cw, card)
	}
	c := container{typ: typeBitmap, card: card, bits: make([]uint64, chunkWords)}
	copy(c.bits, cw[:])
	return c
}

// runWins reports whether a run container is strictly smaller than both
// the array and bitmap forms for the given cardinality and run count.
func runWins(card, nruns int) bool {
	runB, bmB := 4*nruns, 8*chunkWords
	return runB < 2*card && runB < bmB
}

// countRuns returns the number of maximal runs of consecutive set bits in
// a chunk's words; a partial tail chunk passes fewer than chunkWords.
func countRuns(cw []uint64) int { return countRunsTo(cw, math.MaxInt) }

// countRunsTo is countRuns that may stop early: once the count reaches
// stop it returns that count, some number >= stop.
//
//bix:hotpath
func countRunsTo(cw []uint64, stop int) int {
	n := 0
	prev := false // bit 63 of the previous word
	for _, w := range cw {
		// Runs starting in this word: set bits whose predecessor is clear.
		// Bit 0's predecessor is the previous word's bit 63.
		starts := w &^ (w << 1)
		if prev {
			starts &^= 1
		}
		n += bits.OnesCount64(starts)
		if n >= stop {
			return n
		}
		prev = w>>63 != 0
	}
	return n
}

func arrayFromWords(cw *[chunkWords]uint64, card int) container {
	c := container{typ: typeArray, card: card, arr: make([]uint16, 0, card)}
	for wi, w := range cw {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			c.arr = append(c.arr, uint16(wi*64+b))
			w &= w - 1
		}
	}
	return c
}

func runsFromWords(cw *[chunkWords]uint64, card, nruns int) container {
	c := container{typ: typeRun, card: card, runs: make([]run, 0, nruns)}
	pos := nextBit(cw, 0, false)
	for pos < chunkBits {
		end := nextBit(cw, pos+1, true) // first clear bit after the run start
		c.runs = append(c.runs, run{uint16(pos), uint16(end - 1)})
		pos = nextBit(cw, end, false)
	}
	return c
}

// nextBit returns the position of the first bit >= from whose value is
// clear (invert=true) or set (invert=false), or chunkBits if none.
func nextBit(cw *[chunkWords]uint64, from int, invert bool) int {
	for from < chunkBits {
		w := cw[from>>6]
		if invert {
			w = ^w
		}
		w >>= uint(from & 63)
		if w != 0 {
			return from + bits.TrailingZeros64(w)
		}
		from = (from | 63) + 1
	}
	return chunkBits
}

// ToVector expands the bitmap to a dense vector of the same length. The
// bits are staged in a local word buffer that the vector then adopts —
// Words() is read-only outside package bitvec.
func (b *Bitmap) ToVector() *bitvec.Vector {
	words := make([]uint64, (b.nbits+63)/64)
	for i := range b.containers {
		base := int(b.keys[i]) * chunkWords
		b.containers[i].writeWords(words[base:min(base+chunkWords, len(words))])
	}
	v, err := bitvec.FromWords(b.nbits, words)
	if err != nil {
		panic("roaring: internal: " + err.Error())
	}
	return v
}

// writeWords ORs the container's bits into dst, which holds the chunk's
// words (possibly truncated at the vector tail).
//
//bix:maskok (containers never hold bits past the logical length; see canonical invariant)
func (c *container) writeWords(dst []uint64) {
	switch c.typ {
	case typeArray:
		for _, p := range c.arr {
			dst[p>>6] |= 1 << (p & 63)
		}
	case typeBitmap:
		copy(dst, c.bits[:len(dst)])
	default:
		for _, r := range c.runs {
			setWordRange(dst, int(r.start), int(r.last))
		}
	}
}

// setWordRange sets bits [start, last] (inclusive) in a word slice.
func setWordRange(dst []uint64, start, last int) {
	sw, lw := start>>6, last>>6
	first := ^uint64(0) << uint(start&63)
	lastM := ^uint64(0) >> uint(63-last&63)
	if sw == lw {
		dst[sw] |= first & lastM
		return
	}
	dst[sw] |= first
	for w := sw + 1; w < lw; w++ {
		dst[w] = ^uint64(0)
	}
	dst[lw] |= lastM
}

// Equal reports whether two bitmaps have identical length and contents.
// Canonical form makes this a structural comparison.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b.nbits != o.nbits || len(b.keys) != len(o.keys) {
		return false
	}
	for i := range b.keys {
		if b.keys[i] != o.keys[i] || !b.containers[i].equal(&o.containers[i]) {
			return false
		}
	}
	return true
}

func (c *container) equal(o *container) bool {
	if c.typ != o.typ || c.card != o.card {
		return false
	}
	switch c.typ {
	case typeArray:
		for i := range c.arr {
			if c.arr[i] != o.arr[i] {
				return false
			}
		}
	case typeBitmap:
		for i := range c.bits {
			if c.bits[i] != o.bits[i] {
				return false
			}
		}
	default:
		for i := range c.runs {
			if c.runs[i] != o.runs[i] {
				return false
			}
		}
	}
	return true
}

// MarshalBinary serializes the bitmap:
//
//	8 bytes  little-endian bit length
//	4 bytes  little-endian container count
//	per container: 2-byte key, 1-byte type, body
//	  array:  2-byte count, count 2-byte entries
//	  bitmap: 1024 8-byte words
//	  run:    2-byte count, count (2-byte start, 2-byte last) pairs
func (b *Bitmap) MarshalBinary() ([]byte, error) {
	out := make([]byte, 12, 12+b.SizeBytes())
	binary.LittleEndian.PutUint64(out, uint64(b.nbits))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(b.containers)))
	var u16 [2]byte
	put16 := func(v uint16) {
		binary.LittleEndian.PutUint16(u16[:], v)
		out = append(out, u16[0], u16[1])
	}
	for i := range b.containers {
		c := &b.containers[i]
		put16(b.keys[i])
		out = append(out, c.typ)
		switch c.typ {
		case typeArray:
			put16(uint16(len(c.arr)))
			for _, p := range c.arr {
				put16(p)
			}
		case typeBitmap:
			var w8 [8]byte
			for _, w := range c.bits {
				binary.LittleEndian.PutUint64(w8[:], w)
				out = append(out, w8[:]...)
			}
		default:
			put16(uint16(len(c.runs)))
			for _, r := range c.runs {
				put16(r.start)
				put16(r.last)
			}
		}
	}
	return out, nil
}

// UnmarshalBinary restores a bitmap serialized by MarshalBinary,
// validating the canonical-form invariants so a corrupted or adversarial
// payload is rejected rather than producing a bitmap whose Count,
// operations and ToVector disagree.
func (b *Bitmap) UnmarshalBinary(p []byte) error {
	nb, err := parse(p, nil)
	if err != nil {
		return err
	}
	*b = nb
	return nil
}

// DecodeWords decodes a MarshalBinary payload straight into dense words,
// without building containers. It accepts exactly the payloads
// UnmarshalBinary accepts, and words then hold that bitmap's ToVector
// words. words must hold exactly ceil(n/64) words for the n bits the
// header declares, so a caller reads and bounds that length first; their
// previous contents do not matter: every word is overwritten.
func DecodeWords(p []byte, words []uint64) error {
	_, err := parse(p, words)
	return err
}

var errTruncated = errors.New("truncated payload")

// parse is the one validating reader of the MarshalBinary format. With
// dense nil it rebuilds the container list; otherwise it writes each
// container's bits into dense, which must hold the payload's length in
// words, clearing the words no container sets, and returns a Bitmap
// carrying only the length. Both modes enforce the same invariants:
// ascending keys inside the length, per-form cardinality bounds, sorted
// disjoint entries, no bits past the length, and the minimal form for
// every container.
func parse(p []byte, dense []uint64) (Bitmap, error) {
	if len(p) < 12 {
		return Bitmap{}, fmt.Errorf("roaring: truncated header (%d bytes)", len(p))
	}
	n64 := binary.LittleEndian.Uint64(p)
	if n64 > uint64(int(^uint(0)>>1)) {
		return Bitmap{}, fmt.Errorf("roaring: length %d overflows int", n64)
	}
	nbits := int(n64)
	nc := int(binary.LittleEndian.Uint32(p[8:]))
	maxChunks := (nbits + chunkBits - 1) / chunkBits
	if nc > maxChunks {
		return Bitmap{}, fmt.Errorf("roaring: %d containers exceed %d chunks for length %d", nc, maxChunks, nbits)
	}
	b := Bitmap{nbits: nbits}
	if dense != nil && len(dense) != (nbits+63)/64 {
		return Bitmap{}, fmt.Errorf("roaring: %d words for length %d, need exactly %d", len(dense), nbits, (nbits+63)/64)
	}
	// dense[:cleared] is defined: set by a container or cleared.
	cleared := 0
	pos := 12
	prevKey := -1
	for i := 0; i < nc; i++ {
		if len(p)-pos < 3 {
			return Bitmap{}, fmt.Errorf("roaring: truncated payload at byte %d", pos)
		}
		key := binary.LittleEndian.Uint16(p[pos:])
		typ := p[pos+2]
		pos += 3
		if int(key) <= prevKey {
			return Bitmap{}, fmt.Errorf("roaring: container keys not strictly ascending at %d", key)
		}
		if int(key) >= maxChunks {
			return Bitmap{}, fmt.Errorf("roaring: container key %d outside length %d", key, nbits)
		}
		prevKey = int(key)
		// limit is the chunk's length in bits: shorter only for a partial
		// tail chunk, whose container must not reach past the length.
		limit := chunkBits
		if rem := nbits & (chunkBits - 1); int(key) == maxChunks-1 && rem != 0 {
			limit = rem
		}
		var win []uint64
		if dense != nil {
			base := int(key) * chunkWords
			win = dense[base:min(base+chunkWords, len(dense))]
			clear(dense[cleared:base])
			if typ != typeBitmap { // a bitmap container writes its whole window
				clear(win)
			}
			cleared = base + len(win)
		}
		c, used, err := parseContainer(p[pos:], typ, limit, win)
		if errors.Is(err, errTruncated) {
			return Bitmap{}, fmt.Errorf("roaring: truncated payload at byte %d", pos)
		}
		if err != nil {
			return Bitmap{}, fmt.Errorf("roaring: container %d: %w", key, err)
		}
		pos += used
		if dense == nil {
			b.keys = append(b.keys, key)
			b.containers = append(b.containers, c)
		}
	}
	if pos != len(p) {
		return Bitmap{}, fmt.Errorf("roaring: %d trailing bytes", len(p)-pos)
	}
	clear(dense[cleared:])
	return b, nil
}

// parseContainer validates one container body of form typ at the start of
// p and returns it with the number of bytes it occupies. No bit may lie at
// or past limit. A nil win asks for the container's own storage; a
// non-nil win (the chunk's words in a dense vector, truncated at the
// vector's end, and zeroed unless the form is a bitmap, which writes every
// word) receives the bits instead, and the returned container carries only
// its form and cardinality.
func parseContainer(p []byte, typ uint8, limit int, win []uint64) (container, int, error) {
	c := container{typ: typ}
	var n, nruns int
	last := -1 // highest set bit so far
	switch typ {
	case typeArray:
		if len(p) < 2 {
			return c, 0, errTruncated
		}
		cnt := int(binary.LittleEndian.Uint16(p))
		if cnt == 0 || cnt > arrayCutoff {
			return c, 0, fmt.Errorf("array cardinality %d out of (0,%d]", cnt, arrayCutoff)
		}
		if n = 2 + 2*cnt; len(p) < n {
			return c, 0, errTruncated
		}
		if win == nil {
			c.arr = make([]uint16, cnt)
		}
		for j := 0; j < cnt; j++ {
			x := int(binary.LittleEndian.Uint16(p[2+2*j:]))
			if x <= last {
				return c, 0, errors.New("array not strictly ascending")
			}
			if x >= limit {
				return c, 0, fmt.Errorf("bit %d past the length", x)
			}
			if x != last+1 || j == 0 {
				nruns++
			}
			last = x
			if win == nil {
				c.arr[j] = uint16(x)
			} else {
				win[x>>6] |= 1 << (x & 63)
			}
		}
		c.card = cnt
	case typeBitmap:
		if n = 8 * chunkWords; len(p) < n {
			return c, 0, errTruncated
		}
		if win == nil {
			c.bits = make([]uint64, chunkWords)
			win = c.bits
		}
		// The first keep words may hold bits below limit and are copied;
		// the rest, and the last kept word's bits from limit on, must be
		// zero. For a dense window, keep is exactly its length.
		keep := (limit + 63) / 64
		dst, src := win[:keep], p[:8*keep]
		for j := range dst {
			w := binary.LittleEndian.Uint64(src[8*j:])
			dst[j] = w
			c.card += bits.OnesCount64(w)
		}
		for j := keep; j < chunkWords; j++ {
			if binary.LittleEndian.Uint64(p[8*j:]) != 0 {
				return c, 0, fmt.Errorf("bits in word %d past the length", j)
			}
		}
		if r := limit & 63; r != 0 && dst[keep-1]>>r != 0 {
			return c, 0, fmt.Errorf("bits in word %d past the length", keep-1)
		}
		// Over arrayCutoff bits the form is minimal iff there are at least
		// minBitmapRuns runs, so the count stops there. A smaller bitmap is
		// never minimal; its runs are counted in full for the error.
		stop := math.MaxInt
		if c.card > arrayCutoff {
			stop = minBitmapRuns
		}
		nruns = countRunsTo(dst, stop)
	case typeRun:
		if len(p) < 2 {
			return c, 0, errTruncated
		}
		cnt := int(binary.LittleEndian.Uint16(p))
		if cnt == 0 {
			return c, 0, errors.New("empty run container")
		}
		if n = 2 + 4*cnt; len(p) < n {
			return c, 0, errTruncated
		}
		if win == nil {
			c.runs = make([]run, cnt)
		}
		for j := 0; j < cnt; j++ {
			r := run{binary.LittleEndian.Uint16(p[2+4*j:]), binary.LittleEndian.Uint16(p[4+4*j:])}
			if r.last < r.start {
				return c, 0, fmt.Errorf("inverted run [%d,%d]", r.start, r.last)
			}
			if j > 0 && int(r.start) <= last+1 {
				return c, 0, errors.New("runs overlap or touch")
			}
			if int(r.last) >= limit {
				return c, 0, fmt.Errorf("bit %d past the length", r.last)
			}
			last = int(r.last)
			c.card += int(r.last) - int(r.start) + 1
			if win == nil {
				c.runs[j] = r
			} else {
				setWordRange(win, int(r.start), int(r.last))
			}
		}
		nruns = cnt
	default:
		return c, 0, fmt.Errorf("unknown container type %d", typ)
	}
	// The minimal form keeps Count, operations and serialization agreeing.
	if !canonical(typ, c.card, nruns) {
		return c, 0, fmt.Errorf("%d bits in %d runs not in minimal form", c.card, nruns)
	}
	return c, n, nil
}

// canonical reports whether typ is the form packContainer picks for a
// chunk of card set bits in nruns maximal runs.
func canonical(typ uint8, card, nruns int) bool {
	switch {
	case runWins(card, nruns):
		return typ == typeRun
	case card <= arrayCutoff:
		return typ == typeArray
	default:
		return typ == typeBitmap
	}
}
