package storage

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/data"
)

// bitWriter assembles DEFLATE streams bit by bit, first bit lowest, for
// streams compress/flate's writer never makes.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

// bits writes the n low bits of v, lowest first (header fields, extra
// bits).
func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes an n-bit Huffman code, most significant bit first.
func (w *bitWriter) code(c uint16, n uint8) {
	w.bits(uint64(bits.Reverse16(c)>>(16-n)), uint(n))
}

// align pads with zero bits to the next byte boundary.
func (w *bitWriter) align() {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
}

// deflate returns the stream written so far, padded to a whole byte.
func (w *bitWriter) deflate() []byte {
	w.align()
	return w.buf
}

// header writes a block header.
func (w *bitWriter) header(final bool, typ uint64) {
	f := uint64(0)
	if final {
		f = 1
	}
	w.bits(f|typ<<1, 3)
}

// fixedSym writes a lit/len symbol of the fixed code (RFC 1951 §3.2.6).
func (w *bitWriter) fixedSym(s int) {
	switch {
	case s < 144:
		w.code(uint16(0x30+s), 8)
	case s < 256:
		w.code(uint16(0x190+s-144), 9)
	case s < 280:
		w.code(uint16(s-256), 7)
	default:
		w.code(uint16(0xC0+s-280), 8)
	}
}

// fixedLits writes literals in a fixed block.
func (w *bitWriter) fixedLits(s string) {
	for i := 0; i < len(s); i++ {
		w.fixedSym(int(s[i]))
	}
}

// fixedCopy writes a (length, distance) copy in a fixed block.
func (w *bitWriter) fixedCopy(length, dist int) {
	s := lenSymbol(length)
	w.fixedSym(257 + s)
	w.bits(uint64(length-int(lenBase[s])), uint(lenExtra[s]))
	d := distSymbol(dist)
	w.code(uint16(d), 5)
	w.bits(uint64(dist-int(distBase[d])), uint(distExtra[d]))
}

// lenSymbol and distSymbol return the symbol (less 257 for lengths) whose
// range holds a length or distance; length 258 takes symbol 285.
func lenSymbol(length int) int {
	s := len(lenBase) - 1
	for int(lenBase[s]) > length {
		s--
	}
	return s
}

func distSymbol(dist int) int {
	s := len(distBase) - 1
	for int(distBase[s]) > dist {
		s--
	}
	return s
}

// canonical returns the canonical codes for the given code lengths.
func canonical(lens []uint8) []uint16 {
	var count [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var next [16]uint16
	code := uint16(0)
	for l := 1; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// testCLens is the code length code the hand-built dynamic blocks use:
// lengths 0..13 in 4 bits, 14, 15, 16 and 18 in 5.
var testCLens = [19]uint8{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 0, 5}

// dynamic writes a dynamic block header for nlit lit/len and ndist
// distance codes whose lengths come as code length symbols: {0..15, 0}
// or {16|17|18, extra bits}. clens is the code length code.
func (w *bitWriter) dynamic(final bool, nlit, ndist int, clens [19]uint8, syms ...[2]int) {
	w.header(final, 2)
	w.bits(uint64(nlit-257), 5)
	w.bits(uint64(ndist-1), 5)
	w.bits(19-4, 4)
	for _, k := range codeOrder {
		w.bits(uint64(clens[k]), 3)
	}
	codes := canonical(clens[:])
	for _, s := range syms {
		w.code(codes[s[0]], clens[s[0]])
		switch s[0] {
		case 16:
			w.bits(uint64(s[1]), 2)
		case 17:
			w.bits(uint64(s[1]), 3)
		case 18:
			w.bits(uint64(s[1]), 7)
		}
	}
}

// plain lists code lengths as code length symbols, one per length.
func plain(lens ...[]uint8) [][2]int {
	var out [][2]int
	for _, ls := range lens {
		for _, l := range ls {
			out = append(out, [2]int{int(l)})
		}
	}
	return out
}

// litLens returns 257 lit/len code lengths (more if a symbol above 256 is
// set) with the given symbols set.
func litLens(set map[int]uint8) []uint8 {
	n := 257
	for s := range set {
		n = max(n, s+1)
	}
	lens := make([]uint8, n)
	for s, l := range set {
		lens[s] = l
	}
	return lens
}

// zlibWrap frames a DEFLATE stream as zlib: the header 0x78 0x01 and the
// adler32 of what the stream decodes to.
func zlibWrap(deflate, decoded []byte) []byte {
	out := append([]byte{0x78, 0x01}, deflate...)
	return binary.BigEndian.AppendUint32(out, adler32.Checksum(decoded))
}

// zlibLevel compresses p at a compress/flate level.
func zlibLevel(t testing.TB, p []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := zlib.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tableShapes returns 2^20-bit payloads shaped like the zlib bitmaps of
// an interval-encoded table sorted lex by (region, qty, price), with
// region zipf(1.5) over 16 values, qty uniform over 100 and price uniform
// over 1000: a qty digit is long runs, a high price digit sorted blocks
// of a few hundred rows, the low price digit near-random short runs.
func tableShapes() []struct {
	name string
	p    []byte
} {
	const rows = 1 << 20
	qty := data.Uniform(rows, 100, 1).Values
	region := data.Zipf(rows, 16, 1.5, 2).Values
	price := data.Uniform(rows, 1000, 3).Values
	count := make([]int32, 16*100*1000) // rows per (region, qty, price)
	for i := range rows {
		count[(region[i]*100+qty[i])*1000+price[i]]++
	}
	shape := func(in func(key int) bool) []byte {
		v := bitvec.New(rows)
		at := 0
		for key, c := range count {
			if in(key) {
				for i := at; i < at+int(c); i++ {
					v.Set(i)
				}
			}
			at += int(c)
		}
		return v.PayloadBytes()
	}
	return []struct {
		name string
		p    []byte
	}{
		{"runs", shape(func(key int) bool { return key/1000%10 < 5 })},
		{"blocks", shape(func(key int) bool { return key%1000/28 < 18 })},
		{"near-random", shape(func(key int) bool { return key%1000%28 < 14 })},
	}
}

// checkInflate decodes stream with inflateWords over stale words and
// with compress/zlib, and fails unless both accept it or both reject it,
// and, when they accept it, decode the same words. It returns whether
// compress/zlib accepted the stream.
func checkInflate(t *testing.T, name string, stream []byte, nbits int) bool {
	t.Helper()
	want, ok := referenceInflate(t, stream, nbits)
	words := make([]uint64, (nbits+63)/64)
	for i := range words {
		words[i] = 0x5555555555555555
	}
	err := inflateWords(stream, nbits, words)
	if (err == nil) != ok {
		t.Fatalf("%s: inflateWords error %v, compress/zlib accepts: %v", name, err, ok)
	}
	if ok {
		got, err := bitvec.FromWords(nbits, words)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: inflateWords decodes other words than compress/zlib", name)
		}
	}
	return ok
}

// TestInflateWordsMatchesZlib: the package's decoder accepts exactly the
// streams compress/zlib accepts at the declared length, and then decodes
// the same words. Streams from compress/zlib at every level, over
// table-shaped payloads and over lengths around the 32 KiB window and the
// 65535-byte stored block, each with truncations, bit flips, declared
// lengths a byte short and long, and bytes after the trailer; then one
// hand-built stream per rule the decoder enforces.
func TestInflateWordsMatchesZlib(t *testing.T) {
	type payload struct {
		name string
		p    []byte
	}
	var payloads []payload
	for _, s := range tableShapes() {
		payloads = append(payloads, payload{s.name, s.p})
	}
	// Past the first 32 KiB each byte repeats the one 32768 back, the
	// longest distance DEFLATE has, with a change every 997 bytes.
	rng := rand.New(rand.NewSource(31))
	long := make([]byte, 70001)
	for i := range long {
		switch {
		case i < 1<<15:
			long[i] = []byte{0x00, 0xFF, 0x0F, 0xF0}[rng.Intn(4)]
		case i%997 == 0:
			long[i] = byte(rng.Intn(256))
		default:
			long[i] = long[i-1<<15]
		}
	}
	for _, n := range []int{32767, 32768, 32769, 65535, 65536, 70001} {
		payloads = append(payloads, payload{fmt.Sprintf("window/%d", n), long[:n]})
	}
	levels := []struct {
		name  string
		level int
	}{
		{"huffman-only", zlib.HuffmanOnly},
		{"stored", zlib.NoCompression},
		{"speed", zlib.BestSpeed},
		{"default", zlib.DefaultCompression},
		{"best", zlib.BestCompression},
	}
	for _, pl := range payloads {
		nbits := 8 * len(pl.p)
		for _, lv := range levels {
			good := zlibLevel(t, pl.p, lv.level)
			name := pl.name + "/" + lv.name
			if !checkInflate(t, name, good, nbits) {
				t.Fatalf("%s: compress/zlib rejects its own stream", name)
			}
			for _, cut := range []int{1, 2, len(good) / 2, len(good) - 5, len(good) - 4, len(good) - 1} {
				checkInflate(t, fmt.Sprintf("%s cut to %d bytes", name, cut), good[:cut], nbits)
			}
			for k, at := range []int{0, 1, 2, 3, len(good) / 3, len(good) / 2, len(good) - 5, len(good) - 1} {
				flipped := append([]byte(nil), good...)
				flipped[at] ^= 1 << (k % 8)
				checkInflate(t, fmt.Sprintf("%s bit %d of byte %d flipped", name, k%8, at), flipped, nbits)
			}
			checkInflate(t, name+" declared a byte short", good, nbits-8)
			checkInflate(t, name+" declared 4 KiB short", good, nbits-8<<12)
			checkInflate(t, name+" declared a byte long", good, nbits+8)
			for _, extra := range [][]byte{{0}, []byte("trailing")} {
				if !checkInflate(t, name+" with bytes after the trailer", append(append([]byte(nil), good...), extra...), nbits) {
					t.Fatalf("%s: compress/zlib rejects bytes after the trailer", name)
				}
			}
		}
	}

	for _, tc := range handBuiltStreams() {
		if got := checkInflate(t, tc.name, tc.stream, 8*len(tc.decoded)); got != tc.accept {
			t.Errorf("%s: compress/zlib accepts: %v, want %v", tc.name, got, tc.accept)
		}
		// A fresh decoder's zeroed buffer, unlike a pooled one, makes
		// "one byte short" pass every check but the length.
		if _, err := new(flateDecoder).inflate(tc.stream, len(tc.decoded)); (err == nil) != tc.accept {
			t.Errorf("%s: a fresh decoder returns %v, want acceptance %v", tc.name, err, tc.accept)
		}
	}
}

type handBuilt struct {
	name    string
	stream  []byte
	decoded []byte // what the stream decodes to: its declared length and adler32
	accept  bool
}

// handBuiltStreams returns one stream per rule of the format the decoder
// enforces, with compress/zlib's verdict on it.
func handBuiltStreams() []handBuilt {
	var out []handBuilt
	add := func(name string, accept bool, decoded string, build func(w *bitWriter)) {
		var w bitWriter
		build(&w)
		d := []byte(decoded)
		out = append(out, handBuilt{name, zlibWrap(w.deflate(), d), d, accept})
	}
	fixed := func(w *bitWriter) {
		w.header(true, 1)
		w.fixedLits("abc")
		w.fixedSym(256)
	}
	add("fixed block", true, "abc", fixed)
	add("stored block", true, "hi", func(w *bitWriter) {
		w.header(true, 0)
		w.align()
		w.bits(2, 16)
		w.bits(0xFFFD, 16)
		w.bits('h', 8)
		w.bits('i', 8)
	})
	add("stored block with a wrong NLEN", false, "hi", func(w *bitWriter) {
		w.header(true, 0)
		w.align()
		w.bits(2, 16)
		w.bits(0xFFFC, 16)
		w.bits('h', 8)
		w.bits('i', 8)
	})
	add("stored, fixed and dynamic blocks", true, "hiabcaaaa", func(w *bitWriter) {
		w.header(false, 0)
		w.align()
		w.bits(2, 16)
		w.bits(0xFFFD, 16)
		w.bits('h', 8)
		w.bits('i', 8)
		w.header(false, 1)
		w.fixedLits("abc")
		w.fixedSym(256)
		lit := litLens(map[int]uint8{'a': 1, 256: 2, 257: 2})
		w.dynamic(true, len(lit), 1, testCLens, plain(lit, []uint8{1})...)
		codes := canonical(lit)
		w.code(codes['a'], 1)
		w.code(codes[257], 2) // length 3
		w.code(0, 1)          // distance 1
		w.code(codes[256], 2)
	})
	add("block type 3", false, "", func(w *bitWriter) { w.header(true, 3) })
	// Each stream that breaks a rule is otherwise valid: a decoder without
	// the rule would accept it, with the decoded bytes given.
	for _, sym := range []int{286, 287} {
		add(fmt.Sprintf("fixed lit/len symbol %d", sym), false, strings.Repeat("a", 1+258), func(w *bitWriter) {
			w.header(true, 1)
			w.fixedLits("a")
			w.fixedSym(sym) // as symbol 285 would be: length 258
			w.code(0, 5)    // distance 1
			w.fixedSym(256)
		})
	}
	// 64 KiB of "ab", then a copy of 3 at the distance symbols 30 and 31
	// would stand for with 14 extra bits, continuing the RFC's table.
	ab := bytes.Repeat([]byte("ab"), 1<<15)
	for d, back := range map[uint16]int{30: 1<<15 + 1, 31: 3<<14 + 1} {
		add(fmt.Sprintf("fixed distance symbol %d", d), false, string(append(ab[:len(ab):len(ab)], ab[len(ab)-back:][:3]...)), func(w *bitWriter) {
			w.header(true, 1)
			w.fixedLits("ab")
			for range 254 {
				w.fixedCopy(258, 2)
			}
			w.fixedLits("ab")
			w.fixedSym(257) // length 3
			w.code(d, 5)
			w.bits(0, 14)
			w.fixedSym(256)
		})
	}
	add("distance back to the first byte", true, "aaaa", func(w *bitWriter) {
		w.header(true, 1)
		w.fixedLits("a")
		w.fixedCopy(3, 1)
		w.fixedSym(256)
	})
	add("distance past the bytes written", false, "aaaa", func(w *bitWriter) {
		w.header(true, 1)
		w.fixedLits("a")
		w.fixedCopy(3, 2)
		w.fixedSym(256)
	})
	add("distance 32768", true, string(bytes.Repeat([]byte("ab"), 1<<15)), func(w *bitWriter) {
		w.header(true, 1)
		w.fixedLits("ab")
		for range 127 {
			w.fixedCopy(258, 2)
		}
		for range 127 { // back over the whole 32 KiB window
			w.fixedCopy(258, 1<<15)
		}
		w.fixedLits("ab")
		w.fixedSym(256)
	})
	add("length symbol 284 with 31 extra: 258", true, string(bytes.Repeat([]byte("a"), 259)), func(w *bitWriter) {
		w.header(true, 1)
		w.fixedLits("a")
		w.fixedSym(284)
		w.bits(31, 5)
		w.code(0, 5) // distance 1
		w.fixedSym(256)
	})
	// Dynamic codes.
	dyn := func(lit, dist []uint8, body func(w *bitWriter, lit []uint16)) func(w *bitWriter) {
		return func(w *bitWriter) {
			w.dynamic(true, len(lit), len(dist), testCLens, plain(lit, dist)...)
			body(w, canonical(lit))
		}
	}
	runLit := litLens(map[int]uint8{'a': 1, 256: 2, 257: 2})
	add("single one-bit distance code", true, "aaaa", dyn(runLit, []uint8{1}, func(w *bitWriter, c []uint16) {
		w.code(c['a'], 1)
		w.code(c[257], 2)
		w.code(0, 1)
		w.code(c[256], 2)
	}))
	add("unused half of a one-bit code", false, "aaaa", dyn(runLit, []uint8{1}, func(w *bitWriter, c []uint16) {
		w.code(c['a'], 1)
		w.code(c[257], 2)
		w.code(1, 1)
		w.code(c[256], 2)
	}))
	add("single one-bit lit/len code", true, "", dyn(litLens(map[int]uint8{256: 1}), []uint8{0}, func(w *bitWriter, c []uint16) {
		w.code(c[256], 1)
	}))
	litOnly := litLens(map[int]uint8{'a': 1, 256: 1})
	add("empty distance code, unused", true, "aa", dyn(litOnly, []uint8{0}, func(w *bitWriter, c []uint16) {
		w.code(c['a'], 1)
		w.code(c['a'], 1)
		w.code(c[256], 1)
	}))
	add("empty distance code, used", false, "aaaa", dyn(runLit, []uint8{0}, func(w *bitWriter, c []uint16) {
		w.code(c['a'], 1)
		w.code(c[257], 2)
		w.code(0, 1)
		w.code(c[256], 2)
	}))
	add("over-subscribed lit/len code", false, "a", dyn(litLens(map[int]uint8{'a': 1, 'b': 1, 256: 1}), []uint8{0}, func(w *bitWriter, c []uint16) {
		w.code(c['a'], 1)
		w.code(c[256], 1)
	}))
	add("incomplete lit/len code", false, "a", dyn(litLens(map[int]uint8{'a': 1, 256: 2}), []uint8{0}, func(w *bitWriter, c []uint16) {
		w.code(c['a'], 1)
		w.code(c[256], 2)
	}))
	add("incomplete distance code", false, "aaaa", dyn(runLit, []uint8{1, 2}, func(w *bitWriter, c []uint16) {
		w.code(c['a'], 1)
		w.code(c[257], 2)
		w.code(0, 1)
		w.code(c[256], 2)
	}))
	add("over-subscribed code length code", false, "aa", func(w *bitWriter) {
		clens := testCLens
		clens[17] = 4
		w.dynamic(true, len(litOnly), 1, clens, plain(litOnly, []uint8{0})...)
	})
	add("incomplete code length code", false, "aa", func(w *bitWriter) {
		clens := testCLens
		clens[18] = 0
		w.dynamic(true, len(litOnly), 1, clens, plain(litOnly, []uint8{0})...)
	})
	add("HLIT 287", false, "aaaa", func(w *bitWriter) {
		lit := append(append([]uint8(nil), runLit...), make([]uint8, 287-len(runLit))...)
		w.dynamic(true, len(lit), 1, testCLens, plain(lit, []uint8{1})...)
		c := canonical(lit)
		w.code(c['a'], 1)
		w.code(c[257], 2)
		w.code(0, 1)
		w.code(c[256], 2)
	})
	add("HDIST 31", false, "aaaa", func(w *bitWriter) {
		dist := make([]uint8, 31)
		dist[0] = 1
		w.dynamic(true, len(runLit), len(dist), testCLens, plain(runLit, dist)...)
		c := canonical(runLit)
		w.code(c['a'], 1)
		w.code(c[257], 2)
		w.code(0, 1)
		w.code(c[256], 2)
	})
	add("repeat code 16 first", false, "aa", func(w *bitWriter) {
		syms := append([][2]int{{16, 0}}, plain(litOnly[3:], []uint8{0})...)
		w.dynamic(true, len(litOnly), 1, testCLens, syms...)
	})
	add("repeat code past the last length", false, "aa", func(w *bitWriter) {
		// 138 zero lengths where only the one distance length is left.
		syms := append(plain(litOnly), [2]int{18, 127})
		w.dynamic(true, len(litOnly), 1, testCLens, syms...)
		c := canonical(litOnly)
		w.code(c['a'], 1)
		w.code(c['a'], 1)
		w.code(c[256], 1)
	})
	add("repeat code across the lit/len and distance lengths", true, "aa", func(w *bitWriter) {
		// runLit[256] is 2; the repeat gives runLit[257] and all four
		// distance codes the same length.
		syms := append(plain(runLit[:257]), [2]int{16, 2})
		w.dynamic(true, len(runLit), 4, testCLens, syms...)
		c := canonical(runLit)
		w.code(c['a'], 1)
		w.code(c['a'], 1)
		w.code(c[256], 2)
	})
	// Header rules.
	var body bitWriter
	fixed(&body)
	deflate := body.deflate()
	withHeader := func(name string, accept bool, hdr ...byte) {
		s := append(append(hdr, deflate...), 0, 0, 0, 0)
		binary.BigEndian.PutUint32(s[len(s)-4:], adler32.Checksum([]byte("abc")))
		out = append(out, handBuilt{name, s, []byte("abc"), accept})
	}
	withHeader("zlib CM 7", false, 0x77, fcheck(0x77, 0))
	withHeader("zlib CINFO 8", false, 0x88, fcheck(0x88, 0))
	withHeader("zlib CINFO 0", true, 0x08, fcheck(0x08, 0))
	withHeader("zlib FCHECK off by one", false, 0x78, fcheck(0x78, 0)+1)
	withHeader("zlib FDICT with a dictionary id", false, 0x78, fcheck(0x78, 0x20), 0x12, 0x34, 0x56, 0x78)
	withHeader("zlib FDICT with the empty dictionary's id", true, 0x78, fcheck(0x78, 0x20), 0, 0, 0, 1)
	out = append(out, handBuilt{"zlib FDICT with the id cut short", []byte{0x78, fcheck(0x78, 0x20), 0, 0}, nil, false})
	add("adler32 mismatch", false, "abd", fixed)
	// The trailer sums a fourth byte 0, what a fresh decoder's buffer
	// holds past the three bytes decoded: only the length check fails it.
	add("one byte short", false, "abc\x00", fixed)
	return out
}

// fcheck returns the FLG byte with the given FLEVEL/FDICT bits whose
// FCHECK makes the header a multiple of 31.
func fcheck(cmf, flg byte) byte {
	return flg | byte((31-(uint16(cmf)<<8|uint16(flg))%31)%31)
}

// TestAdlerUpdate: the 8-byte folding and the closed-form runs agree with
// hash/adler32 across reductions.
func TestAdlerUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := make([]byte, 3<<20+13)
	for i := range p {
		p[i] = byte(rng.Intn(256))
		if i%5 == 0 {
			p[i] = 0xFF
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 5552, 5553, 1 << 20, 1<<20 + 1, len(p)} {
		s1, s2 := adlerUpdate(1, 0, p[:n])
		if got, want := s2<<16|s1, adler32.Checksum(p[:n]); got != want {
			t.Errorf("adlerUpdate over %d bytes: %08x, want %08x", n, got, want)
		}
	}
	s1, s2 := adlerUpdate(1, 0, p[:100])
	q := append([]byte(nil), p[:100]...)
	for _, run := range []struct {
		x byte
		n int
	}{{0xFF, 258}, {0, 3}, {0x80, 1}, {0xFF, 258}, {0x7F, 100}} {
		s1, s2 = adlerRun(s1, s2, run.x, run.n)
		q = append(q, bytes.Repeat([]byte{run.x}, run.n)...)
		if got, want := s2<<16|s1, adler32.Checksum(q); got != want {
			t.Errorf("adlerRun of %d bytes %#x: %08x, want %08x", run.n, run.x, got, want)
		}
	}
}

// TestInflateWordsAllocFree: a warm call allocates nothing. The decoder,
// its code tables and its output buffer come from the pool.
func TestInflateWordsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled decoders at random")
	}
	p := make([]byte, 1<<16+3)
	for i := range p {
		p[i] = byte(i * i >> 9)
	}
	stream, nbits := zlibBytes(t, p), 8*len(p)
	words := make([]uint64, (nbits+63)/64)
	allocs := testing.AllocsPerRun(20, func() {
		if err := inflateWords(stream, nbits, words); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("inflateWords made %.1f allocations per call, want 0", allocs)
	}
}

// BenchmarkInflateWords decodes one 2^20-bit zlib bitmap per shape of a
// lex-sorted table's files (see tableShapes) into pooled words. The
// decoded bytes are 2^17 per operation.
func BenchmarkInflateWords(b *testing.B) {
	for _, s := range tableShapes() {
		stream := zlibBytes(b, s.p)
		nbits := 8 * len(s.p)
		words := make([]uint64, (nbits+63)/64)
		b.Run(fmt.Sprintf("%s/%dB", s.name, len(stream)), func(b *testing.B) {
			b.SetBytes(int64(len(s.p)))
			for i := 0; i < b.N; i++ {
				if err := inflateWords(stream, nbits, words); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
