package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// The reader side of CodecZlib: a DEFLATE (RFC 1951) decoder for the zlib
// (RFC 1950) streams Save writes with compress/zlib. A stored file's
// decoded length is known before it is read, so the decoder inflates into
// one flat buffer of exactly that length, where back-references resolve in
// place: there is no sliding window, no io.Reader and no chunk loop.
//
// It accepts exactly what compress/zlib's reader accepts when it must
// deliver ceil(nbits/8) bytes and then io.EOF: the same header checks (a
// preset dictionary only with the id of the empty one, which is what
// zlib.NewReader supplies), the same Huffman code rules as compress/flate
// (over-subscribed and incomplete codes fail, except a single one-bit
// code; an empty code fails only when a symbol is read from it), the same
// symbol and distance limits, and the adler32 trailer. Bytes after the
// trailer are ignored, as compress/zlib ignores them.

const (
	// fastBits is the width of a Huffman code's lookup table: codes of at
	// most this many bits decode in one lookup, longer ones bit by bit.
	fastBits = 10
	fastMask = 1<<fastBits - 1

	// outSlack is the room past the decoded bytes that lets a copy store
	// 16 or 32 bytes at a time: its last stores may run 31 bytes past its
	// end.
	outSlack = 32

	adlerMod = 65521 // the largest prime below 2^16, adler32's modulus (RFC 1950)
)

var (
	errZlibHeader = errors.New("zlib: invalid header")
	errZlibDict   = errors.New("zlib: stream needs a preset dictionary")
	errTruncated  = errors.New("zlib: stream ends early")
	errFlateData  = errors.New("zlib: corrupt DEFLATE data")
	errAdler32    = errors.New("zlib: adler32 checksum mismatch")
	errTooLong    = errors.New("zlib: stream inflates past the declared length")
)

// Base values and extra-bit counts of the length symbols 257..285 and the
// distance symbols 0..29 (RFC 1951 §3.2.5). Length symbol 284 with all
// five extra bits set means 258, as compress/flate reads it.
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}

	// codeOrder is the order a dynamic block lists its code length code
	// lengths in.
	codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// huffman decodes one canonical prefix code (RFC 1951 §3.2.2). DEFLATE
// packs a code's bits first bit lowest, so fast is indexed by the next
// fastBits input bits and holds sym<<4 | length for every code of at most
// fastBits bits; a 0 entry means the bits start a longer code, or none.
// count and syms drive the canonical bit-by-bit walk for those.
type huffman struct {
	fast  [1 << fastBits]uint16
	count [16]uint16  // count[l] is the number of codes of length l
	syms  [288]uint16 // symbols in code order: by length, then by value
}

// build makes h decode the code with the given lengths (0: symbol unused).
// It reports false for what compress/flate rejects: an over-subscribed or
// incomplete code, except a single code of one bit. A code with no symbol
// at all builds; every decode from it then fails.
func (h *huffman) build(lens []uint8) bool {
	h.count = [16]uint16{}
	for _, l := range lens {
		h.count[l]++
	}
	h.count[0] = 0
	kraft, longest := 0, 0 // kraft: the codes' share of 2^15
	for l := 1; l < 16; l++ {
		kraft += int(h.count[l]) << (15 - l)
		if h.count[l] != 0 {
			longest = l
		}
	}
	if longest != 0 && kraft != 1<<15 && !(longest == 1 && h.count[1] == 1) {
		return false
	}
	var offs [16]uint16 // next free slot in syms per length
	var next [16]uint16 // next code per length
	code := uint16(0)
	for l := 1; l < 16; l++ {
		offs[l] = offs[l-1] + h.count[l-1]
		code = (code + h.count[l-1]) << 1
		next[l] = code
	}
	h.fast = [1 << fastBits]uint16{}
	for sym, l := range lens {
		if l == 0 {
			continue
		}
		h.syms[offs[l]] = uint16(sym)
		offs[l]++
		c := next[l]
		next[l]++
		if l <= fastBits {
			e := uint16(sym)<<4 | uint16(l)
			for i := int(bits.Reverse16(c) >> (16 - l)); i < len(h.fast); i += 1 << l {
				h.fast[i] = e
			}
		}
	}
	return true
}

// decode returns the symbol whose code starts the low bits of b and the
// code's length, or length 0 if no code matches. b must hold at least 15
// bits of input (or the zero padding past its end).
func (h *huffman) decode(b uint64) (sym, n uint) {
	if e := h.fast[b&fastMask]; e != 0 {
		return uint(e >> 4), uint(e & 15)
	}
	return h.decodeLong(b)
}

// decodeLong is decode's canonical walk: one bit at a time, the code of
// length l is the one whose value falls within that length's block of
// codes.
func (h *huffman) decodeLong(b uint64) (sym, n uint) {
	code, first, index := 0, 0, 0
	for l := 1; l < 16; l++ {
		code |= int(b>>(l-1)) & 1
		count := int(h.count[l])
		if code < first+count {
			return uint(h.syms[index+code-first]), uint(l)
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, 0
}

// fixedLit and fixedDist are the codes of a fixed-Huffman block (RFC 1951
// §3.2.6). They include lit/len symbols 286 and 287 and distance symbols
// 30 and 31, which no stream may use.
var fixedLit, fixedDist = fixedCodes()

func fixedCodes() (*huffman, *huffman) {
	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	lit, dist := new(huffman), new(huffman)
	lit.build(lens[:])
	for i := range 32 {
		lens[i] = 5
	}
	dist.build(lens[:32])
	return lit, dist
}

// flateDecoder is one reusable decoding state: the dynamic codes and the
// output buffer, which grows to the longest stream it has decoded.
type flateDecoder struct {
	lit, dist, clen huffman
	lens            [286 + 30]uint8
	out             []byte
}

var flateDecoders = sync.Pool{New: func() any { return new(flateDecoder) }}

// inflateWords decodes a zlib stream that must inflate to exactly
// ceil(nbits/8) bytes into words, which must hold ceil(nbits/64) words;
// every one is overwritten. Short, long, truncated and checksum-damaged
// streams all fail.
func inflateWords(raw []byte, nbits int, words []uint64) error {
	d := flateDecoders.Get().(*flateDecoder)
	defer flateDecoders.Put(d)
	p, err := d.inflate(raw, (nbits+7)/8)
	if err != nil {
		return err
	}
	putBytes(words, p)
	return nil
}

// refill tops the bit buffer b, holding nb input bits, up to at least 56
// bits from src[p:], and returns the new buffer, count and position. It
// loads 8 bytes at once and counts the whole bytes that fit; the bits of
// the byte it loads but does not count sit above nb, where the next refill
// ORs the same bits again. Past the end of src it pads with zeros; the
// callers find a stream that reads into the padding by its position.
func refill(src []byte, b uint64, nb uint, p int) (uint64, uint, int) {
	if p+8 <= len(src) {
		return b | binary.LittleEndian.Uint64(src[p:])<<nb, nb | 56, p + int(63-nb)>>3
	}
	for ; nb < 56; nb += 8 {
		if p < len(src) {
			b |= uint64(src[p]) << nb
		}
		p++
	}
	return b, nb, p
}

// inflate decodes the zlib stream src, which must inflate to exactly n
// bytes, and returns them; they live in d's buffer until d's next call.
func (d *flateDecoder) inflate(src []byte, n int) ([]byte, error) {
	if len(src) < 2 {
		return nil, errTruncated
	}
	cmf, flg := src[0], src[1]
	if cmf&0x0F != 8 || cmf>>4 > 7 || (uint(cmf)<<8|uint(flg))%31 != 0 {
		return nil, errZlibHeader
	}
	p := 2
	if flg&0x20 != 0 {
		// compress/zlib checks a preset dictionary's id against the
		// adler32 of the dictionary it was given: NewReader gives none,
		// whose adler32 is 1.
		if len(src) < 6 {
			return nil, errTruncated
		}
		if binary.BigEndian.Uint32(src[2:]) != 1 {
			return nil, errZlibDict
		}
		p = 6
	}
	if cap(d.out) < n+outSlack {
		d.out = make([]byte, n+outSlack)
	}
	out := d.out[:n+outSlack]
	var (
		b      uint64 // input bits, next bit lowest
		nb     uint   // bits of b not yet consumed
		o      int    // bytes decoded so far
		ck     int    // out[:ck] is summed into s1 and s2
		s1, s2 uint32 = 1, 0
	)
	for final := false; !final; {
		if b, nb, p = refill(src, b, nb, p); p > len(src)+8 {
			return nil, errTruncated
		}
		final = b&1 == 1
		typ := b >> 1 & 3
		b >>= 3
		nb -= 3
		var lit, dist *huffman
		switch typ {
		case 0:
			// Stored: skip to the byte boundary, then LEN, NLEN and LEN
			// bytes.
			at := (8*p - int(nb) + 7) >> 3
			if at+4 > len(src) {
				return nil, errTruncated
			}
			ln := int(binary.LittleEndian.Uint16(src[at:]))
			if uint16(ln) != ^binary.LittleEndian.Uint16(src[at+2:]) {
				return nil, errFlateData
			}
			at += 4
			if ln > len(src)-at {
				return nil, errTruncated
			}
			if ln > n-o {
				return nil, errTooLong
			}
			copy(out[o:], src[at:at+ln])
			o += ln
			b, nb, p = 0, 0, at+ln
			continue
		case 1:
			lit, dist = fixedLit, fixedDist
		case 2:
			var err error
			if b, nb, p, err = d.readCodes(src, b, nb, p); err != nil {
				return nil, err
			}
			lit, dist = &d.lit, &d.dist
		default:
			return nil, errFlateData
		}
		// One refill covers the longest step: a 15-bit length code, 5
		// extra bits, a 15-bit distance code and 13 extra bits.
		for {
			if b, nb, p = refill(src, b, nb, p); p > len(src)+8 {
				return nil, errTruncated
			}
			e := lit.fast[b&fastMask]
			if e-1 < 256<<4 {
				// Literals with short codes, while the buffer holds
				// fastBits bits; the refill then looks the next code up
				// again.
				for {
					if o >= n {
						return nil, errTooLong
					}
					out[o] = byte(e >> 4)
					o++
					b >>= e & 15
					nb -= uint(e & 15)
					if nb < fastBits {
						break
					}
					if e = lit.fast[b&fastMask]; e-1 >= 256<<4 {
						break
					}
				}
				continue
			}
			sym, l := uint(e>>4), uint(e&15)
			if l == 0 {
				if sym, l = lit.decodeLong(b); l == 0 {
					return nil, errFlateData
				}
			}
			b >>= l
			nb -= l
			if sym < 256 {
				if o >= n {
					return nil, errTooLong
				}
				out[o] = byte(sym)
				o++
				continue
			}
			if sym == 256 {
				break
			}
			sym -= 257
			if sym >= uint(len(lenBase)) {
				return nil, errFlateData
			}
			x := uint(lenExtra[sym])
			length := int(lenBase[sym]) + int(b&(1<<x-1))
			b >>= x
			nb -= x
			e = dist.fast[b&fastMask]
			ds, l := uint(e>>4), uint(e&15)
			if l == 0 {
				ds, l = dist.decodeLong(b)
			}
			if l == 0 || ds >= uint(len(distBase)) {
				return nil, errFlateData
			}
			b >>= l
			nb -= l
			x = uint(distExtra[ds])
			back := int(distBase[ds]) + int(b&(1<<x-1))
			b >>= x
			nb -= x
			if back > o {
				return nil, errFlateData
			}
			if length > n-o {
				return nil, errTooLong
			}
			switch {
			case back == 1:
				// A run of one byte: fold it into the checksum in closed
				// form and store it 8 bytes at a time.
				c := out[o-1]
				s1, s2 = adlerUpdate(s1, s2, out[ck:o])
				s1, s2 = adlerRun(s1, s2, c, length)
				ck = o + length
				v := uint64(c) * 0x0101010101010101
				for d := out[o : o+length+31]; len(d) >= 32; d = d[32:] {
					binary.LittleEndian.PutUint64(d[0:8], v)
					binary.LittleEndian.PutUint64(d[8:16], v)
					binary.LittleEndian.PutUint64(d[16:24], v)
					binary.LittleEndian.PutUint64(d[24:32], v)
				}
			case back >= length && length >= 32:
				copy(out[o:o+length], out[o-back:])
			case back >= 8:
				// Each 8 bytes read lie before the 8 bytes written, so the
				// stores reproduce an overlapping copy.
				d := out[o : o+length+15]
				for s := out[o-back:][:len(d)]; ; d, s = d[16:], s[16:] {
					binary.LittleEndian.PutUint64(d[0:8], binary.LittleEndian.Uint64(s[0:8]))
					binary.LittleEndian.PutUint64(d[8:16], binary.LittleEndian.Uint64(s[8:16]))
					if len(d) < 32 {
						break
					}
				}
			default:
				for i := range length {
					out[o+i] = out[o-back+i]
				}
			}
			o += length
		}
	}
	if o != n {
		return nil, fmt.Errorf("stream inflates to %d bytes, want %d", o, n)
	}
	at := (8*p - int(nb) + 7) >> 3 // the trailer starts at the next byte boundary
	if at+4 > len(src) {
		return nil, errTruncated
	}
	s1, s2 = adlerUpdate(s1, s2, out[ck:n])
	if binary.BigEndian.Uint32(src[at:]) != s2<<16|s1 {
		return nil, errAdler32
	}
	return out[:n], nil
}

// readCodes reads a dynamic block's header (RFC 1951 §3.2.7) into d.lit
// and d.dist, taking the bit buffer state and returning it advanced.
func (d *flateDecoder) readCodes(src []byte, b uint64, nb uint, p int) (uint64, uint, int, error) {
	nlit := int(b&31) + 257
	ndist := int(b>>5&31) + 1
	nclen := int(b>>10&15) + 4
	b >>= 14
	nb -= 14
	if nlit > 286 || ndist > 30 {
		return b, nb, p, errFlateData
	}
	var clens [19]uint8
	for _, k := range codeOrder[:nclen] {
		if nb < 3 {
			b, nb, p = refill(src, b, nb, p)
		}
		clens[k] = uint8(b & 7)
		b >>= 3
		nb -= 3
	}
	if !d.clen.build(clens[:]) {
		return b, nb, p, errFlateData
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		// A code length code has at most 7 bits, plus 7 extra bits.
		if b, nb, p = refill(src, b, nb, p); p > len(src)+8 {
			return b, nb, p, errTruncated
		}
		sym, l := d.clen.decode(b)
		if l == 0 {
			return b, nb, p, errFlateData
		}
		b >>= l
		nb -= l
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var val uint8
		switch sym {
		case 16:
			if i == 0 {
				return b, nb, p, errFlateData
			}
			rep, val = 3+int(b&3), lens[i-1]
			b >>= 2
			nb -= 2
		case 17:
			rep = 3 + int(b&7)
			b >>= 3
			nb -= 3
		default:
			rep = 11 + int(b&127)
			b >>= 7
			nb -= 7
		}
		if rep > len(lens)-i {
			return b, nb, p, errFlateData
		}
		for j := range rep {
			lens[i+j] = val
		}
		i += rep
	}
	if !d.lit.build(lens[:nlit]) || !d.dist.build(lens[nlit:]) {
		return b, nb, p, errFlateData
	}
	return b, nb, p, nil
}

// adlerUpdate adds p to the adler32 sums s1 and s2 (RFC 1950), both
// kept below adlerMod. Eight bytes b0..b7 add b0+...+b7 to s1 and
// 8·s1 + 8·b0 + 7·b1 + ... + 1·b7 to s2; the byte sums come from 16-bit
// lanes of the loaded word, where no lane can carry into the next.
func adlerUpdate(s1, s2 uint32, p []byte) (uint32, uint32) {
	const (
		even  = 0x00FF00FF00FF00FF
		ones  = 0x0001000100010001
		odds7 = 0x0007000500030001 // lane k of the pair sums weighted 7-2k
		block = 1 << 20            // bytes between reductions; s2 stays far below 2^64
	)
	a, c := uint64(s1), uint64(s2)
	for len(p) > 0 {
		q := p[:min(len(p), block)]
		p = p[len(q):]
		for ; len(q) >= 8; q = q[8:] {
			w := binary.LittleEndian.Uint64(q)
			pairs := w&even + w>>8&even // b0+b1, b2+b3, b4+b5, b6+b7
			c += 8*a + pairs*odds7>>48 + (w&even)*ones>>48
			a += pairs * ones >> 48
		}
		for _, x := range q {
			a += uint64(x)
			c += a
		}
		a %= adlerMod
		c %= adlerMod
	}
	return uint32(a), uint32(c)
}

// adlerRun adds n copies of byte x to the adler32 sums: s1 grows by n·x and
// s2 by n·s1 + x·n(n+1)/2.
func adlerRun(s1, s2 uint32, x byte, n int) (uint32, uint32) {
	k, v := uint64(n), uint64(x)
	c := (uint64(s2) + k*uint64(s1) + v*k*(k+1)/2) % adlerMod
	a := (uint64(s1) + k*v) % adlerMod
	return uint32(a), uint32(c)
}
