package core

import (
	"errors"
	"fmt"
	"math/bits"

	"bitmapindex/internal/bitvec"
)

// Encoding selects how each component's digits are encoded in bitmaps
// (paper Section 2(2)).
type Encoding uint8

const (
	// EqualityEncoded stores one bitmap per digit value: bitmap E_i^j has a
	// 1 for every record whose i-th digit equals j. A component with base 2
	// stores only E_i^1 (E_i^0 is its complement within non-null records).
	EqualityEncoded Encoding = iota
	// RangeEncoded stores bitmaps B_i^j (j = 0..b_i-2) where B_i^j has a 1
	// for every record whose i-th digit is <= j. The all-ones bitmap
	// B_i^{b_i-1} is implicit and never stored.
	RangeEncoded
	// IntervalEncoded stores ceil(b_i/2) window bitmaps per component:
	// I_i^j marks digits in [j, j+ceil(b_i/2)-1]. An extension beyond the
	// paper's two encodings; see intervaleval.go.
	IntervalEncoded
)

// String returns "equality", "range" or "interval".
func (e Encoding) String() string {
	switch e {
	case EqualityEncoded:
		return "equality"
	case RangeEncoded:
		return "range"
	case IntervalEncoded:
		return "interval"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

// ParseEncoding parses "equality"/"eq", "range" or "interval"/"iv".
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "equality", "eq", "E":
		return EqualityEncoded, nil
	case "range", "R":
		return RangeEncoded, nil
	case "interval", "iv", "I":
		return IntervalEncoded, nil
	}
	return 0, fmt.Errorf("core: unknown encoding %q", s)
}

// Errors returned by Build.
var (
	ErrValueOutOfRange = errors.New("core: value out of range [0, cardinality)")
	ErrNullsLength     = errors.New("core: nulls slice length differs from values")
)

// Index is a multi-component bitmap index over a column of integer values
// in [0, Cardinality). It corresponds to one point in the paper's design
// space: a base sequence (the decomposition) plus an encoding scheme.
//
// An Index is immutable after Build and safe for concurrent readers.
type Index struct {
	base     Base
	enc      Encoding
	card     uint64
	rows     int
	comps    [][]*bitvec.Vector // comps[i][slot]: stored bitmaps of component i+1
	nn       *bitvec.Vector     // B_nn: records with non-null values
	hasNulls bool
}

// BuildOptions carries optional Build inputs.
type BuildOptions struct {
	// Nulls marks records whose value is NULL; such records match no
	// predicate. When nil, all records are non-null. Values at null
	// positions are ignored (any value is accepted there).
	Nulls []bool
}

// Build constructs a bitmap index over values with the given attribute
// cardinality, base sequence, and encoding. Every non-null value must be in
// [0, card). Attribute values that are not consecutive integers should be
// mapped to their rank first (see the engine package's value dictionary).
func Build(values []uint64, card uint64, base Base, enc Encoding, opts *BuildOptions) (*Index, error) {
	if card < 1 {
		return nil, fmt.Errorf("core: cardinality must be >= 1, got %d", card)
	}
	if err := base.Validate(card); err != nil {
		return nil, err
	}
	var nulls []bool
	if opts != nil {
		nulls = opts.Nulls
	}
	if nulls != nil && len(nulls) != len(values) {
		return nil, ErrNullsLength
	}
	n := len(values)
	ix := &Index{
		base: base.Clone(),
		enc:  enc,
		card: card,
		rows: n,
	}
	// Pass 1: equality bitmaps for every component.
	eq := make([][]*bitvec.Vector, len(base))
	for i, bi := range base {
		eq[i] = make([]*bitvec.Vector, bi)
		for j := range eq[i] {
			eq[i][j] = bitvec.New(n)
		}
	}
	ix.nn = bitvec.NewOnes(n)
	digits := make([]uint64, len(base))
	for r, v := range values {
		if nulls != nil && nulls[r] {
			ix.nn.Clear(r)
			ix.hasNulls = true
			continue
		}
		if v >= card {
			return nil, fmt.Errorf("%w: value %d at row %d, cardinality %d", ErrValueOutOfRange, v, r, card)
		}
		base.Decompose(v, digits)
		for i, d := range digits {
			eq[i][d].Set(r)
		}
	}
	// Pass 2: derive the stored form.
	ix.comps = make([][]*bitvec.Vector, len(base))
	for i, bi := range base {
		switch enc {
		case EqualityEncoded:
			if bi == 2 {
				// Store only E^1; E^0 = B_nn AND NOT E^1 is derived on read.
				ix.comps[i] = []*bitvec.Vector{eq[i][1]}
			} else {
				ix.comps[i] = eq[i]
			}
		case RangeEncoded:
			// B^j = OR_{k<=j} E^k; the top slot (all ones over non-null) is
			// implicit and dropped.
			stored := make([]*bitvec.Vector, bi-1)
			acc := eq[i][0]
			stored[0] = acc
			for j := uint64(1); j < bi-1; j++ {
				nxt := acc.Clone()
				nxt.Or(eq[i][j])
				stored[j] = nxt
				acc = nxt
			}
			ix.comps[i] = stored
		case IntervalEncoded:
			ix.comps[i] = buildWindows(eq[i])
		default:
			return nil, fmt.Errorf("core: unknown encoding %v", enc)
		}
	}
	return ix, nil
}

// NewShell constructs an Index descriptor without in-memory bitmaps, for
// evaluating queries against externally stored bitmaps (see the storage
// package). Evaluation on a shell requires EvalOptions.Fetch; StoredBitmap
// returns nil for every slot and Value is unavailable. nn is the non-null
// bitmap (pass an all-ones vector when the column has no nulls); hasNulls
// should report whether any bit of nn is zero.
func NewShell(base Base, enc Encoding, card uint64, nn *bitvec.Vector, hasNulls bool) (*Index, error) {
	if card < 1 {
		return nil, fmt.Errorf("core: cardinality must be >= 1, got %d", card)
	}
	if err := base.Validate(card); err != nil {
		return nil, err
	}
	ix := &Index{
		base:     base.Clone(),
		enc:      enc,
		card:     card,
		rows:     nn.Len(),
		nn:       nn,
		hasNulls: hasNulls,
	}
	ix.comps = make([][]*bitvec.Vector, len(base))
	for i, bi := range base {
		n := int(bi)
		switch {
		case enc == RangeEncoded:
			n = int(bi) - 1
		case enc == IntervalEncoded:
			n = ivWindows(bi)
		case bi == 2:
			n = 1
		}
		ix.comps[i] = make([]*bitvec.Vector, n)
	}
	return ix, nil
}

// Base returns a copy of the index's base sequence.
func (ix *Index) Base() Base { return ix.base.Clone() }

// Encoding returns the index's encoding scheme.
func (ix *Index) Encoding() Encoding { return ix.enc }

// Cardinality returns the attribute cardinality C.
func (ix *Index) Cardinality() uint64 { return ix.card }

// Rows returns the number of records indexed.
func (ix *Index) Rows() int { return ix.rows }

// Components returns the number of components n.
func (ix *Index) Components() int { return len(ix.base) }

// HasNulls reports whether any indexed record is null.
func (ix *Index) HasNulls() bool { return ix.hasNulls }

// NonNull returns the B_nn bitmap (records with non-null values). Callers
// must not mutate it.
func (ix *Index) NonNull() *bitvec.Vector { return ix.nn }

// buildWindows builds the interval-encoding window bitmaps for one
// component from its digit-equality bitmaps: window j is the OR of
// E^j..E^{j+m-1} with m = ceil(b/2). Sliding-window ORs are computed with
// the standard two-sided prefix/suffix trick in O(b) vector operations:
// blocks of size m carry prefix and suffix ORs, and any width-m window is
// the union of one block suffix and the next block prefix.
func buildWindows(eq []*bitvec.Vector) []*bitvec.Vector {
	b := len(eq)
	m := (b + 1) / 2
	if m == b { // b == 1 cannot occur (bases are >= 2), but stay safe
		return []*bitvec.Vector{eq[0].Clone()}
	}
	// prefix[k] = OR of eq[blockStart..k]; suffix[k] = OR of eq[k..blockEnd].
	prefix := make([]*bitvec.Vector, b)
	suffix := make([]*bitvec.Vector, b)
	for start := 0; start < b; start += m {
		end := start + m - 1
		if end >= b {
			end = b - 1
		}
		prefix[start] = eq[start].Clone()
		for k := start + 1; k <= end; k++ {
			prefix[k] = prefix[k-1].Clone()
			prefix[k].Or(eq[k])
		}
		suffix[end] = eq[end].Clone()
		for k := end - 1; k >= start; k-- {
			suffix[k] = suffix[k+1].Clone()
			suffix[k].Or(eq[k])
		}
	}
	out := make([]*bitvec.Vector, m)
	for j := 0; j < m; j++ {
		hi := j + m - 1
		w := suffix[j].Clone()
		if hi/m != j/m { // window spans two blocks
			w.Or(prefix[hi])
		}
		out[j] = w
	}
	return out
}

// NumBitmaps returns the total number of stored bitmaps, the paper's space
// metric (Section 4).
func (ix *Index) NumBitmaps() int {
	total := 0
	for _, c := range ix.comps {
		total += len(c)
	}
	return total
}

// ComponentBitmaps returns the number of stored bitmaps in component i
// (0-based).
func (ix *Index) ComponentBitmaps(i int) int { return len(ix.comps[i]) }

// SizeBytes returns the total size of all stored bitmaps plus B_nn, in
// bytes, uncompressed.
func (ix *Index) SizeBytes() int {
	per := (ix.rows + 7) / 8
	return per * (ix.NumBitmaps() + 1)
}

// StoredBitmap returns stored bitmap slot j of component i for direct
// inspection or storage. Callers must not mutate it.
func (ix *Index) StoredBitmap(i, j int) *bitvec.Vector { return ix.comps[i][j] }

// Value reconstructs the value at row r (and whether it is non-null) by
// decoding r's word with DecodeWord and picking r. It allocates nothing.
func (ix *Index) Value(r int) (v uint64, ok bool) {
	if !ix.nn.Get(r) {
		return 0, false
	}
	var vals [64]uint64
	k := r % 64
	ix.DecodeWord(r/64, uint64(1)<<uint(k), &vals)
	return vals[k], true
}

// DecodeWord decodes the values of the rows of word w (rows 64w to
// 64w+63) that sel selects, working on the component bitmaps' words: for
// each component and each nonzero digit d it derives the word of rows
// whose digit is d, then adds d times the digit's weight to those rows.
// Null rows are dropped from sel. It writes dst[k] for every row 64w+k left
// in sel, leaves the other entries of dst alone, and returns that mask.
// The cost is O(sum b_i) word operations plus one add per selected row and
// nonzero digit. Unavailable on a shell index.
func (ix *Index) DecodeWord(w int, sel uint64, dst *[64]uint64) uint64 {
	sel &= ix.nn.Words()[w]
	for s := sel; s != 0; s &= s - 1 {
		dst[bits.TrailingZeros64(s)] = 0
	}
	weight := uint64(1)
	for i, bi := range ix.base {
		c := ix.comps[i]
		for d := uint64(1); d < bi; d++ {
			add := d * weight
			for m := digitWord(ix.enc, c, bi, d, w) & sel; m != 0; m &= m - 1 {
				dst[bits.TrailingZeros64(m)] += add
			}
		}
		weight *= bi
	}
	return sel
}

// digitWord returns word w of the rows whose digit is d (1 <= d < b) in a
// component with base b and stored bitmaps c. Where the rule takes a
// complement, null rows are set too; callers mask with B_nn.
func digitWord(enc Encoding, c []*bitvec.Vector, b, d uint64, w int) uint64 {
	at := func(j uint64) uint64 { return c[j].Words()[w] }
	switch enc {
	case EqualityEncoded:
		if b == 2 {
			return at(0) // only E^1 is stored
		}
		return at(d)
	case RangeEncoded:
		// B^j holds digits <= j, so digit d is B^d minus B^{d-1}; the top
		// digit is the complement of the top stored slot.
		if d == b-1 {
			return ^at(b - 2)
		}
		return at(d) &^ at(d-1)
	default: // IntervalEncoded
		// Window I^j holds digits [j, j+m-1].
		m := uint64(ivWindows(b))
		switch {
		case d < m-1:
			return at(d) &^ at(d+1)
		case d == m-1:
			return at(m-1) & at(0)
		case d <= 2*m-2:
			return at(d-m+1) &^ at(d-m)
		default: // d == b-1 with b even: outside every window
			return ^(at(0) | at(m-1))
		}
	}
}
