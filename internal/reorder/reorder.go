// Package reorder implements build-time row reordering for bitmap
// indexes, after Lemire, Kaser & Aouiche, "Sorting improves word-aligned
// bitmap indexes" (arXiv:0901.3751): sorting the rows of a table by
// their attribute-rank tuples before bitmap construction lengthens the
// runs of identical bits in every column's bitmaps, multiplying the
// effectiveness of run-length codecs (WAH fills, roaring run
// containers).
//
// Two sort orders are provided. Lexicographic order sorts tuples
// digit-by-digit; it maximizes run length in the leading attribute.
// Reflected Gray-code order alternates the sort direction of each digit
// with the parity of the digits before it, so consecutive tuples differ
// in as few digits as possible — spreading the benefit across trailing
// attributes.
//
// The sort produces a permutation, not a new table: Permutation returns
// perm with perm[newPos] = originalRow, Apply reorders any column by it,
// and MapBack translates a result bitmap over reordered rows back to
// original row ids. The catalog passes the columns most significant
// first, by ascending cardinality, and persists the permutation next to
// the indexes, bit-packed at ⌈log2 rows⌉ bits per row, so queries keep
// answering in the table's original row space.
package reorder

import (
	"fmt"
	"sort"

	"bitmapindex/internal/bitvec"
)

// Order selects the row sort applied before bitmap construction.
type Order uint8

const (
	// None leaves rows in their original order.
	None Order = iota
	// Lex sorts rows lexicographically by their attribute-rank tuple.
	Lex
	// Gray sorts rows in reflected (mixed-radix) Gray-code order of
	// their attribute-rank tuple.
	Gray
)

// String returns the order name used in descriptors and flags.
func (o Order) String() string {
	switch o {
	case None:
		return "none"
	case Lex:
		return "lex"
	case Gray:
		return "gray"
	default:
		return fmt.Sprintf("Order(%d)", uint8(o))
	}
}

// ParseOrder parses "none", "lex" or "gray".
func ParseOrder(s string) (Order, error) {
	switch s {
	case "none", "":
		return None, nil
	case "lex":
		return Lex, nil
	case "gray":
		return Gray, nil
	}
	return 0, fmt.Errorf("reorder: unknown order %q", s)
}

// Permutation computes the row permutation of the given sort order over
// the attribute columns: perm[newPos] = originalRow. All columns must
// have equal length; the sort is stable, so rows with identical tuples
// keep their original relative order. Order None returns the identity.
func Permutation(order Order, cols [][]uint64) []int {
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	for _, c := range cols {
		if len(c) != rows {
			panic(fmt.Sprintf("reorder: column lengths differ (%d vs %d)", len(c), rows))
		}
	}
	perm := make([]int, rows)
	for i := range perm {
		perm[i] = i
	}
	switch order {
	case None:
		return perm
	case Lex:
		sort.SliceStable(perm, func(i, j int) bool {
			return lexLess(cols, perm[i], perm[j])
		})
	case Gray:
		sort.SliceStable(perm, func(i, j int) bool {
			return grayLess(cols, perm[i], perm[j])
		})
	default:
		panic(fmt.Sprintf("reorder: unknown order %d", order))
	}
	return perm
}

// lexLess compares rows a and b digit-by-digit in column order.
func lexLess(cols [][]uint64, a, b int) bool {
	for _, c := range cols {
		if c[a] != c[b] {
			return c[a] < c[b]
		}
	}
	return false
}

// grayLess compares rows a and b in reflected mixed-radix Gray-code
// order: walking digits most-significant first, every odd digit passed
// flips the direction of all later comparisons, so consecutive tuples in
// the resulting order differ in few digits (arXiv:0901.3751 §3).
func grayLess(cols [][]uint64, a, b int) bool {
	inverted := false
	for _, c := range cols {
		if c[a] != c[b] {
			return (c[a] < c[b]) != inverted
		}
		if c[a]%2 == 1 {
			inverted = !inverted
		}
	}
	return false
}

// Apply reorders one column by the permutation: out[i] = col[perm[i]].
func Apply(perm []int, col []uint64) []uint64 {
	if len(col) != len(perm) {
		panic(fmt.Sprintf("reorder: column has %d rows, permutation %d", len(col), len(perm)))
	}
	out := make([]uint64, len(col))
	for i, p := range perm {
		out[i] = col[p]
	}
	return out
}

// ApplyBools reorders a bool column (e.g. a null mask) by the
// permutation.
func ApplyBools(perm []int, col []bool) []bool {
	if len(col) != len(perm) {
		panic(fmt.Sprintf("reorder: column has %d rows, permutation %d", len(col), len(perm)))
	}
	out := make([]bool, len(col))
	for i, p := range perm {
		out[i] = col[p]
	}
	return out
}

// MapBack translates a result bitmap over reordered rows back to
// original row ids: bit i of v (a reordered position) becomes bit
// perm[i] of the result. Counts are invariant under the mapping.
func MapBack(perm []int, v *bitvec.Vector) *bitvec.Vector {
	if v.Len() != len(perm) {
		panic(fmt.Sprintf("reorder: bitmap has %d rows, permutation %d", v.Len(), len(perm)))
	}
	out := bitvec.New(v.Len())
	v.Ones(func(i int) bool {
		out.Set(perm[i])
		return true
	})
	return out
}

// Validate checks that perm is a permutation of [0, rows).
func Validate(perm []int, rows int) error {
	if len(perm) != rows {
		return fmt.Errorf("reorder: permutation has %d entries, want %d", len(perm), rows)
	}
	seen := make([]bool, rows)
	for _, p := range perm {
		if p < 0 || p >= rows {
			return fmt.Errorf("reorder: permutation entry %d out of range [0,%d)", p, rows)
		}
		if seen[p] {
			return fmt.Errorf("reorder: permutation repeats row %d", p)
		}
		seen[p] = true
	}
	return nil
}
