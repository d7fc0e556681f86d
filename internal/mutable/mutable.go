// Package mutable layers batch maintenance on top of the immutable bitmap
// index: a tombstone bitmap for deletions and an in-memory append segment,
// folded into a fresh base index by Compact. This is the maintenance
// lifecycle the paper's read-mostly DSS environment implies — queries at
// bitmap speed at all times, cheap row-level changes between batch loads,
// and index rebuilds only at compaction points.
//
// Queries see one contiguous row space: base rows first (minus
// tombstones), then appended rows. Eval and Compact work a 64-row word at
// a time over the base rows and touch each append row once. Eval costs the
// base evaluation plus O(rows/64 + append rows), with no per-row base
// work; Compact decodes the base with O(rows/64) word operations per
// stored bitmap, copies each live value once, and rebuilds. An Index is
// safe for concurrent use; a read-write mutex serializes mutations against
// queries.
package mutable

import (
	"fmt"
	"math/bits"
	"sync"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
)

// Index is a mutable view over an immutable core.Index.
type Index struct {
	mu sync.RWMutex

	card uint64
	base *core.Index // guarded by mu
	enc  core.Encoding
	// design picks the base sequence at (re)build time, from the current
	// cardinality; fixed at New.
	design func(card uint64) (core.Base, error)

	dead *bitvec.Vector // guarded by mu; tombstones over base rows

	// The append segment: values and, one bit per append row, null and
	// tombstone words.
	deltaVals  []uint64 // guarded by mu
	deltaNulls rowBits  // guarded by mu
	deltaDead  rowBits  // guarded by mu
	deltaLive  int      // guarded by mu
}

// rowBits is a growable bitmap over append-segment positions.
type rowBits []uint64

func (b rowBits) get(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

func (b rowBits) set(i int) { b[i/64] |= 1 << uint(i%64) }

// grow makes room for position i, the next one appended.
func (b *rowBits) grow(i int) {
	if i%64 == 0 {
		*b = append(*b, 0)
	}
}

// New creates an empty mutable index with the given attribute cardinality
// and encoding; design picks the base sequence whenever the base index is
// (re)built (nil means the knee would be a design-package concern, so the
// caller must supply one — core has no dependency on design).
func New(card uint64, design func(card uint64) (core.Base, error), enc core.Encoding) (*Index, error) {
	if design == nil {
		return nil, fmt.Errorf("mutable: nil design function")
	}
	m := &Index{card: card, enc: enc, design: design}
	if err := m.rebuild(nil, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// FromIndex wraps an existing immutable index; later compactions reuse its
// base sequence.
func FromIndex(ix *core.Index) *Index {
	base := ix.Base()
	return &Index{
		card:   ix.Cardinality(),
		base:   ix,
		enc:    ix.Encoding(),
		design: func(uint64) (core.Base, error) { return base, nil },
		dead:   bitvec.New(ix.Rows()),
	}
}

// rebuild replaces the base index and resets tombstones and the append
// segment. Callers hold mu (or, in New, the index is not yet shared).
//
//bix:lockheld
func (m *Index) rebuild(vals []uint64, nulls []bool) error {
	base, err := m.design(m.card)
	if err != nil {
		return err
	}
	var opts *core.BuildOptions
	if nulls != nil {
		opts = &core.BuildOptions{Nulls: nulls}
	}
	ix, err := core.Build(vals, m.card, base, m.enc, opts)
	if err != nil {
		return err
	}
	m.base = ix
	m.dead = bitvec.New(ix.Rows())
	m.deltaVals = nil
	m.deltaNulls = nil
	m.deltaDead = nil
	m.deltaLive = 0
	return nil
}

// Rows returns the total row count including tombstoned rows (row ids are
// stable until Compact).
func (m *Index) Rows() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.base.Rows() + len(m.deltaVals)
}

// Live returns the number of non-deleted rows.
func (m *Index) Live() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.base.Rows() - m.dead.Count() + m.deltaLive
}

// DeltaRows returns the size of the unindexed append segment, the signal
// for scheduling a Compact.
func (m *Index) DeltaRows() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.deltaVals)
}

// Append adds a row and returns its id.
func (m *Index) Append(v uint64) (int, error) {
	if v >= m.card {
		return 0, fmt.Errorf("%w: value %d, cardinality %d", core.ErrValueOutOfRange, v, m.card)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.push(v, false), nil
}

// AppendNull adds a null row and returns its id.
func (m *Index) AppendNull() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.push(0, true)
}

// push appends one live row to the append segment and returns its id.
// Callers hold mu.
//
//bix:lockheld
func (m *Index) push(v uint64, null bool) int {
	d := len(m.deltaVals)
	m.deltaVals = append(m.deltaVals, v)
	m.deltaNulls.grow(d)
	m.deltaDead.grow(d)
	if null {
		m.deltaNulls.set(d)
	}
	m.deltaLive++
	return m.base.Rows() + d
}

// Delete tombstones a row. Deleting a row twice is a no-op.
func (m *Index) Delete(row int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case row < 0 || row >= m.base.Rows()+len(m.deltaVals):
		return fmt.Errorf("mutable: row %d out of range [0,%d)", row, m.base.Rows()+len(m.deltaVals))
	case row < m.base.Rows():
		m.dead.Set(row)
	default:
		d := row - m.base.Rows()
		if !m.deltaDead.get(d) {
			m.deltaDead.set(d)
			m.deltaLive--
		}
	}
	return nil
}

// Eval evaluates (A op v) over the combined row space. The output is
// allocated once: the base index writes its bitmap answer straight into
// the output's base prefix, tombstones are cleared from it in place, and
// the append segment's matches are built as 64-row words and stored
// after it. Beyond the base evaluation the cost is O(rows/64 + append
// rows), with no per-row work over the base; the append segment is small
// by construction (that is what Compact is for).
func (m *Index) Eval(op core.Op, v uint64) *bitvec.Vector {
	m.mu.RLock()
	defer m.mu.RUnlock()
	baseRows := m.base.Rows()
	out := make([]uint64, (baseRows+len(m.deltaVals)+63)/64)
	// prefix is a baseRows-bit view of out's first words; it is dropped
	// once the base answer is in, before the append rows land in them.
	prefix, err := bitvec.FromWords(baseRows, out[:(baseRows+63)/64])
	if err != nil {
		panic(err) // out holds at least the words baseRows needs
	}
	m.base.EvalInto(op, v, prefix, nil)
	prefix.AndNot(m.dead)
	// Append row d is output bit baseRows+d: delta word k lands in output
	// words at+k and at+k+1, shifted by sh.
	at, sh := baseRows/64, uint(baseRows%64)
	lo, span, neg := interval(op, v)
	for k := 0; k*64 < len(m.deltaVals); k++ {
		var word uint64
		for j, dv := range m.deltaVals[k*64 : min(k*64+64, len(m.deltaVals))] {
			if (dv-lo <= span) != neg {
				word |= 1 << uint(j)
			}
		}
		word &^= m.deltaNulls[k] | m.deltaDead[k]
		out[at+k] |= word << sh
		if hi := word >> (64 - sh); hi != 0 { // 0 when sh is 0
			out[at+k+1] |= hi
		}
	}
	res, err := bitvec.FromWords(baseRows+len(m.deltaVals), out)
	if err != nil {
		panic(err) // out has exactly the words the row count needs
	}
	return res
}

// interval turns (op, v) into one unsigned interval test: a value a
// matches iff (a-lo <= span) != neg. Ne is the complement of Eq, and an
// empty predicate (< 0, > max) is the complement of every value.
func interval(op core.Op, v uint64) (lo, span uint64, neg bool) {
	const all = ^uint64(0)
	switch op {
	case core.Lt:
		if v == 0 {
			return 0, all, true
		}
		return 0, v - 1, false
	case core.Le:
		return 0, v, false
	case core.Gt:
		if v == all {
			return 0, all, true
		}
		return v + 1, all - v - 1, false
	case core.Ge:
		return v, all - v, false
	case core.Eq:
		return v, 0, false
	case core.Ne:
		return v, 0, true
	default:
		panic("mutable: invalid op")
	}
}

// Value returns the value at a row and whether the row is live and
// non-null.
func (m *Index) Value(row int) (uint64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	baseRows := m.base.Rows()
	switch {
	case row < 0 || row >= baseRows+len(m.deltaVals):
		return 0, false
	case row < baseRows:
		if m.dead.Get(row) {
			return 0, false
		}
		return m.base.Value(row)
	default:
		d := row - baseRows
		if m.deltaDead.get(d) || m.deltaNulls.get(d) {
			return 0, false
		}
		return m.deltaVals[d], true
	}
}

// Compact folds tombstones and the append segment into a freshly built
// base index. Row ids are renumbered densely (tombstoned rows vanish).
// Live base values are decoded a 64-row word at a time from the base's
// component bitmaps (core.Index.DecodeWord), with tombstoned rows dropped
// by word masks, and each live append row is copied once. Before the
// rebuild that is O(rows/64) word operations per stored bitmap plus one
// copy per live row; no base row is probed on its own.
func (m *Index) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var c collector
	c.vals = make([]uint64, 0, m.base.Rows()-m.dead.Count()+m.deltaLive)
	baseRows := m.base.Rows()
	var dec [64]uint64
	for w, dead := range m.dead.Words() {
		live := ^dead
		if n := baseRows - w*64; n < 64 {
			live &= 1<<uint(n) - 1
		}
		nn := m.base.DecodeWord(w, live, &dec)
		c.add(live, nn, dec[:])
	}
	for k, dead := range m.deltaDead {
		live := ^dead
		if n := len(m.deltaVals) - k*64; n < 64 {
			live &= 1<<uint(n) - 1
		}
		c.add(live, ^m.deltaNulls[k], m.deltaVals[k*64:])
	}
	return m.rebuild(c.vals, c.nulls)
}

// collector gathers Compact's live rows in row order.
type collector struct {
	vals  []uint64
	nulls []bool // nil until the first null row
}

// add appends the rows of one 64-row word that live selects: row k is
// vals[k] when nn has bit k, else null.
func (c *collector) add(live, nn uint64, vals []uint64) {
	for ; live != 0; live &= live - 1 {
		k := bits.TrailingZeros64(live)
		null := nn&(1<<uint(k)) == 0
		if null && c.nulls == nil {
			c.nulls = make([]bool, len(c.vals), cap(c.vals))
		}
		if c.nulls != nil {
			c.nulls = append(c.nulls, null)
		}
		if null {
			c.vals = append(c.vals, 0)
		} else {
			c.vals = append(c.vals, vals[k])
		}
	}
}

// Base returns the current immutable base index (for storage, statistics,
// aggregation over base rows). It does not include the append segment.
func (m *Index) Base() *core.Index {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.base
}
