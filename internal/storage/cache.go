package storage

import (
	"fmt"
	"sync/atomic"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/buffer"
	"bitmapindex/internal/core"
)

// CachedStore is a Store with a static pool of decompressed bitmaps: the
// paper's Section 10 buffering, served. NewCached chooses which bitmaps
// to hold, reads them once, and never changes the pool again. Reads of
// pinned bitmaps cost no I/O and are not counted as scans, exactly the
// paper's accounting. The pool capacity is in bitmaps, the paper's unit
// of buffering.
//
// A CachedStore is safe for concurrent use: the pool is immutable after
// NewCached, and only the hit and miss counters change.
type CachedStore struct {
	store    *Store
	pinned   [][]*bitvec.Vector // [comp][slot]; nil when not pinned
	resident int
	hits     atomic.Int64
	misses   atomic.Int64
}

// NewCached wraps the store with a pool of up to capacity pinned
// bitmaps. Capacity 0 pins nothing (every read misses). A pinned file
// that fails to read fails NewCached, with ErrCorrupt when it is damaged.
func NewCached(s *Store, capacity int) (*CachedStore, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("storage: negative cache capacity %d", capacity)
	}
	ix := s.shell
	a := placement(ix, capacity)
	c := &CachedStore{store: s, pinned: make([][]*bitvec.Vector, len(a)), resident: a.Total()}
	q := &query{s: s} // reads each CS or IS file once for all its pinned columns
	err := catch(func() {
		for i, f := range a {
			c.pinned[i] = make([]*bitvec.Vector, ix.ComponentBitmaps(i))
			for j := 0; j < f; j++ {
				c.pinned[i][j] = q.fetch(i, j)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// placement returns how many bitmaps of each component the pool pins; a
// component's pinned bitmaps are its lowest slots. A range-encoded index
// gets Theorem 10.1's optimal assignment (buffer.Optimal), whose cap of
// b_i - 1 per component is the component's stored bitmap count. Theorem
// 10.1 does not cover equality or interval encoding: those pin slots in
// (component, slot) order until the capacity runs out. Either way the
// pool holds min(capacity, NumBitmaps()) bitmaps.
func placement(ix *core.Index, capacity int) buffer.Assignment {
	if ix.Encoding() == core.RangeEncoded {
		return buffer.Optimal(ix.Base(), ix.Cardinality(), capacity)
	}
	a := make(buffer.Assignment, ix.Components())
	for i := range a {
		a[i] = min(capacity, ix.ComponentBitmaps(i))
		capacity -= a[i]
	}
	return a
}

// Store returns the underlying store.
func (c *CachedStore) Store() *Store { return c.store }

// Hits returns the number of bitmap reads served from the pool.
func (c *CachedStore) Hits() int64 { return c.hits.Load() }

// Misses returns the number of bitmap reads that missed the pool.
func (c *CachedStore) Misses() int64 { return c.misses.Load() }

// HitRate returns the fraction of bitmap reads served from the pool.
func (c *CachedStore) HitRate() float64 {
	hits, misses := c.Hits(), c.Misses()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Resident returns the number of bitmaps pinned in the pool.
func (c *CachedStore) Resident() int { return c.resident }

// options wires the pool into one query: pinned bitmaps are buffered and
// served from memory, the rest read through q. The Buffered probe, made
// once per distinct bitmap the query references, counts it as a hit or a
// miss, in the pool's counters and m.
func (c *CachedStore) options(q *query, m *Metrics) *core.EvalOptions {
	return &core.EvalOptions{
		Buffered: func(comp, slot int) bool {
			if c.pinned[comp][slot] != nil {
				c.hits.Add(1)
				if m != nil {
					m.CacheHits++
				}
				return true
			}
			c.misses.Add(1)
			if m != nil {
				m.CacheMisses++
			}
			return false
		},
		Fetch: func(comp, slot int) *bitvec.Vector {
			if v := c.pinned[comp][slot]; v != nil {
				return v
			}
			return q.fetch(comp, slot)
		},
	}
}

// Eval evaluates (A op v) through the pool: pinned bitmaps cost nothing
// and are excluded from the scan count, the rest read through the
// underlying store (accounted into m, which may be nil). The returned
// vector is the caller's.
func (c *CachedStore) Eval(op core.Op, v uint64, m *Metrics) (*bitvec.Vector, error) {
	res := bitvec.New(c.store.shell.Rows())
	q := &query{s: c.store, m: m, pooled: true}
	if _, err := c.store.eval(op, v, m, q, c.options(q, m), res, false); err != nil {
		return nil, err
	}
	return res, nil
}

// Count is Store.Count through the pool: the number of records
// qualifying for (A op v), with the bitmap also written into dst when dst
// is non-nil, and the costs Eval accounts.
func (c *CachedStore) Count(op core.Op, v uint64, dst *bitvec.Vector, m *Metrics) (int, error) {
	q := &query{s: c.store, m: m, pooled: true}
	return c.store.eval(op, v, m, q, c.options(q, m), dst, true)
}
