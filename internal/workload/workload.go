// Package workload is the always-on per-attribute access accountant: a
// bounded, atomic accumulator that records which attributes a live query
// stream actually touches, with which operators and constants, and at
// what physical cost. It is the measured replacement for the design
// layer's "every attribute is queried equally often" assumption — its
// snapshots feed design.AllocateBudgetWeighted and the advisor compares
// the catalog's current physical design against the recommendation under
// the observed profile.
//
// The accumulator is fed by catalog.Table's Query and Count (one event
// per predicate) and by bixstore serve's index-mode /query handler, from
// the numbers of the query's one flight record. The attribute set is
// fixed at construction (it comes from the catalog), so the accumulator
// has statically bounded size: events for unknown attributes are
// ignored, never registered. /debug/workload serves its snapshots.
//
// Steady-state updates are a handful of atomic adds on pre-resolved
// counters: no locks, no allocation (enforced by an AllocsPerRun test and
// the //bix:hotpath directive).
package workload

import (
	"sync/atomic"

	"bitmapindex/internal/core"
)

// OpClass buckets operators the way the cost model prices them.
type OpClass uint8

const (
	// EqClass is an equality predicate (=, !=): one digit-equality chain.
	EqClass OpClass = iota
	// RangeClass is a one-sided range predicate (<, <=, >, >=).
	RangeClass
	// IntervalClass is a two-sided interval (between): evaluated as two
	// one-sided range predicates, and weighted as such by Demands.
	IntervalClass

	numClasses
)

// String returns the class's name.
func (c OpClass) String() string {
	switch c {
	case EqClass:
		return "eq"
	case RangeClass:
		return "range"
	default:
		return "interval"
	}
}

// ClassOf maps an operator to its class. Interval queries have no single
// operator; callers evaluating a between observe IntervalClass directly.
func ClassOf(op core.Op) OpClass {
	if op.IsRange() {
		return RangeClass
	}
	return EqClass
}

// HistBuckets is the resolution of the per-attribute selectivity and
// constant-position histograms: equal-width buckets over [0, 1].
const HistBuckets = 10

// Event is one observed predicate evaluation against one attribute.
type Event struct {
	// Attr is the catalog attribute name.
	Attr string
	// Class is the operator class.
	Class OpClass
	// Value is the query constant in rank space and Card the attribute
	// cardinality; together they place the constant-position bucket
	// (Value/Card). Card 0 means the accumulator's registered cardinality.
	Value uint64
	Card  uint64
	// Matches/Rows is the observed selectivity. A negative Matches means
	// the caller did not count the result; the selectivity histogram is
	// then skipped.
	Matches int
	Rows    int
	// Physical costs of this predicate alone.
	Scans       int
	Bytes       int64
	NS          int64
	CacheHits   int
	CacheMisses int
}

// attrState is one attribute's accounting: atomics for cheap snapshots.
type attrState struct {
	name string
	card uint64

	queries     [numClasses]atomic.Int64
	scans       atomic.Int64
	bytes       atomic.Int64
	latencyNS   atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	sel         [HistBuckets]atomic.Int64
	pos         [HistBuckets]atomic.Int64
}

// AttrInfo names one attribute of the accumulator's fixed set.
type AttrInfo struct {
	Name string
	Card uint64
}

// Accumulator tracks per-attribute access statistics for a fixed
// attribute set. All methods are safe for concurrent use.
type Accumulator struct {
	attrs  []*attrState
	byName map[string]int
}

// New builds an accumulator over the catalog's attribute set.
func New(attrs []AttrInfo) *Accumulator {
	a := &Accumulator{byName: make(map[string]int, len(attrs))}
	for _, ai := range attrs {
		if _, dup := a.byName[ai.Name]; dup {
			continue
		}
		st := &attrState{name: ai.Name, card: ai.Card}
		a.byName[ai.Name] = len(a.attrs)
		a.attrs = append(a.attrs, st)
	}
	return a
}

// Attrs returns the registered attribute set in registration order.
func (a *Accumulator) Attrs() []AttrInfo {
	out := make([]AttrInfo, len(a.attrs))
	for i, st := range a.attrs {
		out[i] = AttrInfo{Name: st.name, Card: st.card}
	}
	return out
}

// Observe records one predicate evaluation. Events for attributes outside
// the registered set are dropped. The steady-state path is
// allocation-free.
//
//bix:hotpath
func (a *Accumulator) Observe(e Event) {
	i, ok := a.byName[e.Attr]
	if !ok {
		return
	}
	st := a.attrs[i]
	cls := e.Class
	if cls >= numClasses {
		cls = RangeClass
	}
	st.queries[cls].Add(1)
	if e.Scans != 0 {
		st.scans.Add(int64(e.Scans))
	}
	if e.Bytes != 0 {
		st.bytes.Add(e.Bytes)
	}
	if e.NS != 0 {
		st.latencyNS.Add(e.NS)
	}
	if e.CacheHits != 0 {
		st.cacheHits.Add(int64(e.CacheHits))
	}
	if e.CacheMisses != 0 {
		st.cacheMisses.Add(int64(e.CacheMisses))
	}
	card := e.Card
	if card == 0 {
		card = st.card
	}
	if card > 0 {
		st.pos[bucket(float64(e.Value), float64(card))].Add(1)
	}
	if e.Matches >= 0 && e.Rows > 0 {
		st.sel[bucket(float64(e.Matches), float64(e.Rows))].Add(1)
	}
}

// bucket maps v/total in [0, 1] to one of HistBuckets equal-width
// buckets, clamping out-of-range ratios into the edge buckets.
func bucket(v, total float64) int {
	i := int(v / total * HistBuckets)
	if i < 0 {
		return 0
	}
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// Snapshot returns a consistent-enough point-in-time profile: each field
// is read atomically (concurrent Observes may land between field reads,
// which is fine for design advice).
func (a *Accumulator) Snapshot() Profile {
	p := Profile{Version: ProfileVersion, Attrs: make([]AttrProfile, len(a.attrs))}
	for i, st := range a.attrs {
		ap := AttrProfile{
			Name:        st.name,
			Card:        st.card,
			Eq:          st.queries[EqClass].Load(),
			Range:       st.queries[RangeClass].Load(),
			Interval:    st.queries[IntervalClass].Load(),
			Scans:       st.scans.Load(),
			BytesRead:   st.bytes.Load(),
			LatencyNS:   st.latencyNS.Load(),
			CacheHits:   st.cacheHits.Load(),
			CacheMisses: st.cacheMisses.Load(),
			Selectivity: make([]int64, HistBuckets),
			Position:    make([]int64, HistBuckets),
		}
		for b := 0; b < HistBuckets; b++ {
			ap.Selectivity[b] = st.sel[b].Load()
			ap.Position[b] = st.pos[b].Load()
		}
		p.Attrs[i] = ap
	}
	return p
}

// AddProfile replays a saved profile into the accumulator — the restart
// path: serve loads the previous run's snapshot so advice does not start
// from a cold uniform assumption. The profile must validate against the
// accumulator's attribute set.
func (a *Accumulator) AddProfile(p Profile) error {
	if err := p.Validate(a.Attrs()); err != nil {
		return err
	}
	for _, ap := range p.Attrs {
		st := a.attrs[a.byName[ap.Name]]
		st.queries[EqClass].Add(ap.Eq)
		st.queries[RangeClass].Add(ap.Range)
		st.queries[IntervalClass].Add(ap.Interval)
		st.scans.Add(ap.Scans)
		st.bytes.Add(ap.BytesRead)
		st.latencyNS.Add(ap.LatencyNS)
		st.cacheHits.Add(ap.CacheHits)
		st.cacheMisses.Add(ap.CacheMisses)
		for b := 0; b < HistBuckets && b < len(ap.Selectivity); b++ {
			st.sel[b].Add(ap.Selectivity[b])
		}
		for b := 0; b < HistBuckets && b < len(ap.Position); b++ {
			st.pos[b].Add(ap.Position[b])
		}
	}
	return nil
}
