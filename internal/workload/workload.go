// Package workload is the always-on per-attribute access accountant: a
// bounded, atomic accumulator that counts, per attribute, the predicates
// a live query stream evaluates in each operator class (equality,
// one-sided range, interval) — the paper's query class, which is what
// its cost model prices. It is the measured replacement for the design
// layer's "every attribute is queried equally often" assumption: its
// snapshots feed design.AllocateBudgetWeighted, and the advisor compares
// the catalog's current physical design against the recommendation under
// the observed profile. The profile holds nothing else, because nothing
// else reads it.
//
// bixstore feeds it from the one place a served query is accounted, one
// event per predicate of a query that succeeded. The attribute set is
// fixed at construction (it comes from the catalog), so the accumulator
// has statically bounded size: events for unknown attributes are
// ignored, never registered. /debug/workload serves its snapshots.
//
// An update is one atomic add on a pre-resolved counter: no locks, no
// allocation (enforced by an AllocsPerRun test and the //bix:hotpath
// directive).
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

// Event is one observed predicate evaluation against one attribute.
type Event struct {
	// Attr is the catalog attribute name.
	Attr string
	// Class is the operator class.
	Class OpClass
}

// attrState is one attribute's accounting: one atomic counter per
// operator class, for cheap snapshots.
type attrState struct {
	name    string
	card    uint64
	queries [numClasses]atomic.Int64
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
	cls := e.Class
	if cls >= numClasses {
		cls = RangeClass
	}
	a.attrs[i].queries[cls].Add(1)
}

// Snapshot returns a consistent-enough point-in-time profile: each count
// is read atomically (concurrent Observes may land between reads, which is
// fine for design advice).
func (a *Accumulator) Snapshot() Profile {
	p := Profile{Version: ProfileVersion, Attrs: make([]AttrProfile, len(a.attrs))}
	for i, st := range a.attrs {
		p.Attrs[i] = AttrProfile{
			Name:     st.name,
			Card:     st.card,
			Eq:       st.queries[EqClass].Load(),
			Range:    st.queries[RangeClass].Load(),
			Interval: st.queries[IntervalClass].Load(),
		}
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
	}
	return nil
}
