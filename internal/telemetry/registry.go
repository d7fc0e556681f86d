package telemetry

import (
	"fmt"
	"sync"
)

type metricKind uint8

const (
	counterKind metricKind = iota
	histogramKind
)

func (k metricKind) String() string {
	if k == counterKind {
		return "counter"
	}
	return "histogram"
}

// metric is one registered time series: identity plus exactly one of the
// two instrument types.
type metric struct {
	name   string
	help   string
	labels []Label
	id     string
	kind   metricKind

	c *Counter
	h *Histogram
}

// Registry is a named collection of metrics. Metric creation is
// get-or-create: asking for an existing (name, labels) pair returns the
// same instrument, so packages can declare their metrics independently.
// Requesting an existing id with a different instrument kind panics — that
// is a programming error, not a runtime condition.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*metric // guarded by mu
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{byID: make(map[string]*metric)}
}

var defaultRegistry = New()

// Default returns the process-wide registry: bixstore's finishQuery feeds
// it, once per query.
func Default() *Registry { return defaultRegistry }

// get returns the metric registered under (name, labels), creating it on
// first use; bounds are a new histogram's bucket bounds.
func (r *Registry) get(name, help string, kind metricKind, bounds []float64, labels []Label) *metric {
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byID[id]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %s already registered as %s, requested as %s", id, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: append([]Label(nil), labels...), id: id, kind: kind}
	if kind == counterKind {
		m.c = &Counter{}
	} else {
		m.h = newHistogram(bounds)
	}
	r.byID[id] = m
	return m
}

// Counter returns the counter with the given name and labels, creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.get(name, help, counterKind, nil, labels).c
}

// Histogram returns the histogram with the given name, labels and bucket
// upper bounds, creating it on first use. The bounds of an already
// registered histogram are kept; they are fixed at creation.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.get(name, help, histogramKind, bounds, labels).h
}

// snapshotMetrics returns the registered metrics sorted by id, for the
// exporters.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.byID))
	for _, m := range r.byID {
		out = append(out, m)
	}
	sortMetrics(out)
	return out
}

func sortMetrics(ms []*metric) {
	// Sort by name first so same-name label variants stay adjacent for the
	// grouped # HELP / # TYPE headers, then by id for determinism.
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && less(ms[j], ms[j-1]); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

func less(a, b *metric) bool {
	if a.name != b.name {
		return a.name < b.name
	}
	return a.id < b.id
}
