package telemetry

import (
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram with atomic counters. Buckets are
// defined by their inclusive upper bounds; an implicit +Inf bucket catches
// the overflow, matching Prometheus histogram semantics. Each bucket can
// additionally hold one exemplar — the most recent observation recorded
// with ObserveExemplar — linking the bucket back to a concrete trace ID.
type Histogram struct {
	bounds    []float64      // strictly increasing upper bounds
	counts    []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count     atomic.Int64
	sum       atomicFloat
	exemplars []atomic.Pointer[Exemplar] // len(bounds)+1, last-write-wins per bucket
}

// Exemplar ties one observation to the trace that produced it, in the
// spirit of OpenMetrics exemplars: a recent raw value per bucket plus the
// trace ID to look up for detail. Exported in the JSON snapshot only (the
// 0.0.4 text format predates exemplars).
type Exemplar struct {
	Value   float64   `json:"value"`
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveExemplar records one observation and stamps its bucket's exemplar
// with the trace ID (last write wins; an empty ID records no exemplar).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
	}
}

// BucketExemplar returns the exemplar of bucket i (0..len(Bounds()), the
// last being +Inf), or nil when that bucket has none yet.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Bounds returns the configured upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Cumulative returns the cumulative count per bucket, ending with the +Inf
// bucket (which equals Count up to concurrent-update skew).
func (h *Histogram) Cumulative() []int64 {
	out := make([]int64, len(h.counts))
	var c int64
	for i := range h.counts {
		c += h.counts[i].Load()
		out[i] = c
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the containing bucket, the standard Prometheus histogram_quantile
// estimate. Observations in the +Inf bucket clamp to the highest finite
// bound. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	cum := h.Cumulative()
	total := cum[len(cum)-1]
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	for i, c := range cum {
		if float64(c) < target {
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lower := 0.0
		var below int64
		if i > 0 {
			lower = h.bounds[i-1]
			below = cum[i-1]
		}
		width := h.bounds[i] - lower
		in := c - below
		if in == 0 {
			return h.bounds[i]
		}
		return lower + width*(target-float64(below))/float64(in)
	}
	return h.bounds[len(h.bounds)-1]
}
