// Package telemetry is the repo-wide observability layer: a
// zero-dependency, concurrency-safe metrics registry (atomic counters and
// fixed-bucket histograms), a lightweight per-query trace of evaluation
// phases, and exporters — Prometheus text exposition, OpenMetrics, a JSON
// snapshot and a net/http handler.
//
// The paper's two cost measures — bitmap scans (I/O) and bitmap operations
// (CPU) — are collected by core.Stats per call. The evaluators publish
// nothing: a served query's scans, operations and latency reach the
// process-wide Default registry once, from bixstore serve's finishQuery,
// which builds the query's flight record and feeds every sink from it.
// Other per-query costs (storage.Metrics) stay with the query and are not
// mirrored here. The well-known metric set lives in metrics.go and is
// documented in DESIGN.md.
//
// All registry mutations are lock-free atomic operations; creating or
// looking up a metric takes a mutex. A Trace is owned by one query but is
// itself safe for concurrent phase recording.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is a programming error but is not checked on the
// hot path; the exporters render whatever accumulated).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// atomicFloat accumulates a float64 with compare-and-swap, for histogram
// sums.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// metricID renders the canonical identity of a metric: the name plus its
// sorted label set, e.g. `bix_ops_total{kind="and"}`. It doubles as the
// Prometheus sample line prefix and the JSON snapshot key.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Name, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}
