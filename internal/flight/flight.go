// Package flight is the query flight recorder: a bounded in-memory ring of
// recent query executions, the retrospective-debugging black box behind
// /debug/queries. Every completed query lands exactly one Record, written
// by the code that owns the query's trace (bixstore's finishQuery, tagged
// http-query or table-query when served), carrying its trace ID, plan
// tag, cost counters, per-phase timing/allocation aggregates and the
// query's own bitmap-pool hits and misses. Capacity is fixed at
// construction; the record path performs no allocation in steady state
// (one atomic cursor bump plus a per-slot mutex), so recording 100% of
// queries costs well under the evaluator's own bookkeeping.
//
// The ring alone would forget exactly the queries worth remembering: a
// latency spike that happened more than Cap queries ago is overwritten.
// A small top-K outlier annex therefore retains the slowest queries seen
// so far regardless of ring wrap, reservoir-style: the hot path compares
// the new total against an atomically cached admission threshold and only
// takes the annex lock when the record actually qualifies.
package flight

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bitmapindex/internal/telemetry"
)

// DefaultCapacity is the ring size of the package-default recorder: large
// enough to cover a burst of debugging context, small enough that the
// resident footprint (about 1KB per slot) stays negligible.
const DefaultCapacity = 512

// maxPhases bounds the per-slot phase snapshot; a trace can never carry
// more distinct phases than its own fixed table holds.
const maxPhases = telemetry.MaxPhases

// outlierK is the annex size: the K slowest queries retained past wrap.
const outlierK = 8

// Record is one completed query execution. Scans and the operation
// counts are the query's core.Stats (the paper's I/O and CPU cost
// measures); FilesRead, BytesRead, CacheHits and CacheMisses are its
// storage.Metrics, the cache counts taken per query (one hit or miss per
// distinct stored bitmap it references), not as deltas of process-wide
// counters. Rows is the result cardinality. Phases is filled in snapshots
// only — the ring stores phase aggregates in fixed per-slot arrays so the
// record path allocates nothing.
type Record struct {
	Seq     uint64    `json:"seq"`
	TraceID string    `json:"trace_id,omitempty"`
	Query   string    `json:"query,omitempty"`
	Plan    string    `json:"plan"`
	Op      string    `json:"op,omitempty"`
	Value   uint64    `json:"value,omitempty"`
	Start   time.Time `json:"start"`

	Total     time.Duration `json:"ns"`
	Rows      int64         `json:"rows"`
	FilesRead int           `json:"files_read,omitempty"`
	BytesRead int64         `json:"bytes_read,omitempty"`

	Scans int `json:"scans"`
	Ands  int `json:"ands"`
	Ors   int `json:"ors"`
	Xors  int `json:"xors"`
	Nots  int `json:"nots"`

	AllocBytes   int64 `json:"alloc_bytes,omitempty"`
	AllocObjects int64 `json:"alloc_objects,omitempty"`

	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`

	Phases []telemetry.PhaseRecord `json:"phases,omitempty"`
}

// slot is one pre-allocated ring (or annex) entry. The mutex orders one
// writer claiming the slot against concurrent Snapshot readers; writers
// never contend with each other on a slot until the ring wraps a full
// lap within one write's critical section, which the atomic cursor makes
// impossible for rings larger than the writer count.
type slot struct {
	mu      sync.Mutex
	rec     Record
	phases  [maxPhases]telemetry.PhaseRecord
	nphases int
}

// Recorder is a fixed-capacity query flight recorder. The zero value is
// not usable; create with New. All methods are safe for concurrent use
// and safe on a nil receiver (no-ops), so call sites can record
// unconditionally.
type Recorder struct {
	next  atomic.Uint64 // next sequence number; slot = seq % len(slots)
	slots []slot

	// Outlier annex: admission threshold is cached in outMin so the hot
	// path can reject non-outliers with one atomic load. outMin holds
	// MinInt64 until the annex fills, then the smallest retained total.
	outMin   atomic.Int64
	outMu    sync.Mutex
	outliers []slot // len outlierK, guarded by outMu (slot mutexes unused)
	outLen   int    // guarded by outMu
}

// New creates a recorder retaining the last capacity queries (plus the
// outlier annex). capacity <= 0 selects DefaultCapacity.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{
		slots:    make([]slot, capacity),
		outliers: make([]slot, outlierK),
	}
	r.outMin.Store(math.MinInt64)
	return r
}

var defaultRecorder = New(DefaultCapacity)

// Default returns the process-wide recorder: bixstore's finishQuery
// records into it and /debug/queries reads it.
func Default() *Recorder { return defaultRecorder }

// Add records one completed query. rec's Seq and Phases fields are
// ignored (Seq is assigned from the cursor; phases are snapshotted from
// tr into the slot's fixed buffer). An AllocBytes or AllocObjects left at
// zero is filled with the sum over tr's phases. tr may be nil — the phase
// fields then stay empty. The caller keeps ownership of rec; Add
// copies it.
//
//bix:hotpath
func (r *Recorder) Add(rec *Record, tr *telemetry.Trace) {
	if r == nil {
		return
	}
	seq := r.next.Add(1) - 1
	s := &r.slots[seq%uint64(len(r.slots))]
	s.mu.Lock()
	s.rec = *rec
	s.rec.Seq = seq
	s.rec.Phases = nil
	if s.rec.Start.IsZero() {
		s.rec.Start = time.Now()
	}
	s.nphases = tr.CopyPhases(s.phases[:])
	sumBytes, sumObjects := s.rec.AllocBytes == 0, s.rec.AllocObjects == 0
	for i := 0; i < s.nphases; i++ {
		p := &s.phases[i]
		if sumBytes {
			s.rec.AllocBytes += p.AllocBytes
		}
		if sumObjects {
			s.rec.AllocObjects += p.AllocObjects
		}
	}
	total := int64(s.rec.Total)
	s.mu.Unlock()
	if total > r.outMin.Load() {
		r.addOutlier(s, seq)
	}
}

// addOutlier copies the just-written ring slot into the annex, evicting
// the smallest retained total. Rare path: it runs only when the admission
// threshold says the record ranks among the K slowest seen.
func (r *Recorder) addOutlier(s *slot, seq uint64) {
	r.outMu.Lock()
	defer r.outMu.Unlock()

	// Re-read the record under its slot lock: by the time we got here the
	// ring may have lapped and overwritten it with a different query.
	s.mu.Lock()
	if s.rec.Seq != seq {
		s.mu.Unlock()
		return
	}
	rec := s.rec
	var phases [maxPhases]telemetry.PhaseRecord
	nphases := s.nphases
	copy(phases[:], s.phases[:nphases])
	s.mu.Unlock()

	// Find the eviction victim (or the next free annex slot).
	victim := -1
	min := int64(math.MaxInt64)
	if r.outLen < len(r.outliers) {
		victim = r.outLen
		r.outLen++
	} else {
		for i := range r.outliers {
			if t := int64(r.outliers[i].rec.Total); t < min {
				min, victim = t, i
			}
		}
		if int64(rec.Total) <= min {
			return // raced with a concurrent insert that raised the bar
		}
	}
	o := &r.outliers[victim]
	o.rec = rec
	o.phases = phases
	o.nphases = nphases

	// Recompute the cached admission threshold.
	if r.outLen < len(r.outliers) {
		return // annex not full: admit everything
	}
	min = int64(math.MaxInt64)
	for i := range r.outliers {
		if t := int64(r.outliers[i].rec.Total); t < min {
			min = t
		}
	}
	r.outMin.Store(min)
}

// Len returns the number of records currently retained in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Seq returns the total number of records accepted since creation,
// including ones the ring has since overwritten.
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Snapshot returns the retained ring records oldest-first, with Phases
// expanded. Records being written concurrently are either included
// complete or not yet visible — never torn.
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	out := make([]Record, 0, r.Len())
	for i := range r.slots {
		if rec, ok := r.slots[i].snapshot(); ok {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Outliers returns the retained latency outliers, slowest first. Outliers
// survive ring wrap: a spike from thousands of queries ago is still here.
func (r *Recorder) Outliers() []Record {
	if r == nil {
		return nil
	}
	r.outMu.Lock()
	out := make([]Record, 0, r.outLen)
	for i := 0; i < r.outLen; i++ {
		o := &r.outliers[i]
		rec := o.rec
		rec.Phases = append([]telemetry.PhaseRecord(nil), o.phases[:o.nphases]...)
		out = append(out, rec)
	}
	r.outMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// snapshot copies the slot's record with phases expanded; ok is false for
// slots never written (Add stamps Start on every record, so a zero Start
// marks a virgin slot).
func (s *slot) snapshot() (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rec.Start.IsZero() {
		return Record{}, false
	}
	rec := s.rec
	rec.Phases = append([]telemetry.PhaseRecord(nil), s.phases[:s.nphases]...)
	return rec, true
}
