package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names one stage of evaluating a selection query. A trace
// accumulates duration per phase across however many times the phase is
// entered (a query fetches many bitmaps; they all land in PhaseFetch).
//
// Phases are not all disjoint: PhaseFetch is wall-clock inclusive of the
// storage sub-phases PhaseDecompress and PhaseExtract, which break out
// where fetch time went. All other phases are disjoint.
type Phase string

const (
	// PhasePlan is optimizer time: estimating plan costs and choosing one.
	PhasePlan Phase = "plan"
	// PhaseFetch is obtaining stored bitmaps (map access, file read, or
	// pool lookup; includes decompress/extract when reading from disk).
	PhaseFetch Phase = "fetch"
	// PhaseDecompress is codec decode time inside fetch: zlib inflate or
	// roaring decode into the dense words.
	PhaseDecompress Phase = "decompress"
	// PhaseExtract is row-major column extraction time inside fetch.
	PhaseExtract Phase = "extract"
	// PhaseBoolOps is bitmap AND/OR/XOR/NOT execution.
	PhaseBoolOps Phase = "bool_ops"
	// PhaseFilter is per-row predicate testing in the engine's P1/P2 plans
	// and RID-list merging in P3.
	PhaseFilter Phase = "filter"
	// PhasePopcount is counting (or enumerating) result bits.
	PhasePopcount Phase = "popcount"
	// PhaseSegments is per-segment bitmap combination inside the segmented
	// evaluator; one call is recorded per segment processed, so Calls
	// doubles as the segment count. Worker time overlaps wall-clock.
	PhaseSegments Phase = "segments"
)

// MaxPhases bounds how many distinct phases one trace can hold. The
// built-in Phase constants are exactly this many; a trace stores its
// aggregates in a fixed array of this size so the record path (Span.End →
// add, on every bitmap fetch and boolean op) allocates nothing. A custom
// phase arriving after the array is full is silently dropped — losing an
// exotic phase beats allocating per query on the hot path.
const MaxPhases = 8

type phaseAgg struct {
	calls     int
	dur       time.Duration
	min, max  time.Duration // per-call extremes (min is meaningful once calls > 0)
	allocB    int64         // heap bytes allocated inside profiled spans
	allocObjs int64         // heap objects allocated inside profiled spans
}

// phaseEntry is one occupied slot of a trace's fixed phase table.
type phaseEntry struct {
	phase Phase
	agg   phaseAgg
}

// PhaseRecord is one phase's aggregate within a finished or running trace.
// Duration is the sum over calls; Min/Max are per-call extremes, so skew
// across many calls of the same phase (e.g. the per-segment `segments`
// records of the parallel evaluator) is visible without keeping every
// sample. AllocBytes/AllocObjects are filled only for profiled traces
// (see Profile) and attribute process-global allocation deltas to the
// phase — exact under serial evaluation, approximate under concurrency.
type PhaseRecord struct {
	Phase        Phase         `json:"phase"`
	Calls        int           `json:"calls"`
	Duration     time.Duration `json:"ns"`
	Min          time.Duration `json:"min_ns"`
	Max          time.Duration `json:"max_ns"`
	AllocBytes   int64         `json:"alloc_bytes,omitempty"`
	AllocObjects int64         `json:"alloc_objects,omitempty"`
}

// Trace records the phases of one query evaluation. The zero value is not
// usable; create with NewTrace. All methods are safe on a nil receiver
// (no-ops returning zero values), so traced code never needs a nil
// check. A Trace may be shared by concurrent phases.
type Trace struct {
	name     string
	id       string
	start    time.Time
	profiled bool // set once before use by Profile; spans capture alloc deltas

	mu      sync.Mutex
	entries [MaxPhases]phaseEntry // guarded by mu; entries[:nphases] are live, in first-entered order
	nphases int                   // guarded by mu
	total   time.Duration         // guarded by mu; set by Finish
	done    bool                  // guarded by mu
}

// traceSeq numbers traces process-wide so exemplars and pprof labels can
// name one specific evaluation even when many share a query string.
var traceSeq atomic.Int64

// NewTrace starts a trace for the named query. Each trace gets a unique
// ID derived from the name and a process-wide sequence number.
func NewTrace(name string) *Trace {
	return &Trace{
		name:  name,
		id:    fmt.Sprintf("%s#%d", name, traceSeq.Add(1)),
		start: time.Now(),
	}
}

// Name returns the query name given to NewTrace.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// ID returns the trace's unique identifier ("name#seq"). Exemplars in the
// registry's JSON export and the pprof label bix_query_id carry this ID,
// linking latency buckets and CPU samples back to one evaluation.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Profile enables per-phase allocation tracking: every subsequent span
// additionally records the heap bytes/objects allocated between Start and
// End (process-global counters, so attribution is exact only for serial
// evaluation). Returns t for chaining. Call before handing the trace to
// an evaluator; not safe to toggle while spans are open.
func (t *Trace) Profile() *Trace {
	if t != nil {
		t.profiled = true
	}
	return t
}

// Profiled reports whether Profile was called.
func (t *Trace) Profiled() bool { return t != nil && t.profiled }

// Add accumulates d into phase p.
func (t *Trace) Add(p Phase, d time.Duration) { t.add(p, d, 0, 0) }

func (t *Trace) add(p Phase, d time.Duration, allocB, allocObjs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var a *phaseAgg
	for i := 0; i < t.nphases; i++ {
		if t.entries[i].phase == p {
			a = &t.entries[i].agg
			break
		}
	}
	if a == nil {
		if t.nphases == MaxPhases {
			t.mu.Unlock()
			return // table full: see MaxPhases
		}
		t.entries[t.nphases] = phaseEntry{phase: p, agg: phaseAgg{min: d, max: d}}
		a = &t.entries[t.nphases].agg
		t.nphases++
	}
	a.calls++
	a.dur += d
	if d < a.min {
		a.min = d
	}
	if d > a.max {
		a.max = d
	}
	a.allocB += allocB
	a.allocObjs += allocObjs
	t.mu.Unlock()
}

// Span is an open phase interval; End closes it and accumulates the
// elapsed time (and, for profiled traces, the allocation delta) into the
// trace.
type Span struct {
	t      *Trace
	p      Phase
	t0     time.Time
	aB, aO int64 // alloc counters at Start, profiled traces only
}

// Start opens a span for phase p. On a nil trace the returned span is a
// no-op.
func (t *Trace) Start(p Phase) Span {
	if t == nil {
		return Span{}
	}
	s := Span{t: t, p: p, t0: time.Now()}
	if t.profiled {
		s.aB, s.aO = ReadAllocs()
	}
	return s
}

// End closes the span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	d := time.Since(s.t0)
	if !s.t.profiled {
		s.t.Add(s.p, d)
		return
	}
	b, o := ReadAllocs()
	s.t.add(s.p, d, b-s.aB, o-s.aO)
}

// Finish freezes the trace total at the elapsed wall-clock time and
// returns it. Further Finish calls return the frozen total.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.total = time.Since(t.start)
		t.done = true
	}
	return t.total
}

// Elapsed returns the frozen total after Finish, or the running elapsed
// time before it.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.total
	}
	return time.Since(t.start)
}

// Phases returns the phase aggregates in first-entered order.
func (t *Trace) Phases() []PhaseRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PhaseRecord, 0, t.nphases)
	for i := 0; i < t.nphases; i++ {
		e := &t.entries[i]
		out = append(out, PhaseRecord{
			Phase: e.phase, Calls: e.agg.calls, Duration: e.agg.dur,
			Min: e.agg.min, Max: e.agg.max,
			AllocBytes: e.agg.allocB, AllocObjects: e.agg.allocObjs,
		})
	}
	return out
}

// CopyPhases copies up to len(dst) phase aggregates into dst in
// first-entered order and returns the number copied. Unlike Phases it
// allocates nothing, so record-path consumers (the flight recorder) can
// snapshot a trace into a pre-allocated buffer. A nil trace copies zero
// records.
func (t *Trace) CopyPhases(dst []PhaseRecord) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := 0; i < t.nphases; i++ {
		if n == len(dst) {
			break
		}
		e := &t.entries[i]
		dst[n] = PhaseRecord{
			Phase: e.phase, Calls: e.agg.calls, Duration: e.agg.dur,
			Min: e.agg.min, Max: e.agg.max,
			AllocBytes: e.agg.allocB, AllocObjects: e.agg.allocObjs,
		}
		n++
	}
	return n
}

// String renders the trace as an indented phase table.
func (t *Trace) String() string {
	if t == nil {
		return "trace <nil>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %s: total %v\n", t.Name(), t.Elapsed())
	for _, r := range t.Phases() {
		fmt.Fprintf(&sb, "  %-12s %5d calls  %v\n", r.Phase, r.Calls, r.Duration)
	}
	return sb.String()
}
