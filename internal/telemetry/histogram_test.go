package telemetry

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestQuantileExport covers the interpolated quantile estimates as they
// surface in Snapshot: interior interpolation, first-bucket lower bound 0,
// +Inf clamping to the highest finite bound, and the empty histogram.
func TestQuantileExport(t *testing.T) {
	r := New()
	h := r.Histogram("bix_t_q_seconds", "help", []float64{1, 2, 4})

	// Empty: quantiles are 0 by definition.
	s := r.Snapshot().Histograms["bix_t_q_seconds"]
	if s.P50 != 0 || s.P90 != 0 || s.P99 != 0 {
		t.Fatalf("empty histogram quantiles = %+v, want zeros", s)
	}

	// 10 observations in (1,2]: P50 interpolates inside [1,2].
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	s = r.Snapshot().Histograms["bix_t_q_seconds"]
	if s.P50 < 1 || s.P50 > 2 {
		t.Errorf("P50 = %v, want within (1,2]", s.P50)
	}
	// target = 0.5*10 = 5 of 10 in-bucket: lower + width*5/10 = 1.5.
	if math.Abs(s.P50-1.5) > 1e-9 {
		t.Errorf("P50 = %v, want 1.5 by linear interpolation", s.P50)
	}

	// Overflow observations clamp to the highest finite bound.
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	s = r.Snapshot().Histograms["bix_t_q_seconds"]
	if s.P99 != 4 {
		t.Errorf("P99 with +Inf mass = %v, want clamp to 4", s.P99)
	}

	// First-bucket interpolation uses 0 as the implicit lower bound.
	r2 := New()
	h2 := r2.Histogram("bix_t_q2_seconds", "help", []float64{1, 2})
	h2.Observe(0.5)
	h2.Observe(0.5)
	p50 := r2.Snapshot().Histograms["bix_t_q2_seconds"].P50
	if p50 <= 0 || p50 > 1 {
		t.Errorf("first-bucket P50 = %v, want in (0,1]", p50)
	}
}

// TestExemplarExport checks ObserveExemplar lands the trace ID on the
// right bucket, that the most recent write wins, and that the JSON
// snapshot carries exemplars through encoding.
func TestExemplarExport(t *testing.T) {
	r := New()
	h := r.Histogram("bix_t_ex_seconds", "help", []float64{1, 10})
	h.ObserveExemplar(0.5, "q#1")
	h.ObserveExemplar(5, "q#2")
	h.ObserveExemplar(0.7, "q#3") // same bucket as q#1: last write wins
	h.ObserveExemplar(0.9, "")    // counted, but records no exemplar

	if ex := h.BucketExemplar(0); ex == nil || ex.TraceID != "q#3" || ex.Value != 0.7 {
		t.Fatalf("bucket 0 exemplar = %+v, want q#3 @ 0.7", ex)
	}
	if ex := h.BucketExemplar(1); ex == nil || ex.TraceID != "q#2" {
		t.Fatalf("bucket 1 exemplar = %+v, want q#2", ex)
	}
	if ex := h.BucketExemplar(99); ex != nil {
		t.Fatalf("out-of-range bucket exemplar = %+v, want nil", ex)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4 (empty-ID observation still counts)", h.Count())
	}

	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	buckets := snap.Histograms["bix_t_ex_seconds"].Buckets
	if len(buckets) != 2 {
		t.Fatalf("buckets = %+v", buckets)
	}
	if buckets[0].Exemplar == nil || buckets[0].Exemplar.TraceID != "q#3" {
		t.Errorf("bucket 0 JSON exemplar = %+v, want q#3", buckets[0].Exemplar)
	}
	if buckets[1].Exemplar == nil || buckets[1].Exemplar.TraceID != "q#2" {
		t.Errorf("bucket 1 JSON exemplar = %+v, want q#2", buckets[1].Exemplar)
	}
}

func TestTraceIDsAreUnique(t *testing.T) {
	a, b := NewTrace("q"), NewTrace("q")
	if a.ID() == "" || a.ID() == b.ID() {
		t.Fatalf("trace IDs %q and %q, want distinct non-empty", a.ID(), b.ID())
	}
	var nilTrace *Trace
	if nilTrace.ID() != "" {
		t.Fatal("nil trace ID must be empty")
	}
}

// TestProfiledTraceAllocDeltas checks a profiled span attributes the heap
// it allocates to its phase, and that unprofiled traces report zero. The
// objects are large (over 32 KiB): the runtime counts those as they are
// allocated, while small objects are counted per span when the mcache
// refills, so 64 small objects can read as 62 or 63.
func TestProfiledTraceAllocDeltas(t *testing.T) {
	const objSize = 64 << 10
	tr := NewTrace("alloc").Profile()
	if !tr.Profiled() {
		t.Fatal("Profile() did not stick")
	}
	var sink [][]byte
	sp := tr.Start(PhaseBoolOps)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, objSize))
	}
	sp.End()
	_ = sink
	recs := tr.Phases()
	if len(recs) != 1 {
		t.Fatalf("phases = %+v", recs)
	}
	if recs[0].AllocBytes < 64*objSize {
		t.Errorf("alloc bytes = %d, want >= %d", recs[0].AllocBytes, 64*objSize)
	}
	if recs[0].AllocObjects < 64 {
		t.Errorf("alloc objects = %d, want >= 64", recs[0].AllocObjects)
	}

	plain := NewTrace("plain")
	sp = plain.Start(PhaseBoolOps)
	sink = append(sink, make([]byte, objSize))
	sp.End()
	if r := plain.Phases()[0]; r.AllocBytes != 0 || r.AllocObjects != 0 {
		t.Errorf("unprofiled trace recorded allocs: %+v", r)
	}
}

// TestPhaseMinMax checks per-call extremes accumulate alongside the sum,
// making skew across calls of one phase (e.g. per-segment durations)
// visible in the record.
func TestPhaseMinMax(t *testing.T) {
	tr := NewTrace("skew")
	tr.Add(PhaseSegments, 5*time.Millisecond)
	tr.Add(PhaseSegments, time.Millisecond)
	tr.Add(PhaseSegments, 20*time.Millisecond)
	r := tr.Phases()[0]
	if r.Calls != 3 || r.Duration != 26*time.Millisecond {
		t.Fatalf("calls/sum = %d/%v", r.Calls, r.Duration)
	}
	if r.Min != time.Millisecond || r.Max != 20*time.Millisecond {
		t.Fatalf("min/max = %v/%v, want 1ms/20ms", r.Min, r.Max)
	}
}

func TestReadAllocsMonotonic(t *testing.T) {
	b1, o1 := ReadAllocs()
	sink := make([]byte, 1<<16)
	_ = sink
	b2, o2 := ReadAllocs()
	if b2 < b1 || o2 < o1 {
		t.Fatalf("alloc counters went backwards: (%d,%d) -> (%d,%d)", b1, o1, b2, o2)
	}
	if b2 == 0 || o2 == 0 {
		t.Fatal("alloc counters are zero; runtime/metrics names may be wrong")
	}
}
