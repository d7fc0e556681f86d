package flight

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"bitmapindex/internal/telemetry"
)

func rec(plan string, total time.Duration) *Record {
	return &Record{Plan: plan, Total: total, Rows: -1}
}

func TestRecorderRingWrap(t *testing.T) {
	r := New(4)
	if r.Cap() != 4 {
		t.Fatalf("cap = %d", r.Cap())
	}
	for i := 0; i < 10; i++ {
		r.Add(rec(fmt.Sprintf("p%d", i), time.Duration(i)*time.Millisecond), nil)
	}
	if r.Len() != 4 || r.Seq() != 10 {
		t.Fatalf("len = %d seq = %d, want 4, 10", r.Len(), r.Seq())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d records, want 4", len(snap))
	}
	for i, got := range snap {
		wantSeq := uint64(6 + i)
		if got.Seq != wantSeq || got.Plan != fmt.Sprintf("p%d", wantSeq) {
			t.Errorf("snapshot[%d] = seq %d plan %q, want seq %d", i, got.Seq, got.Plan, wantSeq)
		}
		if got.Start.IsZero() {
			t.Errorf("snapshot[%d] missing start stamp", i)
		}
	}
}

func TestRecorderPartialRing(t *testing.T) {
	r := New(8)
	r.Add(rec("only", time.Millisecond), nil)
	if got := r.Snapshot(); len(got) != 1 || got[0].Plan != "only" {
		t.Fatalf("partial snapshot = %+v", got)
	}
}

// TestRecorderOutlierRetention is the reservoir guarantee: a latency spike
// stays visible in Outliers long after the ring has wrapped past it.
func TestRecorderOutlierRetention(t *testing.T) {
	r := New(4)
	spike := rec("spike", time.Second)
	spike.TraceID = "spike#1"
	r.Add(spike, nil)
	for i := 0; i < 100; i++ {
		r.Add(rec("fast", time.Microsecond), nil)
	}
	for _, s := range r.Snapshot() {
		if s.Plan == "spike" {
			t.Fatal("spike still in the ring after 100 records through capacity 4")
		}
	}
	outs := r.Outliers()
	if len(outs) == 0 || outs[0].Plan != "spike" || outs[0].TraceID != "spike#1" {
		t.Fatalf("outliers lost the spike: %+v", outs)
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Total > outs[i-1].Total {
			t.Fatalf("outliers not sorted slowest-first: %+v", outs)
		}
	}
}

// TestRecorderOutlierEviction fills the annex with ascending totals and
// checks only the top K survive.
func TestRecorderOutlierEviction(t *testing.T) {
	r := New(4)
	for i := 1; i <= 3*outlierK; i++ {
		r.Add(rec("q", time.Duration(i)*time.Millisecond), nil)
	}
	outs := r.Outliers()
	if len(outs) != outlierK {
		t.Fatalf("annex holds %d, want %d", len(outs), outlierK)
	}
	for i, o := range outs {
		if want := time.Duration(3*outlierK-i) * time.Millisecond; o.Total != want {
			t.Errorf("outlier[%d] total = %v, want %v", i, o.Total, want)
		}
	}
}

// TestRecorderTraceSnapshot checks phase aggregates, with their per-call
// extremes, are captured from the trace.
func TestRecorderTraceSnapshot(t *testing.T) {
	tr := telemetry.NewTrace("q")
	tr.Add(telemetry.PhaseFetch, 3*time.Millisecond)
	tr.Add(telemetry.PhaseSegments, 1*time.Millisecond)
	tr.Add(telemetry.PhaseSegments, 5*time.Millisecond)

	r := New(4)
	r.Add(rec("seg", 10*time.Millisecond), tr)
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	got := snap[0]
	if len(got.Phases) != 2 || got.Phases[0].Phase != telemetry.PhaseFetch ||
		got.Phases[1].Calls != 2 || got.Phases[1].Min != 1*time.Millisecond ||
		got.Phases[1].Max != 5*time.Millisecond {
		t.Errorf("phases = %+v", got.Phases)
	}
	if _, err := json.Marshal(got); err != nil {
		t.Errorf("record not JSON-marshalable: %v", err)
	}
}

// allocSink keeps TestRecorderAllocSum's buffers reachable, so each
// 1 MiB allocation really happens inside its span.
var allocSink [][]byte

// TestRecorderAllocSum: a record whose caller leaves the allocation
// totals at zero gets the sum over all phases, not the first nonzero
// phase; totals the caller sets are kept.
func TestRecorderAllocSum(t *testing.T) {
	const mib = 1 << 20
	tr := telemetry.NewTrace("q").Profile()
	for _, p := range []telemetry.Phase{telemetry.PhaseFetch, telemetry.PhaseBoolOps} {
		sp := tr.Start(p)
		allocSink = append(allocSink, make([]byte, mib))
		sp.End()
	}
	allocSink = nil

	r := New(4)
	r.Add(rec("sum", time.Millisecond), tr)
	set := rec("set", time.Millisecond)
	set.AllocBytes, set.AllocObjects = 5, 1
	r.Add(set, tr)
	snap := r.Snapshot()
	if got := snap[0].AllocBytes; got < 2*mib {
		t.Errorf("alloc_bytes = %d, want >= %d (two 1 MiB phases)", got, 2*mib)
	}
	if got := snap[0].AllocObjects; got < 2 {
		t.Errorf("alloc_objects = %d, want >= 2", got)
	}
	if snap[1].AllocBytes != 5 || snap[1].AllocObjects != 1 {
		t.Errorf("caller totals overwritten: %d B, %d objects", snap[1].AllocBytes, snap[1].AllocObjects)
	}
}

// TestRecorderZeroAlloc pins the tentpole's zero-steady-state-allocation
// claim: once the outlier annex threshold is warm, Add allocates nothing.
func TestRecorderZeroAlloc(t *testing.T) {
	tr := telemetry.NewTrace("q")
	tr.Add(telemetry.PhaseFetch, time.Millisecond)
	tr.Add(telemetry.PhaseBoolOps, time.Millisecond)

	r := New(16)
	base := Record{Plan: "http-query", Op: "<=", Value: 7, Rows: -1,
		Total: time.Millisecond, Start: time.Now(), Scans: 3}
	if avg := testing.AllocsPerRun(200, func() { r.Add(&base, tr) }); avg != 0 {
		t.Fatalf("Add allocates %.1f objects per record, want 0", avg)
	}
}

// TestRecorderConcurrent hammers one recorder from concurrent writers and
// readers; under -race this is the required regression test that Add and
// Snapshot/Outliers do not race.
func TestRecorderConcurrent(t *testing.T) {
	r := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := telemetry.NewTrace("hammer")
			tr.Add(telemetry.PhaseFetch, time.Millisecond)
			for i := 0; i < 500; i++ {
				r.Add(rec("hammer", time.Duration(g*500+i)), tr)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				for _, s := range r.Snapshot() {
					if s.Plan != "hammer" {
						t.Errorf("torn record: %+v", s)
						return
					}
				}
				r.Outliers()
			}
		}()
	}
	wg.Wait()
	if r.Seq() != 2000 || r.Len() != 8 {
		t.Fatalf("seq = %d len = %d, want 2000, 8", r.Seq(), r.Len())
	}
}

func TestRecorderNilSafety(t *testing.T) {
	var r *Recorder
	r.Add(rec("x", time.Second), nil) // must not panic
	if r.Snapshot() != nil || r.Outliers() != nil || r.Len() != 0 || r.Cap() != 0 || r.Seq() != 0 {
		t.Fatal("nil recorder leaked state")
	}
}

func TestDefaultRecorder(t *testing.T) {
	if Default() == nil || Default().Cap() != DefaultCapacity {
		t.Fatalf("default recorder cap = %d", Default().Cap())
	}
}
