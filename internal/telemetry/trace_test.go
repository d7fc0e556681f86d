package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracePhasesAccumulate(t *testing.T) {
	tr := NewTrace("q1")
	tr.Add(PhaseFetch, 10*time.Millisecond)
	tr.Add(PhaseBoolOps, time.Millisecond)
	tr.Add(PhaseFetch, 5*time.Millisecond)
	ph := tr.Phases()
	if len(ph) != 2 {
		t.Fatalf("phases = %v, want 2 entries", ph)
	}
	if ph[0].Phase != PhaseFetch || ph[0].Calls != 2 || ph[0].Duration != 15*time.Millisecond {
		t.Fatalf("fetch aggregate = %+v", ph[0])
	}
	if ph[1].Phase != PhaseBoolOps || ph[1].Calls != 1 {
		t.Fatalf("bool_ops aggregate = %+v", ph[1])
	}
	if tr.Name() != "q1" {
		t.Fatalf("name = %q", tr.Name())
	}
	s := tr.String()
	if !strings.Contains(s, "fetch") || !strings.Contains(s, "bool_ops") {
		t.Fatalf("render missing phases:\n%s", s)
	}
}

func TestSpanAndFinish(t *testing.T) {
	tr := NewTrace("q2")
	sp := tr.Start(PhasePopcount)
	time.Sleep(time.Millisecond)
	sp.End()
	ph := tr.Phases()
	if len(ph) != 1 || ph[0].Duration <= 0 {
		t.Fatalf("span did not record: %+v", ph)
	}
	total := tr.Finish()
	if total < ph[0].Duration {
		t.Fatalf("total %v < phase %v", total, ph[0].Duration)
	}
	if tr.Finish() != total || tr.Elapsed() != total {
		t.Fatal("Finish must freeze the total")
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Add(PhaseFetch, time.Second)
	tr.Start(PhaseBoolOps).End()
	if tr.Finish() != 0 || tr.Elapsed() != 0 || tr.Phases() != nil || tr.Name() != "" {
		t.Fatal("nil trace must be inert")
	}
	_ = tr.String()
}

func TestTraceConcurrentRecording(t *testing.T) {
	tr := NewTrace("concurrent")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Add(PhaseBoolOps, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	ph := tr.Phases()
	if len(ph) != 1 || ph[0].Calls != 4000 {
		t.Fatalf("concurrent adds lost: %+v", ph)
	}
}

// TestTraceAddAllocationFree pins the hot-path contract bixlint's
// transitive hotalloc rule enforces statically: once every phase slot is
// warm, recording into a trace allocates nothing. (The first Add of a
// phase only writes into the fixed entries array, but the warm-up keeps
// the assertion independent of timer granularity.)
func TestTraceAddAllocationFree(t *testing.T) {
	phases := []Phase{
		PhasePlan, PhaseFetch, PhaseDecompress, PhaseExtract,
		PhaseBoolOps, PhaseFilter, PhasePopcount, PhaseSegments,
	}
	tr := NewTrace("alloc-free")
	for _, p := range phases {
		tr.Add(p, time.Microsecond) // warm every slot
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range phases {
			tr.Add(p, time.Microsecond)
		}
	})
	if allocs != 0 {
		t.Fatalf("Trace.Add allocates %.1f objects per run; the record path must be allocation-free", allocs)
	}
}

// TestTracePhaseOverflow: a ninth distinct phase is dropped, not grown
// into — the fixed table trades exotic phases for an allocation-free
// record path.
func TestTracePhaseOverflow(t *testing.T) {
	tr := NewTrace("overflow")
	for i := 0; i < MaxPhases; i++ {
		tr.Add(Phase(string(rune('a'+i))), time.Millisecond)
	}
	tr.Add(Phase("ninth"), time.Millisecond) // silently dropped
	ph := tr.Phases()
	if len(ph) != MaxPhases {
		t.Fatalf("got %d phases, want %d (overflow must drop, not grow)", len(ph), MaxPhases)
	}
	for _, r := range ph {
		if r.Phase == "ninth" {
			t.Fatalf("overflow phase was recorded: %+v", ph)
		}
	}
	// Existing slots still accumulate after the table fills.
	tr.Add(Phase("a"), time.Millisecond)
	if got := tr.Phases()[0]; got.Calls != 2 {
		t.Fatalf("slot a calls = %d, want 2", got.Calls)
	}
}
