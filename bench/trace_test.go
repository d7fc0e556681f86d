package main

import (
	"math/rand"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a: 10..60 covered once
		{ID: 4, Parent: 2, Name: "a1", Start: 15, End: 20},  // grandchild: not the root's child
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 130},  // runs past the root: clipped to 90..100
		{ID: 6, Parent: 0, Name: "other", Start: 5, End: 7}, // another root
	}
	selfTimes(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": 30 - 5, "b": 30, "a1": 5, "c": 40, "other": 2}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

// TestSelfTimesInvariants checks random span trees: self time is never
// negative and never more than the span, and the children's covered time
// never exceeds the parent's duration.
func TestSelfTimesInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var spans []span
		for i := 1; i <= 1+r.Intn(30); i++ {
			parent := 0
			if i > 1 && r.Intn(4) != 0 {
				parent = 1 + r.Intn(i-1)
			}
			start := r.Int63n(1000)
			spans = append(spans, span{ID: i, Parent: parent, Start: start, End: start + r.Int63n(300)})
		}
		selfTimes(spans)
		for _, s := range spans {
			if dur := s.End - s.Start; s.Self < 0 || s.Self > dur {
				t.Fatalf("trial %d span %d: self %d outside [0, %d]", trial, s.ID, s.Self, dur)
			}
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(1, 0, "x")
	tr.end(id)
	tr.storage(id, nil)
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}
