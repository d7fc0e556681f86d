package workload

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bitmapindex/internal/core"
)

func testAttrs() []AttrInfo {
	return []AttrInfo{
		{Name: "region", Card: 90},
		{Name: "status", Card: 25},
		{Name: "tier", Card: 12},
	}
}

func TestObserveAndSnapshot(t *testing.T) {
	a := New(testAttrs())
	a.Observe(Event{Attr: "region", Class: EqClass})
	a.Observe(Event{Attr: "region", Class: RangeClass})
	a.Observe(Event{Attr: "tier", Class: IntervalClass})

	p := a.Snapshot()
	if p.Version != ProfileVersion {
		t.Errorf("version = %d, want %d", p.Version, ProfileVersion)
	}
	want := []AttrProfile{
		{Name: "region", Card: 90, Eq: 1, Range: 1},
		{Name: "status", Card: 25},
		{Name: "tier", Card: 12, Interval: 1},
	}
	if !reflect.DeepEqual(p.Attrs, want) {
		t.Errorf("snapshot = %+v, want %+v", p.Attrs, want)
	}
	if p.TotalQueries() != 3 {
		t.Errorf("TotalQueries = %d, want 3", p.TotalQueries())
	}
}

func TestObserveUnknownAttrDropped(t *testing.T) {
	a := New(testAttrs())
	a.Observe(Event{Attr: "user_input_constant", Class: EqClass})
	if a.Snapshot().TotalQueries() != 0 {
		t.Error("dropped event leaked into the snapshot")
	}
	if got := a.Attrs(); !reflect.DeepEqual(got, testAttrs()) {
		t.Errorf("dropped event changed the attribute set: %v", got)
	}
}

func TestClassOf(t *testing.T) {
	for _, op := range []core.Op{core.Lt, core.Le, core.Gt, core.Ge} {
		if ClassOf(op) != RangeClass {
			t.Errorf("ClassOf(%v) = %v, want range", op, ClassOf(op))
		}
	}
	for _, op := range []core.Op{core.Eq, core.Ne} {
		if ClassOf(op) != EqClass {
			t.Errorf("ClassOf(%v) = %v, want eq", op, ClassOf(op))
		}
	}
}

// TestObserveAllocFree pins the steady-state promise: once the attribute
// set is registered, recording an event allocates nothing.
func TestObserveAllocFree(t *testing.T) {
	a := New(testAttrs())
	e := Event{Attr: "status", Class: RangeClass}
	if allocs := testing.AllocsPerRun(1000, func() { a.Observe(e) }); allocs != 0 {
		t.Errorf("Observe allocates %v per run, want 0", allocs)
	}
}

func TestDuplicateAttrsCollapsed(t *testing.T) {
	a := New([]AttrInfo{{Name: "x", Card: 4}, {Name: "x", Card: 9}})
	if got := a.Attrs(); len(got) != 1 || got[0].Card != 4 {
		t.Errorf("Attrs() = %v, want one entry with card 4", got)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	a := New(testAttrs())
	for i := 0; i < 17; i++ {
		a.Observe(Event{Attr: "region", Class: RangeClass})
	}
	a.Observe(Event{Attr: "status", Class: EqClass})
	want := a.Snapshot()

	path := filepath.Join(t.TempDir(), "profile.json")
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if err := got.Validate(a.Attrs()); err != nil {
		t.Fatalf("round-tripped profile fails validation: %v", err)
	}
}

// TestAddProfileRestart checks the serve restart path: replaying a saved
// snapshot makes the accumulator resume where the previous run stopped.
func TestAddProfileRestart(t *testing.T) {
	a := New(testAttrs())
	a.Observe(Event{Attr: "region", Class: EqClass})
	saved := a.Snapshot()

	b := New(testAttrs())
	if err := b.AddProfile(saved); err != nil {
		t.Fatal(err)
	}
	b.Observe(Event{Attr: "region", Class: EqClass})
	got := b.Snapshot()
	if got.Attrs[0].Eq != 2 {
		t.Errorf("after restart replay: eq=%d, want 2", got.Attrs[0].Eq)
	}

	bad := saved
	bad.Attrs = append([]AttrProfile{}, saved.Attrs...)
	bad.Attrs[0].Name = "nope"
	if err := b.AddProfile(bad); err == nil {
		t.Error("AddProfile accepted an unknown attribute")
	}
}

// legacyProfile is a profile as Save wrote it while the profile also
// carried per-attribute scans, bytes, latency, cache counts and the
// selectivity and constant-position histograms.
const legacyProfile = `{
  "version": 1,
  "attributes": [
    {
      "name": "region",
      "card": 90,
      "eq": 4,
      "range": 7,
      "interval": 0,
      "scans": 61,
      "bytes_read": 18432,
      "latency_ns": 905113,
      "cache_hits": 3,
      "cache_misses": 12,
      "selectivity_hist": [2, 1, 0, 0, 3, 0, 0, 0, 1, 4],
      "position_hist": [0, 1, 1, 2, 0, 3, 0, 0, 4, 0]
    },
    {
      "name": "status",
      "card": 25,
      "eq": 2,
      "range": 0,
      "interval": 0,
      "scans": 4,
      "bytes_read": 1024,
      "latency_ns": 20011,
      "cache_hits": 0,
      "cache_misses": 0,
      "selectivity_hist": [2, 0, 0, 0, 0, 0, 0, 0, 0, 0],
      "position_hist": [0, 0, 0, 0, 0, 2, 0, 0, 0, 0]
    },
    {
      "name": "tier",
      "card": 12,
      "eq": 0,
      "range": 0,
      "interval": 1,
      "scans": 6,
      "bytes_read": 2048,
      "latency_ns": 7013,
      "cache_hits": 0,
      "cache_misses": 0,
      "selectivity_hist": [0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
      "position_hist": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    }
  ]
}
`

// TestLegacyProfileReplays: a profile that still carries the cost fields
// and histograms loads as its class counts and replays into an
// accumulator.
func TestLegacyProfileReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(path, []byte(legacyProfile), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Profile{Version: 1, Attrs: []AttrProfile{
		{Name: "region", Card: 90, Eq: 4, Range: 7},
		{Name: "status", Card: 25, Eq: 2},
		{Name: "tier", Card: 12, Interval: 1},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v, want %+v", got, want)
	}
	a := New(testAttrs())
	if err := a.AddProfile(got); err != nil {
		t.Fatal(err)
	}
	if snap := a.Snapshot(); !reflect.DeepEqual(snap, want) {
		t.Errorf("replayed snapshot %+v, want %+v", snap, want)
	}
}

func TestValidateRejects(t *testing.T) {
	attrs := testAttrs()
	cases := []struct {
		name string
		mut  func(*Profile)
	}{
		{"unknown attribute", func(p *Profile) { p.Attrs[0].Name = "ghost" }},
		{"cardinality mismatch", func(p *Profile) { p.Attrs[0].Card = 91 }},
		{"duplicate attribute", func(p *Profile) { p.Attrs[1] = p.Attrs[0] }},
		{"negative eq", func(p *Profile) { p.Attrs[0].Eq = -1 }},
		{"negative range", func(p *Profile) { p.Attrs[1].Range = -5 }},
		{"negative interval", func(p *Profile) { p.Attrs[2].Interval = -1 }},
		{"future version", func(p *Profile) { p.Version = ProfileVersion + 1 }},
	}
	for _, c := range cases {
		p := New(attrs).Snapshot()
		c.mut(&p)
		if err := p.Validate(attrs); err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
	}
	p := New(attrs).Snapshot()
	if err := p.Validate(attrs); err != nil {
		t.Errorf("clean profile rejected: %v", err)
	}
}

func TestMergeAndOverflow(t *testing.T) {
	a := New(testAttrs())
	a.Observe(Event{Attr: "region", Class: EqClass})
	a.Observe(Event{Attr: "tier", Class: IntervalClass})
	p, q := a.Snapshot(), a.Snapshot()
	if err := p.Merge(q); err != nil {
		t.Fatal(err)
	}
	if p.Attrs[0].Eq != 2 || p.Attrs[2].Interval != 2 || p.TotalQueries() != 4 {
		t.Errorf("merge: %+v, want region eq 2 and tier interval 2", p.Attrs)
	}

	p.Attrs[0].Eq = 1<<63 - 1
	q.Attrs[0].Eq = 1
	if err := p.Merge(q); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("overflow merge: err = %v", err)
	}

	mismatched := q
	mismatched.Attrs = q.Attrs[:2]
	if err := p.Merge(mismatched); err == nil {
		t.Error("merge accepted mismatched attribute sets")
	}
}

// TestConcurrentObserveSnapshot hammers the accumulator from many
// goroutines while snapshotting; run under -race this is the data-race
// gate, and the final snapshot must account for every event exactly once.
func TestConcurrentObserveSnapshot(t *testing.T) {
	a := New(testAttrs())
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			attrs := testAttrs()
			for i := 0; i < perWorker; i++ {
				ai := attrs[(w+i)%len(attrs)]
				a.Observe(Event{Attr: ai.Name, Class: OpClass(i % 3)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			snap := a.Snapshot()
			if err := snap.Validate(a.Attrs()); err != nil {
				t.Errorf("mid-flight snapshot invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	final := a.Snapshot()
	if got := final.TotalQueries(); got != workers*perWorker {
		t.Errorf("TotalQueries = %d, want %d", got, workers*perWorker)
	}
	var got, want [numClasses]int64
	for i := 0; i < perWorker; i++ {
		want[i%3] += workers
	}
	for _, ap := range final.Attrs {
		got[EqClass] += ap.Eq
		got[RangeClass] += ap.Range
		got[IntervalClass] += ap.Interval
	}
	if got != want {
		t.Errorf("class counts = %v, want %v", got, want)
	}
}

func FuzzProfileDecode(f *testing.F) {
	a := New(testAttrs())
	a.Observe(Event{Attr: "region", Class: RangeClass})
	good, err := a.Snapshot().marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(legacyProfile))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"attributes":[{"name":"x","card":4,"eq":-1}]}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{"version":1,"attributes":[{"name":"","card":4}]}`))
	f.Add([]byte(`{"version":1,"attributes":[{"name":"a","card":2},{"name":"a","card":2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProfile(data)
		if err != nil {
			return
		}
		// Whatever decodes must be internally consistent: re-encoding and
		// re-decoding must succeed and all the decode invariants must hold.
		if p.Version > ProfileVersion {
			t.Fatalf("decoded unsupported version %d", p.Version)
		}
		seen := map[string]bool{}
		for _, ap := range p.Attrs {
			if ap.Name == "" {
				t.Fatal("decoded attribute with empty name")
			}
			if seen[ap.Name] {
				t.Fatalf("decoded duplicate attribute %q", ap.Name)
			}
			seen[ap.Name] = true
			if ap.Eq < 0 || ap.Range < 0 || ap.Interval < 0 {
				t.Fatalf("decoded negative count in %+v", ap)
			}
		}
		j, err := p.marshal()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if _, err := DecodeProfile(j); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
	})
}
