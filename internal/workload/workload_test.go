package workload

import (
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
	a.Observe(Event{Attr: "region", Class: EqClass, Value: 45, Matches: 10, Rows: 100,
		Scans: 3, Bytes: 1024, NS: 5000, CacheHits: 2, CacheMisses: 1})
	a.Observe(Event{Attr: "region", Class: RangeClass, Value: 89, Matches: -1, Scans: 5})
	a.Observe(Event{Attr: "tier", Class: IntervalClass, Value: 0, Matches: 0, Rows: 10})

	p := a.Snapshot()
	if p.Version != ProfileVersion {
		t.Errorf("version = %d, want %d", p.Version, ProfileVersion)
	}
	region := p.Attrs[0]
	if region.Eq != 1 || region.Range != 1 || region.Interval != 0 {
		t.Errorf("region counts = %d/%d/%d, want 1/1/0", region.Eq, region.Range, region.Interval)
	}
	if region.Scans != 8 || region.BytesRead != 1024 || region.LatencyNS != 5000 {
		t.Errorf("region costs = %d/%d/%d", region.Scans, region.BytesRead, region.LatencyNS)
	}
	if region.CacheHits != 2 || region.CacheMisses != 1 {
		t.Errorf("region cache = %d/%d", region.CacheHits, region.CacheMisses)
	}
	// Value 45 of card 90 → bucket 5; value 89 of 90 → bucket 9.
	if region.Position[5] != 1 || region.Position[9] != 1 {
		t.Errorf("region position hist = %v", region.Position)
	}
	// 10/100 → bucket 1; the Matches: -1 event is skipped.
	if region.Selectivity[1] != 1 || sum(region.Selectivity) != 1 {
		t.Errorf("region selectivity hist = %v", region.Selectivity)
	}
	tier := p.Attrs[2]
	if tier.Interval != 1 {
		t.Errorf("tier interval count = %d, want 1", tier.Interval)
	}
	// Matches 0 of 10 rows is a real observation (bucket 0).
	if tier.Selectivity[0] != 1 {
		t.Errorf("tier selectivity hist = %v", tier.Selectivity)
	}
	if p.TotalQueries() != 3 {
		t.Errorf("TotalQueries = %d, want 3", p.TotalQueries())
	}
}

func sum(h []int64) int64 {
	var t int64
	for _, v := range h {
		t += v
	}
	return t
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
	e := Event{Attr: "status", Class: RangeClass, Value: 12, Matches: 40, Rows: 100,
		Scans: 4, Bytes: 512, NS: 900, CacheHits: 1}
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
		a.Observe(Event{Attr: "region", Class: RangeClass, Value: uint64(i * 5),
			Matches: i, Rows: 20, Scans: 2, Bytes: 64, NS: 10})
	}
	a.Observe(Event{Attr: "status", Class: EqClass, Value: 3, Matches: -1})
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
	a.Observe(Event{Attr: "region", Class: EqClass, Value: 1, Matches: -1, Scans: 2})
	saved := a.Snapshot()

	b := New(testAttrs())
	if err := b.AddProfile(saved); err != nil {
		t.Fatal(err)
	}
	b.Observe(Event{Attr: "region", Class: EqClass, Value: 1, Matches: -1, Scans: 2})
	got := b.Snapshot()
	if got.Attrs[0].Eq != 2 || got.Attrs[0].Scans != 4 {
		t.Errorf("after restart replay: eq=%d scans=%d, want 2/4", got.Attrs[0].Eq, got.Attrs[0].Scans)
	}

	bad := saved
	bad.Attrs = append([]AttrProfile{}, saved.Attrs...)
	bad.Attrs[0].Name = "nope"
	if err := b.AddProfile(bad); err == nil {
		t.Error("AddProfile accepted an unknown attribute")
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
		{"negative scans", func(p *Profile) { p.Attrs[1].Scans = -5 }},
		{"negative latency", func(p *Profile) { p.Attrs[2].LatencyNS = -1 }},
		{"oversized hist", func(p *Profile) { p.Attrs[0].Selectivity = make([]int64, HistBuckets+1) }},
		{"negative hist bucket", func(p *Profile) { p.Attrs[0].Position = []int64{-1} }},
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
	a.Observe(Event{Attr: "region", Class: EqClass, Value: 1, Matches: 1, Rows: 2})
	p, q := a.Snapshot(), a.Snapshot()
	if err := p.Merge(q); err != nil {
		t.Fatal(err)
	}
	if p.Attrs[0].Eq != 2 || p.Attrs[0].Selectivity[5] != 2 {
		t.Errorf("merge: eq=%d sel=%v", p.Attrs[0].Eq, p.Attrs[0].Selectivity)
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
				a.Observe(Event{Attr: ai.Name, Class: OpClass(i % 3),
					Value: uint64(i) % ai.Card, Matches: i % 50, Rows: 50, Scans: 1})
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
	var scans int64
	for _, ap := range final.Attrs {
		scans += ap.Scans
	}
	if scans != workers*perWorker {
		t.Errorf("total scans = %d, want %d", scans, workers*perWorker)
	}
}

func FuzzProfileDecode(f *testing.F) {
	a := New(testAttrs())
	a.Observe(Event{Attr: "region", Class: RangeClass, Value: 10, Matches: 5, Rows: 10})
	good, err := a.Snapshot().marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
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
			if ap.Eq < 0 || ap.Range < 0 || ap.Interval < 0 || ap.Scans < 0 ||
				ap.BytesRead < 0 || ap.LatencyNS < 0 || ap.CacheHits < 0 || ap.CacheMisses < 0 {
				t.Fatalf("decoded negative count in %+v", ap)
			}
			if len(ap.Selectivity) > HistBuckets || len(ap.Position) > HistBuckets {
				t.Fatalf("decoded oversized histogram in %+v", ap)
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
