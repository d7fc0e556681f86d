package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total", "help"); again != c {
		t.Fatal("get-or-create must return the same counter")
	}
}

func TestLabeledMetricsAreDistinct(t *testing.T) {
	r := New()
	a := r.Counter("ops_total", "help", Label{"kind", "and"})
	o := r.Counter("ops_total", "help", Label{"kind", "or"})
	if a == o {
		t.Fatal("different label values must be different series")
	}
	a.Add(3)
	if o.Value() != 0 {
		t.Fatal("label series must not share state")
	}
	// Label order must not matter for identity.
	x := r.Counter("multi", "help", Label{"a", "1"}, Label{"b", "2"})
	y := r.Counter("multi", "help", Label{"b", "2"}, Label{"a", "1"})
	if x != y {
		t.Fatal("label order must not change identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting a counter as a histogram must panic")
		}
	}()
	r.Histogram("m", "help", LatencyBuckets)
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "help", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 111.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	cum := h.Cumulative()
	want := []int64{1, 3, 4, 5, 6}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
	// Quantiles interpolate within the containing bucket and clamp the
	// +Inf bucket to the top finite bound.
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %v, want within (1, 2]", q)
	}
	if q := h.Quantile(1); q != 8 {
		t.Fatalf("p100 = %v, want clamp to 8", q)
	}
	if q := New().Histogram("empty", "help", []float64{1}).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

func TestObserveOnBucketBoundary(t *testing.T) {
	r := New()
	h := r.Histogram("b", "help", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive, like Prometheus
	if cum := h.Cumulative(); cum[0] != 1 {
		t.Fatalf("boundary observation landed in %v", cum)
	}
}

// TestConcurrentWriters hammers one registry from many goroutines under
// -race: counters, histogram observations, and concurrent
// get-or-create of the same and different series, with exports racing the
// writers.
func TestConcurrentWriters(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("hits_total", "help").Inc()
				r.Counter("ops_total", "help", Label{"kind", kindFor(w)}).Inc()
				r.Histogram("lat", "help", []float64{0.001, 0.01, 0.1, 1}).Observe(float64(i%100) / 100)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("hits_total", "help").Value(); got != workers*perWorker {
		t.Fatalf("hits_total = %d, want %d", got, workers*perWorker)
	}
	var ops int64
	for _, k := range []string{"and", "or"} {
		ops += r.Counter("ops_total", "help", Label{"kind", k}).Value()
	}
	if ops != workers*perWorker {
		t.Fatalf("ops_total sum = %d, want %d", ops, workers*perWorker)
	}
	h := r.Histogram("lat", "help", nil)
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	cum := h.Cumulative()
	if cum[len(cum)-1] != h.Count() {
		t.Fatalf("+Inf cumulative %d != count %d", cum[len(cum)-1], h.Count())
	}
}

func kindFor(w int) string {
	if w%2 == 0 {
		return "and"
	}
	return "or"
}
