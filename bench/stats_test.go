package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {62.5, 3.5}, {100, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..5, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	var hundred []float64
	for i := 0; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 99); !near(got, 99) {
		t.Errorf("p99 of 0..100 = %v, want 99", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); !near(got, 4) {
		t.Errorf("median = %v, want 4", got)
	}
}

// steadyRun returns a run of secs seconds with n evenly spaced completions
// per second, of latency lat(second, i), and one request in flight at the
// end that completes after 100 ms.
func steadyRun(secs, n int, lat func(sec, i int) time.Duration) []completion {
	var cs []completion
	for s := 0; s < secs; s++ {
		for i := 0; i < n; i++ {
			at := time.Duration(s)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			cs = append(cs, completion{at: at, lat: lat(s, i)})
		}
	}
	return append(cs, completion{at: time.Duration(secs)*time.Second + time.Millisecond, lat: 100 * time.Millisecond})
}

// TestFastHalf checks that a slow stretch covering less than half of a run
// moves none of the numbers, that a stall recurring in every chunk shows in
// the p99, and that the request in flight at the end is left out.
func TestFastHalf(t *testing.T) {
	ms := time.Millisecond
	slow := steadyRun(4, 1000, func(sec, i int) time.Duration {
		if sec == 2 {
			return 5 * ms
		}
		return ms
	})
	if rate, p50, p99, kept, chunks := fastHalf(slow); chunks != 4 || kept != 2 || !near(rate, 1000) || !near(p50, 1) || !near(p99, 1) {
		t.Errorf("slow second: %v/s, p50 %v ms, p99 %v ms over %d of %d chunks; want 1000/s, 1, 1 over 2 of 4", rate, p50, p99, kept, chunks)
	}
	stalls := steadyRun(4, 1000, func(sec, i int) time.Duration {
		if i%50 == 0 {
			return 50 * ms
		}
		return ms
	})
	if _, p50, p99, _, _ := fastHalf(stalls); !near(p50, 1) || !near(p99, 50) {
		t.Errorf("recurring stall: p50 %v ms, p99 %v ms; want 1, 50", p50, p99)
	}
	short := steadyRun(1, 10, func(int, int) time.Duration { return ms })[:10]
	if rate, _, _, kept, chunks := fastHalf(short); chunks != 1 || kept != 1 || !near(rate, 10/0.9) {
		t.Errorf("short run: %v/s over %d of %d chunks, want %v/s over 1 of 1", rate, kept, chunks, 10/0.9)
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 3}, 0.5, 3.5},
		{[]float64{4, 4, 4, 4, 4}, 4, 4},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// writeSet saves a run set in which every end-to-end metric of every
// workload reads 1 five times, except the metrics given in values.
func writeSet(t *testing.T, dir, name string, values map[string][]float64) string {
	t.Helper()
	s := newSet(false)
	s.Seeds = []int64{1, 2, 3, 4, 5}
	for _, wl := range workloads {
		s.Workloads[wl.name] = make(map[string]*series)
		for _, m := range endToEnd {
			vs := values[m.name]
			if vs == nil {
				vs = []float64{1, 1, 1, 1, 1}
			}
			s.Workloads[wl.name][m.name] = &series{Unit: m.unit, Values: vs}
		}
	}
	s.summarize()
	path := filepath.Join(dir, name)
	if err := s.save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join("..", "BENCHMARK.json")
	base := writeSet(t, dir, "a.json", map[string][]float64{"qps": {100, 101, 99, 100, 100}})
	for _, c := range []struct {
		name    string
		values  map[string][]float64
		code    int
		verdict string
		qpsWins string // disk qps: on how many seeds b is faster
	}{
		{"same", map[string][]float64{"qps": {100, 100, 101, 99, 100}}, 0, "no regressions", "1/5"},
		{"slower", map[string][]float64{"qps": {70, 71, 69, 70, 70}}, 1, "REGRESSED", "0/5"},
		{"faster", map[string][]float64{"qps": {130, 131, 129, 130, 130}}, 0, "no regressions", "5/5"},
		{"noisy", map[string][]float64{"qps": {50, 150, 100, 60, 140}}, 1, "UNRESOLVED", "3/5"},
		{"noisy but every run faster", map[string][]float64{"qps": {102, 200, 150, 110, 190}}, 0, "improved", "5/5"},
		{"noisy and every run slower", map[string][]float64{"qps": {98, 40, 70, 50, 90}}, 1, "UNRESOLVED", "0/5"},
		{"larger", map[string][]float64{"index_bytes_per_row": {2, 2, 2, 2, 2}}, 1, "REGRESSED", "0/5"},
	} {
		other := writeSet(t, dir, c.name+".json", c.values)
		var out, errs bytes.Buffer
		if code := runCompare(base, other, spec, &out, &errs); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errs.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.verdict, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 7 && f[0] == "disk" && f[1] == "qps" && f[7] != c.qpsWins {
				t.Errorf("%s: disk qps b wins %s, want %s:\n%s", c.name, f[7], c.qpsWins, line)
			}
		}
	}
}
