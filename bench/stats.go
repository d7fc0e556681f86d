package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile of sorted xs, interpolating
// linearly between closest ranks; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// completion is one measured operation: when it completed on the run's
// clock and how long it took.
type completion struct{ at, lat time.Duration }

// chunkLen is the stretch of run time each chunk covers.
const chunkLen = time.Second

// fastHalf splits a run's completions into chunks of chunkLen of run time,
// keeps the half of the chunks with the lowest median latency, and returns
// over the kept chunks the completion rate (per second) and the median and
// 99th-percentile latency (in ms). Completions after the last whole chunk,
// the requests in flight when the run ended, are left out.
//
// The machine the baseline was taken on slows down, and never speeds up,
// for stretches of a second to several minutes, by up to a half: another
// tenant competes for the core. A slow stretch that covers less than half
// of a run leaves these numbers alone. A slowdown of the program itself
// moves every chunk, and so moves them. A stall that recurs every few
// seconds, such as a collection or a compaction, barely moves a chunk's
// median; it lands in the kept chunks as often as in the others and shows
// in the p99.
func fastHalf(cs []completion) (rate, p50, p99 float64, kept, chunks int) {
	if len(cs) == 0 {
		return 0, 0, 0, 0, 0
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].at < cs[j].at })
	last := cs[len(cs)-1].at
	chunks, span := int(last/chunkLen), chunkLen
	if chunks < 2 { // a run shorter than two chunks is one chunk
		chunks, span = 1, max(last, 1)
	}
	parts := make([][]completion, chunks)
	for _, c := range cs {
		k := int(c.at / span)
		if chunks == 1 {
			k = 0
		}
		if k < chunks {
			parts[k] = append(parts[k], c)
		}
	}
	meds := make([]float64, chunks)
	order := make([]int, chunks)
	for k, p := range parts {
		order[k], meds[k] = k, math.Inf(1) // a chunk in which nothing completed is the slowest
		if len(p) > 0 {
			meds[k] = percentile(latenciesMS(p), 50)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return meds[order[a]] < meds[order[b]] })
	kept = (chunks + 1) / 2
	var pool []completion
	for _, k := range order[:kept] {
		pool = append(pool, parts[k]...)
	}
	lat := latenciesMS(pool)
	return float64(len(pool)) / (float64(kept) * span.Seconds()), percentile(lat, 50), percentile(lat, 99), kept, chunks
}

// latenciesMS returns the latencies of cs in ms, ascending.
func latenciesMS(cs []completion) []float64 {
	lat := make([]float64, len(cs))
	for i, c := range cs {
		lat[i] = float64(c.lat) / 1e6
	}
	sort.Float64s(lat)
	return lat
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// series is one (workload, metric) pair across runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

// spread is the interquartile range as a share of the median.
func (s *series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// runSet is the -json output of repeated runs.
type runSet struct {
	GoVersion string                        `json:"go_version"`
	NProc     int                           `json:"nproc"`
	Trace     bool                          `json:"trace"`
	Seeds     []int64                       `json:"seeds"`
	Failed    int                           `json:"failed"`
	Workloads map[string]map[string]*series `json:"workloads"`
}

func newSet(trace bool) *runSet {
	return &runSet{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Trace: trace,
		Workloads: make(map[string]map[string]*series)}
}

func (s *runSet) add(workload string, res *result) {
	ms := s.Workloads[workload]
	if ms == nil {
		ms = make(map[string]*series)
		s.Workloads[workload] = ms
	}
	for name, m := range res.Metrics {
		if ms[name] == nil {
			ms[name] = &series{Unit: m.Unit}
		}
		ms[name].Values = append(ms[name].Values, m.Value)
	}
	s.Failed += res.Failed
}

func (s *runSet) summarize() {
	for _, ms := range s.Workloads {
		for _, sr := range ms {
			sr.N = len(sr.Values)
			sr.Median = median(sr.Values)
			sr.Q1, sr.Q3 = quartiles(sr.Values)
		}
	}
}

func (s *runSet) print(w io.Writer) {
	fmt.Fprintf(w, "\n%-9s %-28s %14s %14s %14s %4s %s\n", "workload", "metric", "median", "q1", "q3", "n", "unit")
	for _, wl := range workloads {
		ms := s.Workloads[wl.name]
		for _, name := range sortedKeys(ms) {
			sr := ms[name]
			fmt.Fprintf(w, "%-9s %-28s %14.6g %14.6g %14.6g %4d %s\n", wl.name, name, sr.Median, sr.Q1, sr.Q3, sr.N, sr.Unit)
		}
	}
	fmt.Fprintf(w, "failed operations: %d\n", s.Failed)
}

func (s *runSet) save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.summarize()
	return &s, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runCompare compares two -json files with compareSets.
func runCompare(pathA, pathB, specPath string, stdout, stderr io.Writer) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return compareSets(a, b, spec, stdout)
}

// allBetter reports whether every run of b reads better than every run of
// a, each side having at least two runs.
func allBetter(a, b *series, higher bool) bool {
	if len(a.Values) < 2 || len(b.Values) < 2 {
		return false
	}
	if higher {
		return slices.Min(b.Values) > slices.Max(a.Values)
	}
	return slices.Max(b.Values) < slices.Min(a.Values)
}

// pairWins counts the seeds on which b reads better than a, as "k/n", when
// both sets ran the same seeds and none of their runs failed; "-" otherwise.
func pairWins(a, b *series, seedsA, seedsB []int64, higher bool) string {
	if !slices.Equal(seedsA, seedsB) || len(a.Values) != len(seedsA) || len(b.Values) != len(seedsB) {
		return "-"
	}
	n := 0
	for i, va := range a.Values {
		if vb := b.Values[i]; (higher && vb > va) || (!higher && vb < va) {
			n++
		}
	}
	return fmt.Sprintf("%d/%d", n, len(a.Values))
}

// compareSets compares two run sets metric by metric under the bounds of
// BENCHMARK.json, with a as the baseline. A pair is improved when every
// run of b reads better than every run of a; otherwise it is unresolved
// when either side's interquartile spread exceeds the bound, and regressed
// when b's median is worse than a's by more than the bound. Unresolved,
// regressed and missing pairs make it return 1. When both sets ran the
// same seeds, it also prints on how many of them b read better.
func compareSets(a, b *runSet, spec *benchSpec, stdout io.Writer) int {
	bad := 0
	fmt.Fprintf(stdout, "%-9s %-22s %14s %14s %8s %8s %8s %6s %7s  %s\n",
		"workload", "metric", "median a", "median b", "change", "spread a", "spread b", "b wins", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			sa, sb := a.Workloads[wl.name][m.Name], b.Workloads[wl.name][m.Name]
			if sa == nil || sb == nil {
				fmt.Fprintf(stdout, "%-9s %-22s missing from one side\n", wl.name, m.Name)
				bad++
				continue
			}
			change := 0.0
			if sa.Median != 0 {
				change = (sb.Median - sa.Median) / math.Abs(sa.Median)
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case allBetter(sa, sb, m.Better == "higher"):
				verdict = "improved"
			case sa.spread() > m.Bound || sb.spread() > m.Bound:
				verdict = "UNRESOLVED"
				bad++
			case worse > m.Bound:
				verdict = "REGRESSED"
				bad++
			}
			fmt.Fprintf(stdout, "%-9s %-22s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %6s %6.0f%%  %s\n",
				wl.name, m.Name, sa.Median, sb.Median, 100*change, 100*sa.spread(), 100*sb.spread(),
				pairWins(sa, sb, a.Seeds, b.Seeds, m.Better == "higher"), 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d (workload, metric) pairs regressed, unresolved or missing\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no regressions")
	return 0
}

// selfCPU is the CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the CPU time process pid has used, from /proc/<pid>/stat
// (utime + stime, in clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// cpuPair reads this process's and process pid's CPU time together.
func cpuPair(pid int) (self, other time.Duration, err error) {
	other, err = procCPU(pid)
	return selfCPU(), other, err
}

// peakRSSMB is process pid's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
