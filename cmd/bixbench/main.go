// Command bixbench regenerates the tables and figures of the paper's
// evaluation section as plain-text tables.
//
// Usage:
//
//	bixbench -list
//	bixbench -run fig8
//	bixbench -all [-rows 200000] [-quick] [-o report.txt]
//	bixbench -all -json bench.json [-metrics :8318]
//	bixbench -scaling [-rows 16777216] [-segbits 18] [-workers 1,2,4] [-json scaling.json]
//
// -scaling benchmarks segmented (intra-query parallel) evaluation against
// Eval on one goroutine over a knee-design range-encoded index,
// cross-checking every parallel result bitmap against Eval's.
//
// -json writes a machine-readable BENCH_*.json style summary next to the
// text report: per-experiment wall times plus a query microbenchmark
// (ops/sec, scans/query and a latency histogram with p50/p90/p99).
// -metrics serves the telemetry registry at <addr>/metrics for the
// duration of the run so long sweeps can be scraped live.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bitmapindex"
	"bitmapindex/internal/data"
	"bitmapindex/internal/experiments"
	"bitmapindex/internal/telemetry"
)

// options collects the command-line configuration of one bixbench run.
type options struct {
	List    bool
	Run     string
	All     bool
	Rows    int
	Seed    int64
	Quick   bool
	CSV     bool
	Out     string
	JSON    string   // write a machine-readable summary here
	Metrics string   // serve /metrics on this address while running
	Scaling bool     // run the segmented-evaluation scaling benchmark
	SegBits int      // segment width for -scaling (0 = library default)
	Workers string   // comma-separated worker counts for -scaling
	Suite   string   // comma-separated suite sets to run ("core", "compression")
	Compare bool     // compare two -json reports for regressions
	Args    []string // positional arguments (the two reports for -compare)
}

func main() {
	var o options
	flag.BoolVar(&o.List, "list", false, "list available experiments")
	flag.StringVar(&o.Run, "run", "", "run one experiment by id")
	flag.BoolVar(&o.All, "all", false, "run every experiment")
	flag.IntVar(&o.Rows, "rows", experiments.Default().Rows, "relation cardinality for data-driven experiments")
	flag.Int64Var(&o.Seed, "seed", experiments.Default().Seed, "random seed for synthetic data")
	flag.BoolVar(&o.Quick, "quick", false, "reduced parameter sweeps")
	flag.StringVar(&o.Out, "o", "", "write the report to a file instead of stdout")
	flag.BoolVar(&o.CSV, "csv", false, "emit comma-separated rows (with #-comment headers) for plotting")
	flag.StringVar(&o.JSON, "json", "", "write a machine-readable benchmark summary to this file")
	flag.StringVar(&o.Metrics, "metrics", "", "serve the telemetry registry at this address (e.g. :8318) during the run")
	flag.BoolVar(&o.Scaling, "scaling", false, "benchmark segmented (intra-query parallel) evaluation vs serial")
	flag.IntVar(&o.SegBits, "segbits", 0, "segment width (log2 bits) for -scaling; 0 selects the library default")
	flag.StringVar(&o.Workers, "workers", "1,2,4", "comma-separated worker counts for -scaling")
	flag.StringVar(&o.Suite, "suite", "", "run named benchmark suite sets (\"core\", \"compression\", \"advisor\", comma-separated) instead of experiments")
	flag.BoolVar(&o.Compare, "compare", false, "compare two -json reports (old.json new.json); non-zero exit on regression")
	flag.Parse()
	o.Args = flag.Args()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "bixbench:", err)
		os.Exit(1)
	}
}

// benchSchemaVersion is bumped whenever the -json layout changes shape.
// v2 added schema_version itself and the suites section; v1 reports have
// schema_version 0 when decoded.
const benchSchemaVersion = 2

// benchReport is the -json output schema. Struct fields (not maps) keep
// the key order stable across runs, so reports diff cleanly and baselines
// stay reviewable.
type benchReport struct {
	Schema        string           `json:"schema"` // "bixbench/v2"
	SchemaVersion int              `json:"schema_version"`
	GoVersion     string           `json:"go_version"`
	Rows          int              `json:"rows"`
	Seed          int64            `json:"seed"`
	Quick         bool             `json:"quick"`
	Experiments   []benchExpResult `json:"experiments,omitempty"`
	QueryBench    *queryBench      `json:"query_bench,omitempty"`
	Scaling       *scalingReport   `json:"scaling,omitempty"`
	Suites        []suiteResult    `json:"suites,omitempty"`
}

// newReport seeds a report with the run configuration.
func newReport(o options) benchReport {
	return benchReport{
		Schema:        "bixbench/v2",
		SchemaVersion: benchSchemaVersion,
		GoVersion:     runtime.Version(),
		Rows:          o.Rows,
		Seed:          o.Seed,
		Quick:         o.Quick,
	}
}

// scalingReport summarizes the -scaling benchmark: one heavy range query
// evaluated serially and then segment-parallel at each worker count.
// Speedups are relative to Eval (one goroutine) on this machine; check
// Cores before reading anything into them — on a single-core runner the
// parallel path can only measure its own overhead.
type scalingReport struct {
	Rows      int            `json:"rows"`
	Card      int            `json:"card"`
	SegBits   int            `json:"segbits"`
	Cores     int            `json:"cores"`
	Op        string         `json:"op"`
	SerialSec float64        `json:"serial_seconds_per_query"`
	Points    []scalingPoint `json:"points"`
}

type scalingPoint struct {
	Workers int     `json:"workers"`
	Sec     float64 `json:"seconds_per_query"`
	Speedup float64 `json:"speedup_vs_serial"`
}

type benchExpResult struct {
	ID      string  `json:"id"`
	Paper   string  `json:"paper"`
	Seconds float64 `json:"seconds"`
}

// queryBench summarizes the range-query microbenchmark: a knee-design
// range-encoded index over uniform data, one <= query per distinct value.
type queryBench struct {
	Queries       int            `json:"queries"`
	OpsPerSec     float64        `json:"ops_per_sec"`
	ScansPerQuery float64        `json:"scans_per_query"`
	Latency       latencySummary `json:"latency"`
}

type latencySummary struct {
	Count      int64         `json:"count"`
	SumSeconds float64       `json:"sum_seconds"`
	P50        float64       `json:"p50_seconds"`
	P90        float64       `json:"p90_seconds"`
	P99        float64       `json:"p99_seconds"`
	Buckets    []bucketCount `json:"buckets"`
}

type bucketCount struct {
	LE         float64 `json:"le"`
	Cumulative int64   `json:"cumulative"`
}

func realMain(o options) (err error) {
	if o.List {
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %-12s %s\n", e.ID, e.Paper, e.Title)
		}
		return nil
	}
	if o.Metrics != "" {
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/metrics", telemetry.Handler(telemetry.Default()))
			if err := http.ListenAndServe(o.Metrics, mux); err != nil {
				fmt.Fprintln(os.Stderr, "bixbench: metrics server:", err)
			}
		}()
	}
	var w io.Writer = os.Stdout
	if o.Out != "" {
		f, cerr := os.Create(o.Out)
		if cerr != nil {
			return cerr
		}
		// A dropped close error could silently truncate the report, so
		// promote it to the command's error when nothing else failed.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}
	if o.Compare {
		if len(o.Args) != 2 {
			return fmt.Errorf("-compare needs two positional arguments: old.json new.json")
		}
		return runCompare(o.Args[0], o.Args[1], w)
	}
	if o.Suite != "" {
		var suites []suiteResult
		for _, name := range strings.Split(o.Suite, ",") {
			var run func(options, io.Writer) ([]suiteResult, error)
			switch strings.TrimSpace(name) {
			case "core":
				run = runSuites
			case "compression":
				run = runCompressionSuites
			case "advisor":
				run = runAdvisorSuites
			default:
				return fmt.Errorf("unknown suite %q (available: core, compression, advisor)", name)
			}
			s, serr := run(o, w)
			if serr != nil {
				return serr
			}
			suites = append(suites, s...)
		}
		if o.JSON != "" {
			report := newReport(o)
			report.Suites = suites
			return writeJSONReport(o.JSON, report)
		}
		return nil
	}
	if o.Scaling {
		sr, serr := runScaling(o, w)
		if serr != nil {
			return serr
		}
		if o.JSON != "" {
			report := newReport(o)
			report.Scaling = sr
			return writeJSONReport(o.JSON, report)
		}
		return nil
	}
	cfg := experiments.Config{Rows: o.Rows, Seed: o.Seed, Quick: o.Quick, CSV: o.CSV}
	var todo []experiments.Experiment
	switch {
	case o.Run != "":
		e, ok := experiments.Find(o.Run)
		if !ok {
			return fmt.Errorf("unknown experiment %q; try -list", o.Run)
		}
		todo = []experiments.Experiment{e}
	case o.All:
		todo = experiments.All()
	default:
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -list, -run <id> or -all")
	}
	report := newReport(o)
	ww := cfg.Writer(w)
	for _, e := range todo {
		t0 := time.Now()
		if err := e.Run(cfg, ww); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		elapsed := time.Since(t0)
		marker := "[%s: %s, %v]\n"
		if o.CSV {
			marker = "# done %s: %s, %v\n"
		}
		fmt.Fprintf(w, marker, e.ID, e.Paper, elapsed.Round(time.Millisecond))
		report.Experiments = append(report.Experiments,
			benchExpResult{ID: e.ID, Paper: e.Paper, Seconds: elapsed.Seconds()})
	}
	if o.JSON != "" {
		qb, err := runQueryBench(o.Rows, o.Seed)
		if err != nil {
			return err
		}
		report.QueryBench = qb
		return writeJSONReport(o.JSON, report)
	}
	return nil
}

func writeJSONReport(path string, report benchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		_ = f.Close() // the encode error takes precedence
		return err
	}
	return f.Close()
}

// parseWorkers parses the -workers list, e.g. "1,2,4".
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q (want positive integers, e.g. \"1,2,4\")", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workers list is empty")
	}
	return out, nil
}

// runScaling builds a knee-design range-encoded index over uniform data
// and times one heavy range query (A <= card/2, the worst case for scans)
// with Eval (the "serial" baseline: the program runner on the calling
// goroutine at the default segment width) and with SegmentedEval at each
// requested worker count, verifying every parallel result against Eval's.
func runScaling(o options, w io.Writer) (*scalingReport, error) {
	workerCounts, err := parseWorkers(o.Workers)
	if err != nil {
		return nil, err
	}
	const card = 100
	col := data.Uniform(o.Rows, card, o.Seed)
	ix, err := bitmapindex.New(col.Values, card)
	if err != nil {
		return nil, err
	}
	op, v := bitmapindex.Le, uint64(card/2)
	serialSec, want := timePerQuery(func() *bitmapindex.Bitmap {
		return ix.Eval(op, v, nil)
	})
	sr := &scalingReport{
		Rows:      o.Rows,
		Card:      card,
		SegBits:   o.SegBits,
		Cores:     runtime.GOMAXPROCS(0),
		Op:        fmt.Sprintf("A <= %d", v),
		SerialSec: serialSec,
	}
	fmt.Fprintf(w, "segmented scaling: rows=%d card=%d segbits=%d cores=%d op=%q\n",
		sr.Rows, card, o.SegBits, sr.Cores, sr.Op)
	fmt.Fprintf(w, "  serial      %12.6fs/query\n", serialSec)
	for _, nw := range workerCounts {
		cfg := bitmapindex.SegConfig{SegBits: o.SegBits, Workers: nw}
		sec, got := timePerQuery(func() *bitmapindex.Bitmap {
			return ix.SegmentedEval(op, v, nil, cfg)
		})
		if !got.Equal(want) {
			return nil, fmt.Errorf("segmented result at %d workers differs from serial", nw)
		}
		p := scalingPoint{Workers: nw, Sec: sec, Speedup: serialSec / sec}
		sr.Points = append(sr.Points, p)
		fmt.Fprintf(w, "  workers=%-3d %12.6fs/query  speedup %.2fx\n", p.Workers, p.Sec, p.Speedup)
	}
	return sr, nil
}

// timePerQuery runs f for at least 3 repetitions and ~150ms and returns
// the mean seconds per call plus the last result.
func timePerQuery(f func() *bitmapindex.Bitmap) (float64, *bitmapindex.Bitmap) {
	var res *bitmapindex.Bitmap
	reps := 0
	t0 := time.Now()
	for reps < 3 || time.Since(t0) < 150*time.Millisecond {
		res = f()
		reps++
	}
	return time.Since(t0).Seconds() / float64(reps), res
}

// runQueryBench evaluates one range query per distinct value against a
// knee-design range-encoded index and summarizes latency in a private
// registry histogram (so the microbenchmark numbers are isolated from the
// process-wide metrics the run itself produced).
func runQueryBench(rows int, seed int64) (*queryBench, error) {
	const card = 100
	col := data.Uniform(rows, card, seed)
	ix, err := bitmapindex.New(col.Values, card)
	if err != nil {
		return nil, err
	}
	lat := telemetry.New().Histogram("bix_bench_query_latency_seconds",
		"Latency of the bixbench query microbenchmark.", telemetry.LatencyBuckets)
	var st bitmapindex.Stats
	opt := &bitmapindex.EvalOptions{Stats: &st}
	t0 := time.Now()
	n := 0
	for v := uint64(0); v < card; v++ {
		q0 := time.Now()
		ix.Eval(bitmapindex.Le, v, opt)
		lat.Observe(time.Since(q0).Seconds())
		n++
	}
	total := time.Since(t0)
	qb := &queryBench{
		Queries:       n,
		OpsPerSec:     float64(n) / total.Seconds(),
		ScansPerQuery: float64(st.Scans) / float64(n),
		Latency: latencySummary{
			Count:      lat.Count(),
			SumSeconds: lat.Sum(),
			P50:        lat.Quantile(0.50),
			P90:        lat.Quantile(0.90),
			P99:        lat.Quantile(0.99),
		},
	}
	bounds, cum := lat.Bounds(), lat.Cumulative()
	for i, le := range bounds {
		qb.Latency.Buckets = append(qb.Latency.Buckets, bucketCount{LE: le, Cumulative: cum[i]})
	}
	return qb, nil
}
