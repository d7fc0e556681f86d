// Command bench is the repository benchmark. It builds nothing itself
// (bench/run.sh builds bixstore and this command from the checkout),
// generates every input from a seed, and drives four workloads end to end:
// disk, cached and table against a real `bixstore serve` process over
// loopback HTTP, and maintain against the MutableIndex library API. Every
// answer is checked against an oracle built from the generated inputs.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload disk -seed 1 -trace 0
//	bash bench/run.sh -workload table -seed 1 -trace 1 -spans spans.json
//	bash bench/run.sh -seed 1                          # all four workloads
//	bash bench/run.sh -runs 5 -json setA.json          # medians and quartiles
//	bash bench/run.sh -compare setA.json setB.json     # apply BENCHMARK.json bounds
//	bash bench/run.sh -runs 10 -against ../parent      # interleave with another checkout
//
// A single-workload run prints its metrics one per line and then, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end ones; with -trace 1 a traced pass reports the per-layer ones.
// A wrong answer makes the command exit 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// config is one benchmark invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // span file written by a traced run; "" = none
	bixstore string
	work     string
	size     sizes
}

// sizes are the input sizes and operation counts of the workloads.
type sizes struct {
	diskRows     int // disk and cached index rows
	tableRows    int
	maintainRows int
	pool         int // table: conjunctions in the seeded query pool
	warmup       int // disk and table: untimed queries before measuring
	compactAt    int // maintain: Compact once DeltaRows reaches this
	stepWrites   int // maintain: writes per step, before its one query
	setups       int // served: build + serve launches timed for setup_s
	libBuilds    int // maintain: in-process builds timed for setup_s
}

// A maintain build takes about 15 ms, so its median needs more samples
// than the served set-ups, which take 0.3 to 3 s each.
var fullSize = sizes{
	diskRows: 1 << 22, tableRows: 1 << 20, maintainRows: 1 << 20,
	pool: 2048, warmup: 200, compactAt: 32768, stepWrites: 64, setups: 3, libBuilds: 25,
}

// runSeconds is how long a run measures unless -seconds says otherwise. It
// equals run_seconds in BENCHMARK.json; runs made from that file pass it
// as -seconds, which is why the flag exists.
const runSeconds = 20

// clients is the closed-loop client count and connection limit: one per
// core of the two-core box the baseline was taken on. With both cores
// busy, runs repeat more closely than with one client, whose every
// request waits for an idle core to wake.
const clients = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one single-workload run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec names one reported metric. The end-to-end and per-layer lists
// mirror BENCHMARK.json (TestBenchmarkJSONMatches keeps them in step).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"qps", "queries/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"index_bytes_per_row", "B/row"},
}

// perLayer lists the traced pass's metrics. The *_share metrics split the
// traced per-operation time (trace.op_us) by layer self time; with
// trace.unattributed_share they add up to 1, and a layer the workload does
// not pass through reads 0.
var perLayer = []metricSpec{
	{"trace.op_us", "us"},
	{"trace.unattributed_share", "share"},
	{"trace.overhead_share", "share"},
	{"serve.overhead_share", "share"},
	{"storage.read_share", "share"},
	{"storage.decode_share", "share"},
	{"storage.other_share", "share"},
	{"core.share", "share"},
	{"catalog.and_share", "share"},
	{"catalog.other_share", "share"},
	{"reorder.mapback_share", "share"},
	{"mutable.write_share", "share"},
	{"mutable.compact_share", "share"},
	{"mutable.other_share", "share"},
	{"bitvec.count_share", "share"},
	{"core.eval_us", "us"},
	{"core.scans_per_query", "count"},
	{"core.ops_per_query", "count"},
	{"storage.files_per_query", "count"},
	{"storage.bytes_per_query", "B"},
	{"cache.hit_rate", "share"},
	{"serve.response_bytes", "B"},
	{"catalog.preds_per_query", "count"},
	{"mutable.delta_rows", "count"},
	{"bitvec.and_ns_per_word", "ns/word"},
	{"bitvec.or_ns_per_word", "ns/word"},
	{"bitvec.xor_ns_per_word", "ns/word"},
	{"bitvec.andnot_ns_per_word", "ns/word"},
	{"bitvec.not_ns_per_word", "ns/word"},
	{"bitvec.count_ns_per_word", "ns/word"},
	{"process.cpu_us_per_query", "us"},
	{"process.peak_rss_mb", "MB"},
	{"loadgen.cpu_share", "share"},
	{"setup.build_s", "s"},
	{"setup.ready_s", "s"},
}

// report collects one run's metrics and free-form detail lines.
type report struct {
	workload string
	values   map[string]float64
	details  []string
	tally
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) detail(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// result keeps exactly the metrics of the requested list; a metric the run
// did not set is a bug in the benchmark.
func (r *report) result(specs []metricSpec) (*result, error) {
	res := &result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.workload, s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}

// tally counts checked operations and wrong or failed ones.
type tally struct {
	attempted, failed int
	firstErr          string
}

func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = err.Error()
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "disk, cached, table, maintain or all")
		seed     = fs.Int64("seed", 1, "seed every input and operation stream is generated from")
		seconds  = fs.Float64("seconds", runSeconds, "measured seconds per workload run")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: a traced pass reporting per-layer metrics")
		spans    = fs.String("spans", "", "with -trace 1: write the recorded spans to this JSON file")
		runs     = fs.Int("runs", 1, "with -workload all: runs per workload, with seeds seed, seed+1, ...")
		jsonOut  = fs.String("json", "", "with -workload all: write every run's metrics and their quartiles here")
		against  = fs.String("against", "", "with -workload all -trace 0: another checkout, run in turn with this one and compared with it")
		compare  = fs.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
		bixstore = fs.String("bixstore", ".bench_build/bin/bixstore", "bixstore binary to build and serve with")
		work     = fs.String("work", ".bench_build/work", "directory for generated inputs and indexes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(min(clients, runtime.NumCPU()))
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spans: *spans, bixstore: *bixstore, work: *work, size: fullSize,
	}
	if cfg.workload == "all" {
		return runAll(ctx, cfg, *runs, *against, *jsonOut, stdout, stderr)
	}
	res, rep, err := runOne(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printReport(stdout, rep, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed; first: %s\n",
			cfg.workload, res.Failed, res.Attempted, rep.firstErr)
		return 1
	}
	return 0
}

// runOne runs one workload in this process and returns its result.
func runOne(ctx context.Context, cfg config) (*result, *report, error) {
	wl, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", wl.name, cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	var rep *report
	var err error
	if wl.kind == maintainKind {
		rep, err = runMaintain(ctx, cfg)
	} else {
		rep, err = runServed(ctx, cfg, wl, dir)
	}
	if err != nil {
		return nil, nil, err
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res, err := rep.result(specs)
	return res, rep, err
}

func printReport(w io.Writer, rep *report, res *result) {
	for _, d := range rep.details {
		fmt.Fprintf(w, "%-9s %s\n", rep.workload, d)
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-9s %-28s %16.6g %s\n", rep.workload, name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-9s checked %d operations, %d failed\n", rep.workload, res.Attempted, res.Failed)
}

// runAll runs every workload runs times with consecutive seeds, each run
// in a fresh child process started the way BENCHMARK.json's command is:
// `bash bench/run.sh` with -workload, -seed, -seconds and -trace. It prints
// every run and the per-metric quartiles, and writes them to jsonOut when
// set. With against, the other checkout runs each (workload, seed) too,
// the two taking turns at going first, so that both see the same stretches
// of the host's wandering speed; the other checkout is then the baseline
// its runs are compared with.
func runAll(ctx context.Context, cfg config, runs int, against, jsonOut string, stdout, stderr io.Writer) int {
	if against != "" && cfg.trace {
		fmt.Fprintln(stderr, "bench: -against compares end-to-end runs; use -trace 0")
		return 2
	}
	var spec *benchSpec
	if against != "" {
		var err error
		if spec, err = loadSpec("BENCHMARK.json"); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	type side struct {
		dir string // checkout root
		set *runSet
	}
	sides := []side{{".", newSet(cfg.trace)}}
	if against != "" {
		sides = append(sides, side{against, newSet(cfg.trace)})
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	code := 0
	for r := 0; r < runs; r++ {
		seed := cfg.seed + int64(r)
		for _, wl := range workloads {
			for k := range sides {
				j := (r + k) % len(sides)
				args := []string{
					"bench/run.sh", "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace,
				}
				if cfg.spans != "" {
					ext := filepath.Ext(cfg.spans)
					args = append(args, "-spans", fmt.Sprintf("%s-%s-%d%s", strings.TrimSuffix(cfg.spans, ext), wl.name, seed, ext))
				}
				res, err := runChild(ctx, sides[j].dir, args, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %s seed %d: %v\n", sides[j].dir, wl.name, seed, err)
					code = 1
					continue
				}
				if !res.Correct {
					code = 1
				}
				sides[j].set.add(wl.name, res)
			}
		}
		for _, sd := range sides {
			sd.set.Seeds = append(sd.set.Seeds, seed)
		}
	}
	for _, sd := range sides {
		sd.set.summarize()
		fmt.Fprintf(stdout, "\n%s:", sd.dir)
		sd.set.print(stdout)
	}
	if jsonOut != "" {
		if err := sides[0].set.save(jsonOut); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if against != "" {
		fmt.Fprintf(stdout, "\na = %s, b = this checkout\n", against)
		if compareSets(sides[1].set, sides[0].set, spec, stdout) != 0 {
			code = 1
		}
	}
	return code
}

// runChild runs `bash args...` in checkout dir, relays its report lines
// and parses its result line.
func runChild(ctx context.Context, dir string, args []string, stdout, stderr io.Writer) (*result, error) {
	cmd := exec.CommandContext(ctx, "bash", args...)
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	var res result
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
		if err == nil {
			err = fmt.Errorf("no result line: %w", jerr)
		}
		return nil, err
	}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, err
	}
	return &res, nil
}
