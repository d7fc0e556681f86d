package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var smokeSize = sizes{
	diskRows: 1 << 14, tableRows: 1 << 14, maintainRows: 1 << 14,
	pool: 16, warmup: 20, compactAt: 512, stepWrites: 64, setups: 2, libBuilds: 2,
}

// buildBixstore compiles bixstore from this checkout into a temp dir.
func buildBixstore(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bixstore")
	if out, err := exec.Command("go", "build", "-o", bin, "bitmapindex/cmd/bixstore").CombinedOutput(); err != nil {
		t.Fatalf("go build bixstore: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeAllWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that every metric is printed with its unit and that
// no answer was wrong.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds bixstore and serves indexes")
	}
	bin := buildBixstore(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: wl.name, seed: 7, seconds: 0.3, trace: traced,
				bixstore: bin, work: t.TempDir(), size: smokeSize,
			}
			if traced {
				cfg.spans = filepath.Join(t.TempDir(), "spans.json")
			}
			res, rep, err := runOne(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, traced, err)
			}
			var out bytes.Buffer
			printReport(&out, rep, res)
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			for _, m := range specs {
				if !strings.Contains(out.String(), m.name) || res.Metrics[m.name].Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s (%s) missing from the report", wl.name, traced, m.name, m.unit)
				}
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(specs))
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed: %s",
					wl.name, traced, res.Correct, res.Failed, res.Attempted, rep.firstErr)
			}
			if traced {
				checkSpanFile(t, cfg.spans)
				for name, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: %s = %v", wl.name, name, m.Value)
					}
				}
			}
			if wl.kind == maintainKind && !traced && !strings.Contains(out.String(), "compactions") {
				t.Errorf("maintain report lacks its compaction count:\n%s", out.String())
			}
		}
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for _, s := range f.Spans {
		if s.Req == 0 || s.Name == "" || s.End < s.Start || s.Self < 0 {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// TestOracleCatchesCorruptAnswer serves answers that are off by one and
// checks that every one is counted as failed.
func TestOracleCatchesCorruptAnswer(t *testing.T) {
	qs, err := indexQueries([]uint64{0, 1, 1, 2, 3, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, q := range qs {
		want[q.text] = q.want
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"matches": %d, "elapsed_ns": 1}`, want[r.URL.Query().Get("q")]+1)
	}))
	defer srv.Close()
	c := newClient(strings.TrimPrefix(srv.URL, "http://"))
	samples := closedLoop(context.Background(), c, qs, seqNext([]int{0, 5, 9, 13, 23}), clients, time.Time{})
	if tl := tallySamples(samples); tl.attempted != 5 || tl.failed != 5 {
		t.Fatalf("corrupt answers: %d of %d failed, want 5 of 5", tl.failed, tl.attempted)
	}

	// The maintain oracle: a count one off the mirror's is wrong.
	mir := newMirror([]uint64{5, 6, 7})
	mir.apply(write{v: 5})
	mir.apply(write{del: true, row: 1})
	if got := mir.count("=", 5); got != 2 {
		t.Fatalf("mirror count(= 5) = %d, want 2", got)
	}
	mir.compact()
	if mir.rows() != 3 || mir.vals[1] != 7 {
		t.Fatalf("compacted mirror = %v, want [5 7 5]", mir.vals)
	}
}

// TestCubeMatchesBruteForce checks the table oracle's counts against a
// scan of the rows.
func TestCubeMatchesBruteForce(t *testing.T) {
	tbl := genTable(5000, 3)
	cb := newCube(tbl)
	for i := 0; i < 300; i++ {
		cls := tableClauses(3, i)
		want := 0
	rows:
		for r := range tbl.cols[0] {
			for _, c := range cls {
				if !holds(c.op, tbl.cols[c.col][r], c.c) {
					continue rows
				}
			}
			want++
		}
		if got := cb.count(cls); got != want {
			t.Fatalf("conjunction %d %v: cube counts %d, rows %d", i, cls, got, want)
		}
	}
}

// TestServerStops checks that stop ends the serve child and reaps it.
func TestServerStops(t *testing.T) {
	if testing.Short() {
		t.Skip("builds bixstore")
	}
	bin := buildBixstore(t)
	dir := t.TempDir()
	values := filepath.Join(dir, "v.txt")
	if err := writeValues(values, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ix := filepath.Join(dir, "ix")
	if out, err := exec.Command(bin, "build", "-dir", ix, "-values", values, "-C", "4").CombinedOutput(); err != nil {
		t.Fatalf("%v: %s", err, out)
	}
	srv, err := startServer(context.Background(), bin, ix, filepath.Join(dir, "serve.log"), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv.stop()
	if srv.cmd.ProcessState == nil {
		t.Fatal("serve child was not waited for")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload lists of this command in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, bench default -seconds %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, bench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), bench %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, bench %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), bench %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
