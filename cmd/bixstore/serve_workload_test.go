package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitmapindex"
	"bitmapindex/internal/workload"
)

// buildTestTable writes a small CSV and indexes it into a catalog table
// with `bixstore csv` and the given extra flags, returning the table
// directory.
func buildTestTable(t *testing.T, csvFlags ...string) string {
	t.Helper()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	var rows []string
	rows = append(rows, "quantity,price")
	for i := 0; i < 400; i++ {
		rows = append(rows, fmt.Sprintf("%d,%d", i%40+1, (i%200)*5))
	}
	if err := os.WriteFile(csvPath, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tblDir := filepath.Join(dir, "tbl")
	if err := cmdCSV(append([]string{"-in", csvPath, "-dir", tblDir}, csvFlags...)); err != nil {
		t.Fatal(err)
	}
	return tblDir
}

func serveGet(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// TestServeHealthAndBuildInfo: both probes answer ok, and /metrics carries
// the build-info and uptime gauges.
func TestServeHealthAndBuildInfo(t *testing.T) {
	st, err := bitmapindex.OpenIndex(buildTestIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newQueryServer(st, 0, 0, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	mux := srv.mux()
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, body := serveGet(t, mux, path); code != 200 || !strings.Contains(body, "ok") {
			t.Errorf("%s = %d %q, want 200 ok", path, code, body)
		}
	}
	code, body := serveGet(t, mux, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, `bix_build_info{`) || !strings.Contains(body, "goversion=") {
		t.Errorf("/metrics missing labeled bix_build_info:\n%.400s", body)
	}
	if !strings.Contains(body, "bix_uptime_seconds") {
		t.Errorf("/metrics missing bix_uptime_seconds:\n%.400s", body)
	}
}

// TestServeWorkloadEndpoints (index mode): /query feeds the single-attribute
// accumulator, /debug/workload serves a valid profile, and /debug/advisor
// prices the design within its own budget.
func TestServeWorkloadEndpoints(t *testing.T) {
	st, err := bitmapindex.OpenIndex(buildTestIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newQueryServer(st, 0, 0, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	mux := srv.mux()
	for i := 0; i < 3; i++ {
		if code, body := serveGet(t, mux, "/query?q=%3C%3D+17"); code != 200 {
			t.Fatalf("/query = %d: %s", code, body)
		}
	}
	if code, body := serveGet(t, mux, "/query?q=%3D+5"); code != 200 {
		t.Fatalf("/query = %d: %s", code, body)
	}

	code, body := serveGet(t, mux, "/debug/workload")
	if code != 200 {
		t.Fatalf("/debug/workload = %d", code)
	}
	var p workload.Profile
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("bad /debug/workload JSON: %v\n%s", err, body)
	}
	if len(p.Attrs) != 1 || p.Attrs[0].Name != "value" {
		t.Fatalf("profile attrs = %+v, want single attr \"value\"", p.Attrs)
	}
	if p.Attrs[0].Range != 3 || p.Attrs[0].Eq != 1 {
		t.Errorf("value profile range=%d eq=%d, want 3/1", p.Attrs[0].Range, p.Attrs[0].Eq)
	}
	if p.Attrs[0].Scans == 0 || p.Attrs[0].LatencyNS == 0 {
		t.Errorf("scans=%d latency=%d, want both attributed", p.Attrs[0].Scans, p.Attrs[0].LatencyNS)
	}

	code, body = serveGet(t, mux, "/debug/advisor")
	if code != 200 {
		t.Fatalf("/debug/advisor = %d: %s", code, body)
	}
	var rep workload.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad /debug/advisor JSON: %v\n%s", err, body)
	}
	if rep.Budget <= 0 || rep.TotalQueries != 4 {
		t.Errorf("advisor budget=%d total=%d, want budget>0 total=4", rep.Budget, rep.TotalQueries)
	}
	recSpace := 0
	for _, a := range rep.Attrs {
		recSpace += a.RecommendedSpace
	}
	if recSpace > rep.Budget {
		t.Errorf("recommendation overruns budget: %d > %d", recSpace, rep.Budget)
	}
}

// TestServeTableMode: the catalog mode answers conjunctions, attributes
// predicates per column in /debug/workload, and serves the advisor report.
func TestServeTableMode(t *testing.T) {
	ts, err := newTableServer(buildTestTable(t), "")
	if err != nil {
		t.Fatal(err)
	}
	mux := ts.mux()
	q := strings.ReplaceAll("quantity <= 10 AND price > 500", " ", "+")
	code, body := serveGet(t, mux, "/query?q="+q+"&rids=1&limit=2")
	if code != 200 {
		t.Fatalf("/query = %d: %s", code, body)
	}
	var resp tableQueryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad /query JSON: %v\n%s", err, body)
	}
	if resp.Rows != 400 || resp.Matches <= 0 || resp.Scans <= 0 {
		t.Errorf("rows=%d matches=%d scans=%d, want 400/positive/positive", resp.Rows, resp.Matches, resp.Scans)
	}
	if len(resp.RIDs) == 0 || len(resp.RIDs) > 2 {
		t.Errorf("rids=1&limit=2 returned %d ids", len(resp.RIDs))
	}
	if code, _ := serveGet(t, mux, "/query?q=bogus"); code != 400 {
		t.Errorf("bad conjunction: got %d, want 400", code)
	}
	if code, _ := serveGet(t, mux, "/healthz"); code != 200 {
		t.Errorf("/healthz = %d", code)
	}

	code, body = serveGet(t, mux, "/debug/workload")
	if code != 200 {
		t.Fatalf("/debug/workload = %d", code)
	}
	var p workload.Profile
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	byName := map[string]workload.AttrProfile{}
	for _, a := range p.Attrs {
		byName[a.Name] = a
	}
	if byName["quantity"].Range != 1 || byName["price"].Range != 1 {
		t.Errorf("per-attr range counts = %+v, want 1 each for quantity and price", byName)
	}

	code, body = serveGet(t, mux, "/debug/advisor")
	if code != 200 {
		t.Fatalf("/debug/advisor = %d: %s", code, body)
	}
	var rep workload.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Attrs) != 2 || rep.Budget <= 0 {
		t.Errorf("advisor report attrs=%d budget=%d", len(rep.Attrs), rep.Budget)
	}
}

// TestServeWorkloadPersistence: a profile saved on shutdown is replayed
// into the accumulator on the next boot, so counts survive restarts.
func TestServeWorkloadPersistence(t *testing.T) {
	tblDir := buildTestTable(t)
	wlPath := filepath.Join(t.TempDir(), "wl.json")

	ts1, err := newTableServer(tblDir, wlPath) // file absent: first boot
	if err != nil {
		t.Fatal(err)
	}
	mux := ts1.mux()
	for i := 0; i < 5; i++ {
		if code, body := serveGet(t, mux, "/query?q=quantity+%3C%3D+7"); code != 200 {
			t.Fatalf("/query = %d: %s", code, body)
		}
	}
	// What cmdServe's shutdown hook does with -workload set.
	if err := ts1.tbl.Workload().Snapshot().Save(wlPath); err != nil {
		t.Fatal(err)
	}

	ts2, err := newTableServer(tblDir, wlPath)
	if err != nil {
		t.Fatal(err)
	}
	p := ts2.tbl.Workload().Snapshot()
	var quantity workload.AttrProfile
	for _, a := range p.Attrs {
		if a.Name == "quantity" {
			quantity = a
		}
	}
	if quantity.Range != 5 {
		t.Errorf("replayed quantity range count = %d, want 5", quantity.Range)
	}

	// A corrupt profile must fail the boot loudly, not silently reset.
	if err := os.WriteFile(wlPath, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newTableServer(tblDir, wlPath); err == nil {
		t.Error("corrupt workload profile must fail newTableServer")
	}
}

// TestCmdAdvise: the subcommand prints a report for a saved skewed profile
// and as JSON.
func TestCmdAdvise(t *testing.T) {
	tblDir := buildTestTable(t)
	if err := cmdAdvise([]string{"-dir", tblDir}); err != nil {
		t.Fatal(err)
	}

	// Build a hot-attribute profile through the real accumulator.
	ts, err := newTableServer(tblDir, "")
	if err != nil {
		t.Fatal(err)
	}
	mux := ts.mux()
	for i := 0; i < 20; i++ {
		if code, _ := serveGet(t, mux, "/query?q=quantity+%3C%3D+9"); code != 200 {
			t.Fatal("query failed")
		}
	}
	if code, _ := serveGet(t, mux, "/query?q=price+%3D+25"); code != 200 {
		t.Fatal("query failed")
	}
	profPath := filepath.Join(t.TempDir(), "wl.json")
	if err := ts.tbl.Workload().Snapshot().Save(profPath); err != nil {
		t.Fatal(err)
	}
	if err := cmdAdvise([]string{"-dir", tblDir, "-profile", profPath, "-json"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAdvise([]string{"-dir", tblDir, "-profile", filepath.Join(t.TempDir(), "nope.json")}); err == nil {
		t.Error("missing -profile file must fail")
	}
	if err := cmdAdvise([]string{}); err == nil {
		t.Error("advise without -dir must fail")
	}
}
