package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"bitmapindex"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/profile"
)

// newTestServer opens the index at ixDir behind a queryServer with no cache
// and no slow log.
func newTestServer(t *testing.T, ixDir string) *queryServer {
	t.Helper()
	st, err := bitmapindex.OpenIndex(ixDir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newQueryServer(st, 0, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func muxGet(t *testing.T, mux *http.ServeMux, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec, rec.Body.String()
}

// TestServeDebugRuntime covers the /debug/runtime handler: a fresh runtime
// snapshot as JSON, readable without a running sampler.
func TestServeDebugRuntime(t *testing.T) {
	srv := newTestServer(t, buildTestIndex(t))
	mux := srv.mux()

	rec, body := muxGet(t, mux, "/debug/runtime")
	if rec.Code != 200 {
		t.Fatalf("/debug/runtime = %d: %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q, want application/json", ct)
	}
	var st profile.RuntimeStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad /debug/runtime JSON: %v\n%s", err, body)
	}
	if st.GoVersion == "" || st.Goroutines <= 0 || st.HeapBytes == 0 || st.NumCPU <= 0 {
		t.Errorf("implausible runtime status: %+v", st)
	}
	if st.ActiveQueries == nil {
		t.Error("active_queries must be present (empty list, not null)")
	}
}

// TestServeGracefulDrain sends SIGTERM while a query is held in flight and
// checks the drain: the in-flight request still completes with 200, the
// serve loop returns nil, and the shutdown profile hook runs exactly once.
func TestServeGracefulDrain(t *testing.T) {
	srv := newTestServer(t, buildTestIndex(t))
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testDelay = func() {
		once.Do(func() {
			close(inFlight)
			<-release
		})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	profileWrites := 0
	done := make(chan error, 1)
	go func() {
		done <- serveLoop(newHTTPServer(srv.mux()), ln,
			func() error { profileWrites++; return nil })
	}()

	type result struct {
		code int
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/query?q=" + url.QueryEscape("<= 17"))
		if err != nil {
			resCh <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resCh <- result{resp.StatusCode, nil}
	}()

	<-inFlight
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Give Shutdown a moment to close the listener so the held request is
	// genuinely drained, not answered before shutdown begins.
	time.Sleep(50 * time.Millisecond)
	close(release)

	res := <-resCh
	if res.err != nil || res.code != 200 {
		t.Errorf("in-flight query during drain: code=%d err=%v", res.code, res.err)
	}
	if err := <-done; err != nil {
		t.Errorf("serveLoop returned %v, want nil after graceful drain", err)
	}
	if profileWrites != 1 {
		t.Errorf("shutdown profile hook ran %d times, want 1", profileWrites)
	}
}

// TestHTTPServerBounded pins the server's limits: every timeout is set,
// the write timeout outlasts a default 30 s CPU profile capture, and
// headers are capped at 64 KiB.
func TestHTTPServerBounded(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.Handler == nil {
		t.Error("handler not set")
	}
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": s.ReadHeaderTimeout,
		"ReadTimeout":       s.ReadTimeout,
		"IdleTimeout":       s.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a bound", name, d)
		}
	}
	if s.WriteTimeout <= 30*time.Second {
		t.Errorf("WriteTimeout = %v, want longer than a 30 s profile", s.WriteTimeout)
	}
	if s.MaxHeaderBytes != 64<<10 {
		t.Errorf("MaxHeaderBytes = %d, want 64 KiB", s.MaxHeaderBytes)
	}
}

// TestServeDebugQueries drives the flight-recorder endpoint: every /query
// leaves a record retrievable from /debug/queries, and the plan filter,
// min_ns filter, ns sort, limit and outliers views all work.
func TestServeDebugQueries(t *testing.T) {
	srv := newTestServer(t, buildTestIndex(t))
	mux := srv.mux()

	queries := []string{"<= 17", "> 40", "== 3"}
	ours := map[string]bool{} // trace IDs of this test's own queries
	for _, q := range queries {
		rec, body := muxGet(t, mux, "/query?q="+url.QueryEscape(q))
		if rec.Code != 200 {
			t.Fatalf("/query %q = %d: %s", q, rec.Code, body)
		}
		var qr queryResponse
		if err := json.Unmarshal([]byte(body), &qr); err != nil || qr.TraceID == "" {
			t.Fatalf("/query %q: no trace ID (%v): %s", q, err, body)
		}
		ours[qr.TraceID] = true
	}

	decode := func(body string) debugQueriesResponse {
		t.Helper()
		var resp debugQueriesResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("bad /debug/queries JSON: %v\n%s", err, body)
		}
		return resp
	}

	// The recorder is process-global, so filter down to this server's plan
	// tag; at least our three queries must be retained. Records left by
	// earlier tests may be fully cached (no scans), so the scan check
	// applies to this test's own records, each of which must be present.
	rec, body := muxGet(t, mux, "/debug/queries?plan=http-query")
	if rec.Code != 200 {
		t.Fatalf("/debug/queries = %d: %s", rec.Code, body)
	}
	resp := decode(body)
	if resp.Count < len(queries) || resp.TotalCaptured == 0 {
		t.Fatalf("count=%d total=%d, want >= %d captured", resp.Count, resp.TotalCaptured, len(queries))
	}
	found := 0
	for _, rc := range resp.Records {
		if rc.Plan != "http-query" || rc.TraceID == "" || rc.Total <= 0 {
			t.Errorf("implausible flight record: %+v", rc)
		}
		if !ours[rc.TraceID] {
			continue
		}
		found++
		if rc.Scans <= 0 {
			t.Errorf("flight record of an uncached query has no scans: %+v", rc)
		}
	}
	if found != len(ours) {
		t.Errorf("found %d of this test's %d records", found, len(ours))
	}

	_, body = muxGet(t, mux, "/debug/queries?plan=http-query&limit=2")
	if got := decode(body); got.Count != 2 || len(got.Records) != 2 {
		t.Errorf("limit=2 returned %d records", got.Count)
	}

	_, body = muxGet(t, mux, "/debug/queries?sort=ns&limit=5")
	sorted := decode(body)
	for i := 1; i < len(sorted.Records); i++ {
		if sorted.Records[i].Total > sorted.Records[i-1].Total {
			t.Errorf("sort=ns not descending at %d: %v > %v", i,
				sorted.Records[i].Total, sorted.Records[i-1].Total)
		}
	}

	_, body = muxGet(t, mux, "/debug/queries?min_ns=9223372036854775806")
	if got := decode(body); got.Count != 0 {
		t.Errorf("min_ns=max returned %d records", got.Count)
	}

	rec, body = muxGet(t, mux, "/debug/queries?outliers=1")
	if rec.Code != 200 {
		t.Fatalf("outliers=1 = %d: %s", rec.Code, body)
	}
	if got := decode(body); got.Count == 0 {
		t.Error("outlier annex empty after queries ran")
	}

	if rec, _ = muxGet(t, mux, "/debug/queries?limit=x"); rec.Code != 400 {
		t.Errorf("bad limit: got %d, want 400", rec.Code)
	}
	if rec, _ = muxGet(t, mux, "/debug/queries?min_ns=x"); rec.Code != 400 {
		t.Errorf("bad min_ns: got %d, want 400", rec.Code)
	}
}

// TestServeQueryAnalyze checks /query?analyze=1 returns the PlanReport and
// that the scan model is exact on the served (on-disk, range-encoded)
// index: predicted scans equal the measured scans of this very execution.
func TestServeQueryAnalyze(t *testing.T) {
	srv := newTestServer(t, buildTestIndex(t))
	mux := srv.mux()

	rec, body := muxGet(t, mux, "/query?q="+url.QueryEscape("<= 17")+"&analyze=1")
	if rec.Code != 200 {
		t.Fatalf("analyze=1 = %d: %s", rec.Code, body)
	}
	var rep engine.PlanReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad PlanReport JSON: %v\n%s", err, body)
	}
	if !rep.ModelApplies || rep.TraceID == "" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.MeasuredScans <= 0 || rep.ScansError != 0 {
		t.Errorf("scan model not exact: predicted=%d measured=%d err=%v",
			rep.PredictedScans, rep.MeasuredScans, rep.ScansError)
	}
	if rep.Rows <= 0 || rep.BytesRead <= 0 {
		t.Errorf("rows=%d bytes_read=%d, want both positive", rep.Rows, rep.BytesRead)
	}
	if rep.Method != srv.desc {
		t.Errorf("method %q, want the index design %q", rep.Method, srv.desc)
	}
	if len(rep.Phases) == 0 {
		t.Error("analyzed report missing trace phases")
	}
}

// TestServeQueryAnalyzeBypassesCache pins the cached-server behavior:
// analyzed queries evaluate uncached, so a pool hit can never be
// misreported as cost-model error (predicted scans stay exact even when
// the same query was just served from the cache).
func TestServeQueryAnalyzeBypassesCache(t *testing.T) {
	st, err := bitmapindex.OpenIndex(buildTestIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newQueryServer(st, 8, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	mux := srv.mux()

	// Warm the cache with the plain query, then analyze the same one.
	path := "/query?q=" + url.QueryEscape("<= 17")
	if rec, body := muxGet(t, mux, path); rec.Code != 200 {
		t.Fatalf("warmup = %d: %s", rec.Code, body)
	}
	_, body := muxGet(t, mux, path+"&analyze=1")
	var rep engine.PlanReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad PlanReport JSON: %v\n%s", err, body)
	}
	if rep.ScansError != 0 || rep.MeasuredScans != rep.PredictedScans || rep.MeasuredScans <= 0 {
		t.Fatalf("cached server analyze: predicted=%d measured=%d err=%v",
			rep.PredictedScans, rep.MeasuredScans, rep.ScansError)
	}
}

// TestQueryAnalyzeCLI checks `bixstore query -analyze` prints the same
// PlanReport as JSON on stdout.
func TestQueryAnalyzeCLI(t *testing.T) {
	ixDir := buildTestIndex(t)
	var out bytes.Buffer
	if err := runQuery(&out, []string{"-dir", ixDir, "-q", "<= 17", "-analyze"}); err != nil {
		t.Fatal(err)
	}
	var rep engine.PlanReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad -analyze JSON: %v\n%s", err, out.String())
	}
	if !rep.ModelApplies || rep.ScansError != 0 || rep.MeasuredScans <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Rows <= 0 {
		t.Errorf("rows = %d, want > 0", rep.Rows)
	}
}
