package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func exportFixture() *Registry {
	r := New()
	r.Counter("scans_total", "Bitmaps read.").Add(7)
	r.Counter("ops_total", "Ops by kind.", Label{"kind", "and"}).Add(3)
	r.Counter("ops_total", "Ops by kind.", Label{"kind", "or"}).Add(2)
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	return r
}

func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := exportFixture().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP scans_total Bitmaps read.",
		"# TYPE scans_total counter",
		"scans_total 7",
		`ops_total{kind="and"} 3`,
		`ops_total{kind="or"} 2`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.055",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Grouped headers: one # TYPE per metric name, not per series.
	if strings.Count(out, "# TYPE ops_total") != 1 {
		t.Errorf("ops_total must have exactly one TYPE header:\n%s", out)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := exportFixture().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if s.Counters["scans_total"] != 7 {
		t.Fatalf("scans_total = %d, want 7", s.Counters["scans_total"])
	}
	if s.Counters[`ops_total{kind="and"}`] != 3 {
		t.Fatalf("labeled counter missing: %v", s.Counters)
	}
	h := s.Histograms["lat_seconds"]
	if h.Count != 3 || len(h.Buckets) != 2 || h.Buckets[1].Cumulative != 2 {
		t.Fatalf("histogram snapshot = %+v", h)
	}
	if h.P99 != 0.1 {
		t.Fatalf("p99 = %v, want clamp to 0.1", h.P99)
	}
}

// TestWriteOpenMetrics checks the OpenMetrics exposition: counter families
// drop the _total suffix in their headers, histogram buckets carry
// exemplars when one was recorded, and the output ends with # EOF.
func TestWriteOpenMetrics(t *testing.T) {
	r := exportFixture()
	r.Histogram("lat_seconds", "Latency.", []float64{0.01, 0.1}).
		ObserveExemplar(0.05, "q#42")

	var sb strings.Builder
	if err := r.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP scans Bitmaps read.",
		"# TYPE scans counter",
		"scans_total 7", // sample keeps the suffix
		"# TYPE ops counter",
		`ops_total{kind="and"} 3`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1` + "\n", // no exemplar recorded here
		`lat_seconds_bucket{le="+Inf"} 4` + "\n",
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("openmetrics output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("output does not end with # EOF:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds_bucket{le="0.1"} 3 # {trace_id="q#42"} 0.05 `) {
		t.Errorf("bucket exemplar missing or malformed:\n%s", out)
	}
	if strings.Count(out, "# {") != 1 {
		t.Errorf("expected exactly one exemplar:\n%s", out)
	}
}

// TestHandlerOpenMetricsNegotiation checks the gate: plain scrapes keep the
// 0.0.4 text format (no exemplars, no EOF trailer), while an OpenMetrics
// Accept header or an explicit format=openmetrics switches expositions.
func TestHandlerOpenMetricsNegotiation(t *testing.T) {
	r := exportFixture()
	r.Histogram("lat_seconds", "Latency.", []float64{0.01, 0.1}).
		ObserveExemplar(0.05, "q#42")
	h := Handler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); strings.Contains(body, "# {") || strings.Contains(body, "# EOF") {
		t.Fatalf("plain scrape leaked OpenMetrics syntax:\n%s", body)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept",
		"application/openmetrics-text; version=1.0.0; charset=utf-8,text/plain;q=0.5")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type %q", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, `trace_id="q#42"`) ||
		!strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("negotiated scrape missing exemplar or EOF:\n%s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=openmetrics", nil))
	if !strings.HasSuffix(rec.Body.String(), "# EOF\n") {
		t.Fatalf("format=openmetrics override ignored:\n%s", rec.Body.String())
	}
}

func TestHTTPHandler(t *testing.T) {
	h := Handler(exportFixture())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "scans_total 7") {
		t.Fatalf("text endpoint: code %d body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("json endpoint: %v", err)
	}
	if s.Counters["scans_total"] != 7 {
		t.Fatalf("json endpoint counters = %v", s.Counters)
	}
}
