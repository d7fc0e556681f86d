package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"bitmapindex"
	"bitmapindex/internal/telemetry"
)

// servedFamilies is every metric family /metrics exports: the paper's two
// query costs (scans, boolean operations), query count and latency. A
// family joins this list only with a reader.
var servedFamilies = []string{
	"bix_ops_total",
	"bix_queries_total",
	"bix_query_latency_seconds",
	"bix_scans_total",
}

// TestServeMetricsFamilies pins the exported family set: after one query
// on a served index with a bitmap pool and one on a served table, both
// the Prometheus text and the JSON snapshot list exactly servedFamilies.
func TestServeMetricsFamilies(t *testing.T) {
	st, err := bitmapindex.OpenIndex(buildTestIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := newQueryServer(st, 4, 0, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := newTableServer(buildTestTable(t), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, query string
		mux         func() *http.ServeMux
	}{
		{"index", "/query?q=%3C%3D+17", qs.mux},
		{"table", "/query?q=quantity+%3C%3D+10+AND+price+%3E+500", ts.mux},
	} {
		mux := c.mux()
		if code, body := serveGet(t, mux, c.query); code != 200 {
			t.Fatalf("%s %s = %d: %s", c.name, c.query, code, body)
		}

		code, body := serveGet(t, mux, "/metrics")
		if code != 200 {
			t.Fatalf("%s /metrics = %d", c.name, code)
		}
		var text []string
		for _, line := range strings.Split(body, "\n") {
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				text = append(text, strings.Fields(name)[0])
			}
		}
		sort.Strings(text)
		if !reflect.DeepEqual(text, servedFamilies) {
			t.Errorf("%s /metrics families = %v, want %v", c.name, text, servedFamilies)
		}

		code, body = serveGet(t, mux, "/metrics?format=json")
		if code != 200 {
			t.Fatalf("%s /metrics?format=json = %d", c.name, code)
		}
		var snap telemetry.Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("%s: bad /metrics JSON: %v", c.name, err)
		}
		seen := map[string]bool{}
		for id := range snap.Counters {
			seen[familyOf(id)] = true
		}
		for id := range snap.Histograms {
			seen[familyOf(id)] = true
		}
		var families []string
		for f := range seen {
			families = append(families, f)
		}
		sort.Strings(families)
		if !reflect.DeepEqual(families, servedFamilies) {
			t.Errorf("%s /metrics?format=json families = %v, want %v", c.name, families, servedFamilies)
		}
	}
}

// familyOf strips the rendered labels from a metric id.
func familyOf(id string) string {
	name, _, _ := strings.Cut(id, "{")
	return name
}

// TestServeExemplarResolves: after one served query in each mode, the
// OpenMetrics latency bucket that holds the query's elapsed time carries
// the response's trace ID as its exemplar, and /debug/queries holds that
// trace's record with a total inside the bucket.
func TestServeExemplarResolves(t *testing.T) {
	qs := newTestServer(t, buildTestIndex(t))
	ts, err := newTableServer(buildTestTable(t), "")
	if err != nil {
		t.Fatal(err)
	}
	bucketRE := regexp.MustCompile(`^bix_query_latency_seconds_bucket\{le="([^"]+)"\} \d+(?: # \{trace_id="([^"]*)"\} .*)?$`)
	for _, c := range []struct {
		name, query string
		mux         *http.ServeMux
	}{
		{"index", "/query?q=%3C%3D+17", qs.mux()},
		{"table", "/query?q=quantity+%3C%3D+10+AND+price+%3E+500", ts.mux()},
	} {
		code, body := serveGet(t, c.mux, c.query)
		if code != 200 {
			t.Fatalf("%s %s = %d: %s", c.name, c.query, code, body)
		}
		var resp struct {
			TraceID   string `json:"trace_id"`
			ElapsedNS int64  `json:"elapsed_ns"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		secs := time.Duration(resp.ElapsedNS).Seconds()

		_, om := serveGet(t, c.mux, "/metrics?format=openmetrics")
		lo, hi, exemplar := 0.0, math.Inf(1), ""
		found := false
		for _, line := range strings.Split(om, "\n") {
			m := bucketRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			le, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatalf("bad le in %q", line)
			}
			if secs <= le {
				hi, exemplar, found = le, m[2], true
				break
			}
			lo = le
		}
		if !found || exemplar != resp.TraceID {
			t.Fatalf("%s: bucket (%g, %g] holding %gs has exemplar %q, want %q",
				c.name, lo, hi, secs, exemplar, resp.TraceID)
		}

		_, dq := serveGet(t, c.mux, "/debug/queries")
		var queries debugQueriesResponse
		if err := json.Unmarshal([]byte(dq), &queries); err != nil {
			t.Fatal(err)
		}
		resolved := false
		for _, rc := range queries.Records {
			if rc.TraceID != exemplar {
				continue
			}
			resolved = true
			if ns := rc.Total.Seconds(); ns <= lo || ns > hi {
				t.Errorf("%s: record total %gs outside its exemplar bucket (%g, %g]", c.name, ns, lo, hi)
			}
		}
		if !resolved {
			t.Errorf("%s: exemplar %q resolves to no /debug/queries record", c.name, exemplar)
		}
	}
}
