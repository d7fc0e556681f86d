package main

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bitmapindex"
	"bitmapindex/internal/telemetry"
)

// servedFamilies is every metric family /metrics exports: the paper's two
// query costs (scans, boolean operations), query count and latency, and
// the plan Auto chose. A family joins this list only with a reader.
var servedFamilies = []string{
	"bix_engine_plans_total",
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
		for _, ids := range []map[string]int64{snap.Counters, snap.Gauges} {
			for id := range ids {
				seen[familyOf(id)] = true
			}
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
