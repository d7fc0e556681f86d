package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeCompressionReport runs the compression suite at smoke size.
func writeCompressionReport(t *testing.T, dir string) benchReport {
	t.Helper()
	path := filepath.Join(dir, "compression.json")
	o := options{Suite: "compression", Rows: 1 << 16, Seed: 1, JSON: path, Out: filepath.Join(dir, "compression.txt")}
	if err := realMain(o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("compression report is not valid JSON: %v\n%s", err, raw)
	}
	return rep
}

// TestCompressionSuiteShape checks both workloads are present with the
// full codec x sorting metric grid, kind-tagged for the compare pipeline.
func TestCompressionSuiteShape(t *testing.T) {
	rep := writeCompressionReport(t, t.TempDir())
	vals := suiteValues(rep)
	for _, suite := range []string{"compression_uniform", "compression_clustered"} {
		for _, prefix := range []string{"dense", "roaring", "dense_sorted", "roaring_sorted"} {
			if _, ok := vals[svKey{suite, prefix + "_value_bytes", "count"}]; !ok {
				t.Errorf("%s: missing %s_value_bytes count metric", suite, prefix)
			}
			if _, ok := vals[svKey{suite, prefix + "_scans_per_query", "count"}]; !ok {
				t.Errorf("%s: missing %s_scans_per_query count metric", suite, prefix)
			}
			if _, ok := vals[svKey{suite, prefix + "_ns_per_query", "time"}]; !ok {
				t.Errorf("%s: missing %s_ns_per_query time metric", suite, prefix)
			}
		}
	}
}

// TestCompressionSpaceDominance pins the deterministic half of the §9
// acceptance claim: on the clustered workload roaring is strictly
// smaller than dense both unsorted and sorted, sorting never hurts
// roaring, and scan counts are invariant across codecs.
func TestCompressionSpaceDominance(t *testing.T) {
	rep := writeCompressionReport(t, t.TempDir())
	vals := suiteValues(rep)
	get := func(suite, metric string) float64 {
		v, ok := vals[svKey{suite, metric, "count"}]
		if !ok {
			t.Fatalf("%s/%s missing", suite, metric)
		}
		return v
	}
	const cl = "compression_clustered"
	if r, d := get(cl, "roaring_value_bytes"), get(cl, "dense_value_bytes"); r >= d {
		t.Errorf("clustered: roaring %v bytes >= dense %v", r, d)
	}
	if r, d := get(cl, "roaring_sorted_value_bytes"), get(cl, "dense_sorted_value_bytes"); r >= d {
		t.Errorf("clustered sorted: roaring %v bytes >= dense %v", r, d)
	}
	for _, suite := range []string{"compression_uniform", cl} {
		if s, u := get(suite, "roaring_sorted_value_bytes"), get(suite, "roaring_value_bytes"); s > u {
			t.Errorf("%s: sorted roaring %v bytes > unsorted %v", suite, s, u)
		}
		base := get(suite, "dense_scans_per_query")
		for _, prefix := range []string{"roaring", "dense_sorted", "roaring_sorted"} {
			if got := get(suite, prefix+"_scans_per_query"); got != base {
				t.Errorf("%s: %s scans/query %v != dense %v", suite, prefix, got, base)
			}
		}
	}
}
