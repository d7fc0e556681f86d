package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// reportWith builds a minimal v2 report from (suite, metric, value)
// triples, preserving insertion order.
func reportWith(rows ...[3]string) benchReport {
	rep := benchReport{Schema: "bixbench/v2", SchemaVersion: benchSchemaVersion}
	idx := map[string]int{}
	for _, r := range rows {
		suite, metric := r[0], r[1]
		i, ok := idx[suite]
		if !ok {
			i = len(rep.Suites)
			idx[suite] = i
			rep.Suites = append(rep.Suites, suiteResult{Name: suite})
		}
		rep.Suites[i].Metrics = append(rep.Suites[i].Metrics, suiteMetric{
			Name: metric, Kind: "count", Better: "lower", Value: 1,
		})
	}
	return rep
}

func writeReport(t *testing.T, dir, name string, rep benchReport) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := writeJSONReport(p, rep); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompareAddedSuiteIsInformational covers the new-suite direction: a
// report that additionally ran the compression suite compares clean
// against a core-only baseline, with the extra metrics flagged "new".
func TestCompareAddedSuiteIsInformational(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", reportWith(
		[3]string{"core", "scans", ""},
	))
	newP := writeReport(t, dir, "new.json", reportWith(
		[3]string{"core", "scans", ""},
		[3]string{"compression", "dense_value_bytes", ""},
	))
	var out bytes.Buffer
	if err := runCompare(oldP, newP, &out); err != nil {
		t.Fatalf("added suite failed the comparison: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "new") {
		t.Errorf("added metric not reported as new:\n%s", out.String())
	}
}

// TestCompareNotRunSuiteIsInformational covers the old-baseline
// direction the satellite names: a baseline carrying core+compression
// compared against a run of only one suite must not fail on the suite
// that was not run.
func TestCompareNotRunSuiteIsInformational(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", reportWith(
		[3]string{"core", "scans", ""},
		[3]string{"compression", "dense_value_bytes", ""},
		[3]string{"compression", "roaring_value_bytes", ""},
	))
	newP := writeReport(t, dir, "new.json", reportWith(
		[3]string{"core", "scans", ""},
	))
	var out bytes.Buffer
	if err := runCompare(oldP, newP, &out); err != nil {
		t.Fatalf("not-run suite failed the comparison: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "not run") {
		t.Errorf("skipped suite not reported as not run:\n%s", out.String())
	}
}

// TestCompareRemovedMetricStillFails pins that within a suite both
// reports ran, a removed metric (coverage loss) remains a hard failure.
func TestCompareRemovedMetricStillFails(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", reportWith(
		[3]string{"compression", "dense_value_bytes", ""},
		[3]string{"compression", "roaring_value_bytes", ""},
	))
	newP := writeReport(t, dir, "new.json", reportWith(
		[3]string{"compression", "dense_value_bytes", ""},
	))
	var out bytes.Buffer
	if err := runCompare(oldP, newP, &out); err == nil {
		t.Fatalf("removed metric not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "missing") {
		t.Errorf("removed metric not reported as missing:\n%s", out.String())
	}
}

// TestCompareRenamedMetricFails: a rename is a removal plus an addition
// within a suite both reports ran — the removal half must fail.
func TestCompareRenamedMetricFails(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", reportWith(
		[3]string{"compression", "value_bytes", ""},
	))
	newP := writeReport(t, dir, "new.json", reportWith(
		[3]string{"compression", "value_bytes_total", ""},
	))
	var out bytes.Buffer
	err := runCompare(oldP, newP, &out)
	if err == nil {
		t.Fatalf("renamed metric not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "missing") || !strings.Contains(out.String(), "new") {
		t.Errorf("rename should surface as one missing + one new row:\n%s", out.String())
	}
}
