package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bitmapindex/internal/analysis"
)

func TestListPrintsEverySuiteAnalyzer(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(options{list: true}, nil, &out, &errw); code != 0 {
		t.Fatalf("-list exited %d, want 0 (stderr: %s)", code, errw.String())
	}
	for _, a := range analysis.All {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
	if got := strings.Count(out.String(), "\n"); got != len(analysis.All) {
		t.Errorf("-list printed %d lines, want %d", got, len(analysis.All))
	}
}

func TestUnknownFormatIsUsageError(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(options{format: "yaml"}, nil, &out, &errw); code != 2 {
		t.Fatalf("unknown format exited %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "unknown -format") {
		t.Errorf("stderr %q should mention the unknown format", errw.String())
	}
}

func TestUnknownAnalyzerNameIsUsageError(t *testing.T) {
	for _, opts := range []options{
		{format: "text", only: "hotalloc,nosuchanalyzer"},
		{format: "text", skip: "nosuchanalyzer"},
	} {
		var out, errw bytes.Buffer
		if code := run(opts, nil, &out, &errw); code != 2 {
			t.Fatalf("options %+v exited %d, want 2", opts, code)
		}
		if !strings.Contains(errw.String(), "unknown analyzer") {
			t.Errorf("stderr %q should name the unknown analyzer", errw.String())
		}
	}
}

func TestOnlyRestrictsSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a real package; skipped in -short")
	}
	// SARIF declares one rule per selected analyzer, so the rule list is a
	// direct observation of what -only selected.
	var out, errw bytes.Buffer
	code := run(options{format: "sarif", only: "tailmask,errcheck-io"},
		[]string{"../../internal/bitvec"}, &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d, want 0 (stderr: %s)", code, errw.String())
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	var ids []string
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		ids = append(ids, r.ID)
	}
	if len(ids) != 2 || ids[0] != "tailmask" || ids[1] != "errcheck-io" {
		t.Errorf("SARIF rules = %v, want [tailmask errcheck-io]", ids)
	}
}

func TestSARIFOnCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a real package; skipped in -short")
	}
	var out, errw bytes.Buffer
	code := run(options{format: "sarif"}, []string{"../../internal/bitvec"}, &out, &errw)
	if code != 0 {
		t.Fatalf("sarif run exited %d, want 0 (stderr: %s)", code, errw.String())
	}
	var log map[string]any
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if v, _ := log["version"].(string); v != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", v)
	}
}
