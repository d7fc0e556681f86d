package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// badFixtureFindings runs a set of analyzers over fixtures that are
// guaranteed to report, giving the output tests real findings to format.
// The set spans several packages — including the cross-package
// hotpath_multi pair, whose findings depend on the interprocedural call
// graph — so the byte-stability test below covers multi-package ordering,
// not just the single-package sort.
func badFixtureFindings(t *testing.T) []Finding {
	t.Helper()
	pkgs := []*Package{
		loadFixture(t, "unlockpath_bad"),
		loadFixture(t, "lockorder_bad"),
		loadFixture(t, "gocapture_bad"),
		loadFixture(t, "hotpath_multi/helper"),
		loadFixture(t, "hotpath_multi"),
	}
	findings := Run(pkgs, []*Analyzer{UnlockPath, LockOrder, LockHeld, HotAlloc})
	if len(findings) == 0 {
		t.Fatal("bad fixtures produced no findings")
	}
	analyzers := make(map[string]bool)
	files := make(map[string]bool)
	for _, f := range findings {
		analyzers[f.Analyzer] = true
		files[f.Pos.Filename] = true
	}
	if len(analyzers) < 3 || len(files) < 3 {
		t.Fatalf("fixture set too narrow for ordering tests: %d analyzers, %d files", len(analyzers), len(files))
	}
	return findings
}

func renderText(findings []Finding) []byte {
	var buf bytes.Buffer
	for _, f := range findings {
		fmt.Fprintln(&buf, f)
	}
	return buf.Bytes()
}

// TestOutputByteStable: two independent full runs (fresh Batch, fresh
// passes) must produce byte-identical text output — the ordering
// contract CI diffs depend on.
func TestOutputByteStable(t *testing.T) {
	first := renderText(badFixtureFindings(t))
	second := renderText(badFixtureFindings(t))
	if !bytes.Equal(first, second) {
		t.Errorf("lint output is not byte-stable across runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	// Findings must arrive sorted by file, line, column, then analyzer —
	// the full cross-package ordering contract, not just file/line.
	findings := badFixtureFindings(t)
	key := func(f Finding) string {
		return fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer)
	}
	for i := 1; i < len(findings); i++ {
		if key(findings[i-1]) > key(findings[i]) {
			t.Errorf("findings out of (file, line, column, analyzer) order: %s before %s",
				findings[i-1], findings[i])
		}
	}
}

// TestTimingsCoverSuite: after a run, every selected analyzer (plus the
// prepare phase) has a wall-time entry — the -timings contract.
func TestTimingsCoverSuite(t *testing.T) {
	batch := NewBatch([]*Package{loadFixture(t, "unlockpath_bad")})
	RunBatch(batch, All)
	seen := make(map[string]bool)
	for _, tm := range batch.Timings() {
		seen[tm.Name] = true
	}
	if !seen["(prepare)"] {
		t.Error("no (prepare) timing recorded")
	}
	for _, a := range All {
		if !seen[a.Name] {
			t.Errorf("no timing recorded for %s", a.Name)
		}
	}
}

// TestSARIFRequiredFields validates the SARIF 2.1.0 subset that
// code-scanning consumers require, by decoding the generic JSON rather
// than our own structs.
func TestSARIFRequiredFields(t *testing.T) {
	findings := badFixtureFindings(t)
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, findings, All, ""); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if v, _ := log["version"].(string); v != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", v)
	}
	if s, _ := log["$schema"].(string); !strings.Contains(s, "sarif-2.1.0") {
		t.Errorf("$schema = %q, want a sarif-2.1.0 schema URI", s)
	}
	runs, _ := log["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("runs has %d entries, want 1", len(runs))
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if name, _ := driver["name"].(string); name != "bixlint" {
		t.Errorf("driver.name = %q, want bixlint", name)
	}
	rules, _ := driver["rules"].([]any)
	if len(rules) != len(All) {
		t.Errorf("driver declares %d rules, want %d (one per analyzer)", len(rules), len(All))
	}
	ruleIDs := make(map[string]bool)
	for _, r := range rules {
		rm := r.(map[string]any)
		id, _ := rm["id"].(string)
		if id == "" {
			t.Error("rule with empty id")
		}
		ruleIDs[id] = true
	}
	results, _ := run["results"].([]any)
	if len(results) != len(findings) {
		t.Fatalf("results has %d entries, want %d", len(results), len(findings))
	}
	for i, r := range results {
		rm := r.(map[string]any)
		id, _ := rm["ruleId"].(string)
		if !ruleIDs[id] {
			t.Errorf("result %d: ruleId %q not declared in driver.rules", i, id)
		}
		msg, _ := rm["message"].(map[string]any)
		if text, _ := msg["text"].(string); text == "" {
			t.Errorf("result %d: empty message.text", i)
		}
		locs, _ := rm["locations"].([]any)
		if len(locs) == 0 {
			t.Fatalf("result %d: no locations", i)
		}
		phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		art := phys["artifactLocation"].(map[string]any)
		if uri, _ := art["uri"].(string); uri == "" || strings.Contains(uri, "\\") {
			t.Errorf("result %d: bad artifactLocation.uri %q", i, art["uri"])
		}
		region := phys["region"].(map[string]any)
		if line, _ := region["startLine"].(float64); line < 1 {
			t.Errorf("result %d: startLine %v, want >= 1", i, region["startLine"])
		}
	}
}
