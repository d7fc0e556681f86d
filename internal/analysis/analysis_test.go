package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture loader is shared across tests: the stdlib source importer
// re-type-checks os/io/etc. per loader, which is the expensive part.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// loadFixture loads testdata/src/<name> as its own package.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l := fixtureLoader(t)
	before := len(l.TypeErrors)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name), "bitmapindex/fixture/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(l.TypeErrors) > before {
		t.Fatalf("fixture %s has type errors: %v", name, l.TypeErrors[before:])
	}
	return pkg
}

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// wants maps file:line to the expected message substring.
func wants(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRE.FindStringSubmatch(sc.Text()); m != nil {
				abs, _ := filepath.Abs(path)
				out[posKey(abs, line)] = m[1]
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	return out
}

func posKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// checkFixture runs one analyzer over one fixture and matches findings
// against the fixture's // want comments, both directions.
func checkFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	checkFixtures(t, a, fixture)
}

// checkFixtures is checkFixture over several fixture directories loaded
// into one Batch — the multi-package harness for interprocedural
// analyzers. Directories load in argument order, so dependency packages
// must precede their importers (the loader memoizes by import path, which
// is how a root fixture's `bitmapindex/fixture/...` import resolves).
// Expected findings are the union of every directory's // want comments.
func checkFixtures(t *testing.T, a *Analyzer, fixtures ...string) {
	t.Helper()
	var pkgs []*Package
	expected := make(map[string]string)
	for _, fixture := range fixtures {
		pkgs = append(pkgs, loadFixture(t, fixture))
		for k, v := range wants(t, filepath.Join("testdata", "src", fixture)) {
			expected[k] = v
		}
	}
	findings := Run(pkgs, []*Analyzer{a})
	matched := make(map[string]bool)
	for _, f := range findings {
		file, err := filepath.Abs(f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		key := posKey(file, f.Pos.Line)
		want, ok := expected[key]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !strings.Contains(f.Message, want) {
			t.Errorf("finding at %s:%d: got %q, want substring %q",
				f.Pos.Filename, f.Pos.Line, f.Message, want)
		}
		matched[key] = true
	}
	for key, want := range expected {
		if !matched[key] {
			t.Errorf("missing finding at %s (want %q)", key, want)
		}
	}
}

func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixtures []string
	}{
		{TailMask, []string{"tailmask_bad", "tailmask_good", "tailmask_xbad", "tailmask_xgood"}},
		{HotAlloc, []string{"hotalloc_bad", "hotalloc_good"}},
		{ErrcheckIO, []string{"errcheckio_bad", "errcheckio_good"}},
		{LockHeld, []string{"lockheld_bad", "lockheld_good", "lockheld_flow",
			"gocapture_bad", "gocapture_good"}},
		{LockOrder, []string{"lockorder_bad", "lockorder_good"}},
		{UnlockPath, []string{"unlockpath_bad", "unlockpath_good"}},
		{PoolHygiene, []string{"poolhygiene_bad", "poolhygiene_good"}},
	}
	for _, c := range cases {
		for _, fixture := range c.fixtures {
			t.Run(c.analyzer.Name+"/"+fixture, func(t *testing.T) {
				checkFixture(t, c.analyzer, fixture)
			})
		}
	}
}

// TestSuiteMembership pins the analyzer suite: exactly these seven, in
// bixlint's run order, and a retired name is an unknown analyzer.
func TestSuiteMembership(t *testing.T) {
	want := []string{"tailmask", "hotalloc", "errcheck-io",
		"lockheld", "lockorder", "unlockpath", "poolhygiene"}
	var got []string
	for _, a := range All {
		got = append(got, a.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("All = %v, want %v", got, want)
	}
	for _, retired := range []string{"goroutinelife", "chanprotocol", "ctxflow", "closeown", "gocapture",
		"atomicfield", "telemetry-labels"} {
		if _, err := Select(retired, ""); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
			t.Errorf("Select(%q, \"\") error = %v, want unknown analyzer", retired, err)
		}
	}
}

// TestTransitiveHotpath exercises the multi-package call-graph walk: hot
// roots in hotpath_multi, allocations (and the //bix:allocok boundary) in
// its helper package, diagnostics landing in the helper with the full
// cross-package call chain — including an edge resolved through a bound
// function value.
func TestTransitiveHotpath(t *testing.T) {
	checkFixtures(t, HotAlloc, "hotpath_multi/helper", "hotpath_multi")
}

// TestModuleClean is `bixlint ./...` as a test: the whole module loads
// without type errors and every analyzer comes back clean. A regression
// anywhere in the tree fails here before it fails in CI's lint step.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l := fixtureLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(l.TypeErrors) > 0 {
		t.Fatalf("module has type errors: %v", l.TypeErrors)
	}
	if len(pkgs) < 15 {
		t.Fatalf("LoadAll found only %d packages; the walker is skipping too much", len(pkgs))
	}
	for _, f := range Run(pkgs, All) {
		t.Errorf("finding on clean tree: %s", f)
	}
}

func TestDirectiveParsing(t *testing.T) {
	pkg := loadFixture(t, "hotalloc_good")
	n := 0
	for _, fn := range funcDecls(pkg) {
		if hasDirective(fn.Doc, "hotpath") {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("hotalloc_good should have 4 //bix:hotpath functions, found %d", n)
	}
	// A directive with a reason suffix still counts; a prefix collision
	// ("hotpathx") must not.
	for _, fn := range funcDecls(pkg) {
		if hasDirective(fn.Doc, "hotpat") {
			t.Fatalf("%s: directive prefix %q must not match //bix:hotpath", fn.Name.Name, "hotpat")
		}
	}
}
