package profile

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestDoLabelsVisible checks the labels Do installs are observable on the
// live goroutine set (via the runtime's own goroutine profile) while fn
// runs, and gone afterwards.
func TestDoLabelsVisible(t *testing.T) {
	var during []QueryLabel
	Do("q-test#42", "eval", func() {
		during = ActiveQueryLabels()
	})
	found := false
	for _, ql := range during {
		if ql.QueryID == "q-test#42" && ql.Phase == "eval" {
			found = true
		}
	}
	if !found {
		t.Fatalf("labels not visible during Do: %+v", during)
	}
	for _, ql := range ActiveQueryLabels() {
		if ql.QueryID == "q-test#42" {
			t.Fatalf("labels leaked after Do returned: %+v", ql)
		}
	}
}

func TestDoEmptyIDRunsUnlabeled(t *testing.T) {
	ran := false
	Do("", "eval", func() {
		ran = true
		for _, ql := range ActiveQueryLabels() {
			if ql.Phase == "eval" && ql.QueryID == "" {
				t.Errorf("empty query ID produced a label: %+v", ql)
			}
		}
	})
	if !ran {
		t.Fatal("fn did not run")
	}
}

func TestRuntimeStatusHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/runtime", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var st RuntimeStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if st.GoVersion == "" || st.GOMAXPROCS < 1 || st.Goroutines < 1 || st.HeapBytes == 0 {
		t.Errorf("implausible status: %+v", st)
	}
	if st.ActiveQueries == nil {
		t.Error("active_queries must encode as [], not null")
	}
}

func TestCPUAndHeapProfileCapture(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to hold.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile missing or empty: %v", err)
	}

	heap := filepath.Join(dir, "heap.out")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile missing or empty: %v", err)
	}
}

func TestKindForPath(t *testing.T) {
	cases := map[string]ProfileKind{
		"cpu.out":        CPUProfile,
		"/tmp/cpu.pprof": CPUProfile,
		"heap.out":       HeapProfile,
		"x/HEAP.pb.gz":   HeapProfile,
		"mem.out":        HeapProfile,
		"profile.out":    CPUProfile,
	}
	for path, want := range cases {
		if got := KindForPath(path); got != want {
			t.Errorf("KindForPath(%q) = %v, want %v", path, got, want)
		}
	}
}
