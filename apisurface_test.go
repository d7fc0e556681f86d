package bitmapindex

// Guards the public API surface: every exported identifier of the root
// package must be documented and must appear in the pinned list below, so
// accidental additions or removals fail loudly in review.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"

	"bitmapindex/internal/experiments"
)

var wantAPI = []string{
	"AllocateBudget", "Allocation", "Base", "BatchQuery", "BestBaseUnderSpace",
	"BestBaseUnderSpaceExact", "BestDesignUnderSpace", "Bitmap", "BitmapLevel", "BufferAssignment",
	"BufferedTimeOptimalBase", "Builder", "CachedStore", "ComponentLevel",
	"Describe", "Encoding", "Eq", "EqualityEncoded", "EvalOptions",
	"ExpectedScans", "ExpectedScansBuffered", "ExpectedScansExact",
	"Ge", "GreedyAllocateBudget", "Gt", "Index", "IndexLevel",
	"IntervalEncoded", "KneeBase", "Le", "Lt", "MaxComponents",
	"MutableIndex", "Ne", "New", "NewCachedStore", "NewMutable",
	"NewMutableFrom", "NewStreamingBuilder", "NumBitmaps", "Op",
	"OpenIndex", "OptimalBuffer", "Option", "ParseBase", "ParseEncoding",
	"ParseOp", "ParseStoreScheme", "RangeEncoded", "SaveIndex",
	"SpaceOptimalBase", "Stats", "Store", "StoreMetrics", "StoreOptions",
	"StoreScheme", "TimeOptimalBase", "WithBase", "WithComponents",
	"WithEncoding", "WithKneeBase", "WithNulls", "WithSpaceBudget",
	"WithSpaceOptimalBase", "WithTimeOptimalBase",
	// Observability surface (PR 1).
	"BufferHitStats", "MetricsHandler", "NewQueryTrace",
	"QueryPhase", "QueryTrace", "Telemetry",
	"TelemetryRegistry", "TelemetrySnapshot", "WriteMetrics",
	// Segmented evaluation surface (PR 4).
	"SegConfig", "DefaultSegBits",
	// Compression backend surface (PR 9).
	"StoreCodec", "ParseStoreCodec", "CodecRaw", "CodecZlib", "CodecRoaring",
	// Workload accounting and design advisor surface (PR 10).
	"AttrDemand", "AllocateBudgetWeighted", "WorkloadAccumulator",
	"WorkloadAttrInfo", "WorkloadEvent", "WorkloadProfile", "AttrDesign",
	"AdvisorReport", "NewWorkloadAccumulator", "NewAttrDesign", "Advise",
	"WorkloadOpClass", "WorkloadEq", "WorkloadRange", "WorkloadInterval",
}

// exportedDecls parses the non-test files of the root package and returns
// exported top-level identifiers along with whether each is documented.
func exportedDecls(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						out[d.Name.Name] = d.Doc.Text() != ""
					}
				case *ast.GenDecl:
					groupDoc := d.Doc.Text() != ""
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								out[s.Name.Name] = groupDoc || s.Doc.Text() != "" || s.Comment.Text() != ""
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									out[n.Name] = groupDoc || s.Doc.Text() != "" || s.Comment.Text() != ""
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

func TestPublicAPISurface(t *testing.T) {
	got := exportedDecls(t)
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	want := append([]string(nil), wantAPI...)
	sort.Strings(want)
	for _, n := range names {
		found := false
		for _, w := range want {
			if w == n {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("exported %q is not in the pinned API surface; update wantAPI deliberately", n)
		}
	}
	for _, w := range want {
		if _, ok := got[w]; !ok {
			t.Errorf("pinned API %q is gone", w)
		}
	}
}

func TestPublicAPIDocumented(t *testing.T) {
	for name, documented := range exportedDecls(t) {
		if !documented {
			t.Errorf("exported %q has no doc comment", name)
		}
	}
}

// TestEveryExperimentHasBenchmark keeps bench_test.go in lockstep with the
// experiment registry (and DESIGN.md's per-experiment index).
func TestEveryExperimentHasBenchmark(t *testing.T) {
	src, err := os.ReadFile("bench_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments.All() {
		marker := `benchExperiment(b, "` + e.ID + `")`
		if !strings.Contains(string(src), marker) {
			t.Errorf("experiment %q has no benchmark in bench_test.go", e.ID)
		}
	}
}
