package analysis

import (
	"go/types"
	"sort"
	"time"
)

// The runner's phase split. prepare builds, once and in a fixed order,
// every lazily built module-wide index that a selected analyzer touches:
// the declaration map, the call graph and its summaries, hotalloc's
// findings, the lockorder acquisition graph and
// tailmask's slice-parameter summaries. The passes then only read Batch
// state. The order matters for tailmask: summaries of recursive cycles are
// a fixpoint from below, so their results depend on which function is
// summarized first, and prepare fixes that order to declaration order
// rather than the order tailmask's passes ask in.

// Timing is one analyzer's accumulated wall time across the run, plus the
// synthetic "(prepare)" entry for the index-building phase.
type Timing struct {
	Name  string
	Total time.Duration
}

// Timings returns per-analyzer accumulated wall time, largest first.
// Package loading and type-checking happen before the Batch exists and
// are not included.
func (b *Batch) Timings() []Timing {
	out := make([]Timing, 0, len(b.timings))
	for name, d := range b.timings {
		out = append(out, Timing{Name: name, Total: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (b *Batch) noteTiming(name string, d time.Duration) {
	if b.timings == nil {
		b.timings = make(map[string]time.Duration)
	}
	b.timings[name] += d
}

// prepare forces every shared index the selected analyzers will read, so
// the passes never write Batch state.
func (b *Batch) prepare(analyzers []*Analyzer) {
	if b.prepared {
		return
	}
	start := time.Now()
	sel := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		sel[a.Name] = true
	}
	b.funcDecl(nil) // the declaration map underlies everything below
	if sel["hotalloc"] || sel["lockorder"] || sel["poolhygiene"] {
		batchGraph(b)
	}
	if sel["hotalloc"] {
		batchHotFindings(b)
	}
	if sel["lockorder"] {
		batchLockGraph(b)
	}
	if sel["tailmask"] {
		// Precompute slice-parameter summaries for every module function;
		// after prepare the memo is read-only and non-module callees
		// resolve to a shared empty summary.
		for _, pkg := range b.Pkgs {
			for _, decl := range funcDecls(pkg) {
				if fn, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
					sliceParamInfo(b, fn)
				}
			}
		}
	}
	b.prepared = true
	b.noteTiming("(prepare)", time.Since(start))
}
