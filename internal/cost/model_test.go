package cost

import (
	"testing"

	"bitmapindex/internal/core"
)

// TestScansForExact proves the per-query prediction exact against the
// evaluators' own counts for every operator and constant, across
// all three encodings and several decompositions — the property
// engine.ExplainAnalyze's scans_error=0 guarantee rests on.
func TestScansForExact(t *testing.T) {
	rows := []uint64{0, 3, 7, 11, 11, 2, 9, 4, 0, 6}
	const card = 12
	for _, base := range []core.Base{{12}, {4, 3}, {3, 2, 2}} {
		for _, enc := range []core.Encoding{
			core.RangeEncoded, core.EqualityEncoded, core.IntervalEncoded,
		} {
			ix, err := core.Build(rows, card, base, enc, nil)
			if err != nil {
				t.Fatalf("build %v/%v: %v", base, enc, err)
			}
			for _, op := range core.AllOps {
				for v := uint64(0); v < card+2; v++ { // incl. out-of-domain constants
					var st core.Stats
					ix.Eval(op, v, &core.EvalOptions{Stats: &st})
					if got := ScansFor(base, enc, card, op, v); got != st.Scans {
						t.Errorf("%v/%v A %v %d: predicted %d scans, measured %d",
							base, enc, op, v, got, st.Scans)
					}
				}
			}
		}
	}
}

// TestScansForProbeCacheReuse checks repeated interval predictions reuse
// one probe index (the cache key covers base, encoding and cardinality).
func TestScansForProbeCacheReuse(t *testing.T) {
	base := core.Base{5, 2}
	ScansFor(base, core.IntervalEncoded, 10, core.Le, 3)
	probeCache.Lock()
	before := len(probeCache.m)
	probeCache.Unlock()
	for v := uint64(0); v < 10; v++ {
		ScansFor(base, core.IntervalEncoded, 10, core.Ge, v)
	}
	probeCache.Lock()
	after := len(probeCache.m)
	probeCache.Unlock()
	if after != before {
		t.Fatalf("probe cache grew from %d to %d for one shape", before, after)
	}
}
