package cost

import (
	"fmt"
	"sync"

	"bitmapindex/internal/core"
)

// ScansFor predicts the number of stored-bitmap scans the evaluator
// performs for the single predicate (A op v) on an index with the given
// base, encoding and cardinality. For range and equality encodings it uses
// the paper's digit-level models (which the test suite proves exact
// against the instrumented evaluators); for any other encoding it measures
// the evaluator itself on a cached one-row index — exact too, because scan
// counts depend only on the predicate shape, never on the data.
//
// This is the per-query prediction behind engine.ExplainAnalyze; the
// workload-average counterparts are TimeRange / TimeEquality / ExactTime.
func ScansFor(base core.Base, enc core.Encoding, card uint64, op core.Op, v uint64) int {
	if v >= card {
		// Out-of-domain constants short-circuit in the evaluator (the
		// answer is all non-null rows or none) without reading any value
		// bitmap.
		return 0
	}
	switch enc {
	case core.RangeEncoded:
		return ScansRange(base, card, op, v)
	case core.EqualityEncoded:
		return ScansEquality(base, card, op, v)
	default:
		return scansMeasured(base, enc, card, op, v)
	}
}

// probeCache holds the one-row probe indexes scansMeasured instruments,
// keyed by base/encoding/cardinality. Probe indexes are tiny (one row),
// and an ExplainAnalyze workload reuses a handful of shapes, so the cache
// is unbounded.
var probeCache struct {
	sync.Mutex
	m map[string]*core.Index
}

func scansMeasured(base core.Base, enc core.Encoding, card uint64, op core.Op, v uint64) int {
	key := fmt.Sprintf("%s/%s/%d", base.String(), enc.String(), card)
	probeCache.Lock()
	ix, ok := probeCache.m[key]
	if !ok {
		var err error
		ix, err = core.Build([]uint64{0}, card, base, enc, nil)
		if err != nil {
			probeCache.Unlock()
			panic("cost: " + err.Error())
		}
		if probeCache.m == nil {
			probeCache.m = make(map[string]*core.Index)
		}
		probeCache.m[key] = ix
	}
	probeCache.Unlock()

	// The probe evaluation must not pollute the process-wide telemetry or
	// flight recorder: EvalDirect is Eval without the instrumentation.
	var st core.Stats
	ix.EvalDirect(op, v, &core.EvalOptions{Stats: &st})
	return st.Scans
}
