package telemetry

import "time"

// The well-known metric set fed by the evaluator: the paper's two query
// costs (scans and boolean operations), query counts and latency. With
// bix_engine_plans_total (internal/engine) these are every family a
// served index exports. Names, labels and bucket layouts are documented
// in DESIGN.md ("Observability"); changing anything here is a
// dashboard-breaking change.
var (
	// QueriesTotal counts evaluator invocations (one per Index.Eval;
	// EvalBetween counts as its two one-sided evaluations).
	QueriesTotal = Default().Counter("bix_queries_total",
		"Selection predicate evaluations.")
	// ScansTotal counts distinct stored bitmaps read, the paper's I/O cost
	// measure. Buffered and pool-resident bitmaps are excluded, matching
	// core.Stats.Scans.
	ScansTotal = Default().Counter("bix_scans_total",
		"Distinct stored bitmaps read (paper I/O cost measure).")

	// Boolean operation counts by kind, the paper's CPU cost measure.
	AndsTotal = Default().Counter("bix_ops_total",
		"Bitmap boolean operations executed, by kind.", Label{"kind", "and"})
	OrsTotal = Default().Counter("bix_ops_total",
		"Bitmap boolean operations executed, by kind.", Label{"kind", "or"})
	XorsTotal = Default().Counter("bix_ops_total",
		"Bitmap boolean operations executed, by kind.", Label{"kind", "xor"})
	NotsTotal = Default().Counter("bix_ops_total",
		"Bitmap boolean operations executed, by kind.", Label{"kind", "not"})

	// QueryLatency observes wall-clock seconds per evaluator invocation.
	QueryLatency = Default().Histogram("bix_query_latency_seconds",
		"Evaluator wall-clock latency in seconds.", LatencyBuckets)
)

// LatencyBuckets is the upper-bound layout of bix_query_latency_seconds:
// 10µs to 1s, roughly quarter-decade steps.
var LatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// RecordEval publishes one evaluator invocation to the default registry:
// the per-query scan and operation deltas plus the wall-clock latency.
// When tr is a live trace, its ID is recorded as the latency bucket's
// exemplar, so the JSON export links each bucket to a recent real query.
func RecordEval(scans, ands, ors, xors, nots int, elapsed time.Duration, tr *Trace) {
	QueriesTotal.Inc()
	ScansTotal.Add(int64(scans))
	AndsTotal.Add(int64(ands))
	OrsTotal.Add(int64(ors))
	XorsTotal.Add(int64(xors))
	NotsTotal.Add(int64(nots))
	QueryLatency.ObserveExemplar(elapsed.Seconds(), tr.ID())
}
