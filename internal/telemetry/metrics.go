package telemetry

// The well-known metric set: the paper's two query costs (scans and
// boolean operations), query counts and latency, every family a served
// index or table exports. bixstore's finishQuery is their one writer,
// once per query it accounts. Names, labels and bucket layouts are
// documented in DESIGN.md ("Observability"); changing anything here is a
// dashboard-breaking change.
var (
	// QueriesTotal counts served queries: one per /query (or bixstore
	// query), whether it is one predicate or a table conjunction.
	QueriesTotal = Default().Counter("bix_queries_total",
		"Served queries.")
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

	// QueryLatency observes each served query's elapsed time in seconds:
	// the elapsed_ns its response reports.
	QueryLatency = Default().Histogram("bix_query_latency_seconds",
		"Served query latency in seconds.", LatencyBuckets)
)

// LatencyBuckets is the upper-bound layout of bix_query_latency_seconds:
// 10µs to 1s, roughly quarter-decade steps.
var LatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}
