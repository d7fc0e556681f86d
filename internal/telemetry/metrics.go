package telemetry

import "time"

// The well-known metric set fed by the index layers. Names, labels and
// bucket layouts are documented in DESIGN.md ("Observability"); changing
// anything here is a dashboard-breaking change.
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
	// QueryScans observes bitmaps scanned per query (the per-query
	// distribution behind ScansTotal).
	QueryScans = Default().Histogram("bix_query_scans",
		"Bitmaps scanned per query.", ScanBuckets)

	// Storage-layer physical costs, fed by Store.readFile / extract.
	StorageQueriesTotal = Default().Counter("bix_storage_queries_total",
		"Queries evaluated against on-disk stores.")
	StorageFilesReadTotal = Default().Counter("bix_storage_files_read_total",
		"Stored files read.")
	StorageBytesReadTotal = Default().Counter("bix_storage_bytes_read_total",
		"On-disk bytes read (compressed size when compressed).")
	StorageReadNSTotal = Default().Counter("bix_storage_read_ns_total",
		"Nanoseconds spent reading stored files.")
	StorageDecompressNSTotal = Default().Counter("bix_storage_decompress_ns_total",
		"Nanoseconds spent inflating compressed files.")
	StorageExtractNSTotal = Default().Counter("bix_storage_extract_ns_total",
		"Nanoseconds spent extracting columns from row-major files.")

	// Served static bitmap pool (storage.CachedStore).
	CacheHitsTotal = Default().Counter("bix_cache_hits_total",
		"Bitmap reads served from the pinned bitmap pool.")
	CacheMissesTotal = Default().Counter("bix_cache_misses_total",
		"Bitmap reads that missed the pinned bitmap pool.")
	CacheResident = Default().Gauge("bix_cache_resident_bitmaps",
		"Bitmaps pinned by the most recently opened bitmap pool.")

	// Static buffer assignments (internal/buffer).
	BufferHitsTotal = Default().Counter("bix_buffer_hits_total",
		"Bitmap references satisfied by a static buffer assignment.")
	BufferMissesTotal = Default().Counter("bix_buffer_misses_total",
		"Bitmap references not covered by a static buffer assignment.")

	// SlowQueriesTotal counts traces at or over a SlowLog threshold.
	SlowQueriesTotal = Default().Counter("bix_slow_queries_total",
		"Queries at or over the slow-query threshold.")

	// Segmented (intra-query parallel) evaluation.
	SegmentEvalTotal = Default().Counter("bix_segment_eval_total",
		"Segmented (intra-query parallel) evaluator invocations.")
	SegmentWorkers = Default().Gauge("bix_segment_workers",
		"Segment worker pool size (GOMAXPROCS when the pool started).")

	// Cost-model accuracy, fed by engine.ExplainAnalyze: |predicted -
	// measured| / max(measured, 1) per analyzed query, split by the model
	// dimension. Scans should sit in the zero bucket (the model counts the
	// same fetches the evaluator performs); time drifts
	// with hardware and cache state, hence the wide layout.
	CostModelErrorScans = Default().Histogram("bix_cost_model_error_scans",
		"Relative error of predicted vs measured bitmap scans per analyzed query.",
		ErrorBuckets)
	CostModelErrorTime = Default().Histogram("bix_cost_model_error_time",
		"Relative error of predicted vs measured evaluation time per analyzed query.",
		ErrorBuckets)
)

// LatencyBuckets is the upper-bound layout of bix_query_latency_seconds:
// 10µs to 1s, roughly quarter-decade steps.
var LatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// ErrorBuckets is the upper-bound layout of the bix_cost_model_error_*
// histograms: relative error from exact (0) through 10%/25% drift up to 5x
// off. An accurate model keeps the mass at or below 0.25.
var ErrorBuckets = []float64{0, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// ScanBuckets is the upper-bound layout of bix_query_scans. 2(n-1)+4/3 scans
// is the paper's expected cost, so real workloads land in the low buckets;
// the tail catches single-component base-C probes.
var ScanBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128}

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
	QueryScans.Observe(float64(scans))
}
