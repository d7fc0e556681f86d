// Package telemetrygood registers metrics the approved way: constant
// bix_* names, constant label values, one metric per known label value.
package telemetrygood

import "bitmapindex/internal/telemetry"

const hitsName = "bix_fixture_hits_total"

var (
	hits   = telemetry.Default().Counter(hitsName, "Fixture hits.")
	byKind = [...]*telemetry.Counter{
		telemetry.Default().Counter("bix_fixture_ops_total", "Fixture ops.",
			telemetry.Label{Name: "kind", Value: "and"}),
		telemetry.Default().Counter("bix_fixture_ops_total", "Fixture ops.",
			telemetry.Label{"kind", "or"}),
	}
	lat = telemetry.Default().Histogram("bix_fixture_latency_seconds",
		"Fixture latency.", telemetry.LatencyBuckets,
		telemetry.Label{Name: "path", Value: "query"})
)

func Touch(kind int) {
	hits.Inc()
	byKind[kind%len(byKind)].Inc()
	lat.Observe(0.001)
}

// Runtime-profiling family: counters fed by deltas carry _total,
// distributions do not.
var (
	gcCycles = telemetry.Default().Counter("bix_runtime_gc_cycles_total", "Fixture GC cycles.")
	heap     = telemetry.Default().Histogram("bix_runtime_heap_bytes", "Fixture heap bytes.", telemetry.LatencyBuckets)
	pauses   = telemetry.Default().Histogram("bix_profile_gc_pause_seconds",
		"Fixture pauses.", telemetry.LatencyBuckets)
)

func TouchRuntime() {
	gcCycles.Inc()
	heap.Observe(1)
	pauses.Observe(0.001)
}
