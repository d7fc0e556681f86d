// Package telemetrybad registers metrics with off-scheme names and
// unbounded label values.
package telemetrybad

import "bitmapindex/internal/telemetry"

func Register(queryText string) {
	telemetry.Default().Counter("queries_total", "Off-scheme name.") // want "bix_"
	telemetry.Default().Counter("bix_fixture_q_total", "Per-query label.",
		telemetry.Label{Name: "q", Value: queryText}) // want "constant"
}

func Dynamic(name string) {
	telemetry.Default().Counter(name, "Dynamic name.") // want "compile-time constant"
}

func Spread(labels []telemetry.Label) {
	telemetry.Default().Counter("bix_fixture_s_total", "Spread labels.", labels...) // want "spread"
}

func Variable(l telemetry.Label) {
	telemetry.Default().Counter("bix_fixture_v_total", "Variable label.", l) // want "not a variable"
}

func KindSuffixes() {
	telemetry.Default().Counter("bix_runtime_alloc_bytes", "Counter without suffix.") // want "_total"
	telemetry.Default().Histogram("bix_runtime_heap_bytes_total",                     // want "must not end in _total"
		"Histogram with suffix.", telemetry.LatencyBuckets)
	telemetry.Default().Histogram("bix_profile_pause_total", // want "must not end in _total"
		"Histogram with suffix.", telemetry.LatencyBuckets)
}
