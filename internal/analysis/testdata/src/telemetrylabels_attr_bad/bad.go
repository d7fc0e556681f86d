// Package attrbad registers attribute-labeled metrics with run-time label
// values. No doc-comment directive exempts a function from the
// constant-label rule, so each one is reported.
package attrbad

import "bitmapindex/internal/telemetry"

// RegisterDynamic labels a family with a run-time attribute name.
func RegisterDynamic(attr string) {
	telemetry.Default().Counter("bix_attr_fixture_q_total", "Dynamic label.",
		telemetry.Label{Name: "attr", Value: attr}) // want "constant"
}

// NewCounters claims to be a bounded-cardinality seam; the claim is not a
// directive the analyzer knows.
//
//bix:attrlabel (label values are catalog attribute names)
func NewCounters(reg *telemetry.Registry, attrs []string) []*telemetry.Counter {
	var out []*telemetry.Counter
	for _, a := range attrs {
		out = append(out, reg.Counter("bix_attr_fixture_total", "Queries by attribute.",
			telemetry.Label{Name: "attr", Value: a})) // want "constant"
	}
	return out
}
