// Package attrgood registers attribute-labeled metrics the only way
// telemetry-labels accepts: one pre-registered metric per known
// attribute, each with a constant label value. A bix_attr_* name needs no
// directive and gets no exemption.
package attrgood

import "bitmapindex/internal/telemetry"

var byAttr = [...]*telemetry.Counter{
	telemetry.Default().Counter("bix_attr_fixture_good_total", "Queries by attribute.",
		telemetry.Label{Name: "attr", Value: "region"}),
	telemetry.Default().Counter("bix_attr_fixture_good_total", "Queries by attribute.",
		telemetry.Label{Name: "attr", Value: "qty"}),
}

func Touch(attr int) { byAttr[attr%len(byAttr)].Inc() }
