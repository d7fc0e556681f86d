package workload

import (
	"math"
	"reflect"
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
	"bitmapindex/internal/design"
)

// uniformDesigns builds the designs AllocateBudget would choose at the
// given slack over the minimum budget — the "current" state of a catalog
// whose operator never heard of workload skew.
func uniformDesigns(t *testing.T, cards []uint64, slack int) []AttrDesign {
	t.Helper()
	m := 0
	for _, c := range cards {
		m += design.MaxComponents(c)
	}
	alloc, err := design.AllocateBudget(cards, m+slack)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"region", "status", "tier"}
	designs := make([]AttrDesign, len(cards))
	for i, c := range cards {
		designs[i] = NewAttrDesign(names[i], c, alloc.Bases[i], core.RangeEncoded, "raw", "none")
	}
	return designs
}

func skewedProfile(attrs []AttrInfo, hot int, hotQueries, coldQueries int64) Profile {
	p := Profile{Version: ProfileVersion}
	for i, ai := range attrs {
		ap := AttrProfile{Name: ai.Name, Card: ai.Card, Range: coldQueries}
		if i == hot {
			ap.Range = hotQueries
		}
		p.Attrs = append(p.Attrs, ap)
	}
	return p
}

// TestAdviseSkewRecommendsHotAttribute is the advisor's core promise: a
// workload that hammers one attribute gets a recommendation that beats
// the uniform design under that workload, with drift flagged and the
// hot attribute gaining bitmaps.
func TestAdviseSkewRecommendsHotAttribute(t *testing.T) {
	cards := []uint64{90, 25, 12}
	designs := uniformDesigns(t, cards, 6)
	attrs := make([]AttrInfo, len(designs))
	for i, d := range designs {
		attrs[i] = AttrInfo{Name: d.Name, Card: d.Card}
	}
	p := skewedProfile(attrs, 0, 80, 10) // 80% of queries hit attr 0

	rep, err := Advise("t", designs, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalQueries != 100 {
		t.Errorf("TotalQueries = %d, want 100", rep.TotalQueries)
	}
	// Observed frequencies (0.8, 0.1, 0.1) vs uniform 1/3:
	// TV distance = (|0.8-1/3| + 2*|0.1-1/3|)/2 = 0.7/1.5 = 0.4666...
	if math.Abs(rep.Drift-7.0/15) > 1e-12 {
		t.Errorf("Drift = %v, want %v", rep.Drift, 7.0/15)
	}
	if !rep.Drifted {
		t.Error("80/10/10 split not flagged as drifted")
	}
	if rep.Gain <= 0 {
		t.Errorf("Gain = %v, want > 0 (recommendation must beat the uniform design)", rep.Gain)
	}
	if rep.RecommendedTime >= rep.CurrentTime {
		t.Errorf("RecommendedTime %v >= CurrentTime %v", rep.RecommendedTime, rep.CurrentTime)
	}
	hot := rep.Attrs[0]
	if hot.RecommendedSpace <= hot.CurrentSpace {
		t.Errorf("hot attribute space: recommended %d <= current %d", hot.RecommendedSpace, hot.CurrentSpace)
	}
	if math.Abs(hot.Frequency-0.8) > 1e-12 {
		t.Errorf("hot frequency = %v, want 0.8", hot.Frequency)
	}
	// Pure one-sided range workload.
	if hot.RangeFrac != 1 {
		t.Errorf("hot range fraction = %v, want 1", hot.RangeFrac)
	}
	// The recommendation must respect the current design's budget.
	recSpace := 0
	for _, a := range rep.Attrs {
		recSpace += a.RecommendedSpace
	}
	if recSpace > rep.Budget {
		t.Errorf("recommendation overruns budget: %d > %d", recSpace, rep.Budget)
	}
}

// TestAdviseUniformProfileIsNeutral: under a uniform (or empty) profile
// the current AllocateBudget design is already optimal, so the advisor
// must report zero gain and zero drift.
func TestAdviseUniformProfileIsNeutral(t *testing.T) {
	cards := []uint64{90, 25, 12}
	designs := uniformDesigns(t, cards, 6)
	attrs := make([]AttrInfo, len(designs))
	for i, d := range designs {
		attrs[i] = AttrInfo{Name: d.Name, Card: d.Card}
	}
	for _, tc := range []struct {
		name string
		p    Profile
	}{
		{"empty", Profile{Version: ProfileVersion}},
		{"uniform default mix", uniformMixProfile(attrs, 50)},
	} {
		rep, err := Advise("t", designs, tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Drift != 0 {
			t.Errorf("%s: Drift = %v, want 0", tc.name, rep.Drift)
		}
		if rep.Drifted {
			t.Errorf("%s: flagged as drifted", tc.name)
		}
		if math.Abs(rep.Gain) > 1e-12 {
			t.Errorf("%s: Gain = %v, want 0 (current design already optimal)", tc.name, rep.Gain)
		}
		for i, a := range rep.Attrs {
			if !a.RecommendedBase.Equal(designs[i].Base) {
				t.Errorf("%s: attr %d recommended base %v != current %v",
					tc.name, i, a.RecommendedBase, designs[i].Base)
			}
		}
	}
}

// uniformMixProfile queries every attribute n times at the paper's
// default 2/3 range mix (2 range + 1 eq per 3 queries).
func uniformMixProfile(attrs []AttrInfo, n int64) Profile {
	p := Profile{Version: ProfileVersion}
	for _, ai := range attrs {
		p.Attrs = append(p.Attrs, AttrProfile{
			Name: ai.Name, Card: ai.Card, Range: 2 * n, Eq: n,
		})
	}
	return p
}

func TestAdviseErrors(t *testing.T) {
	if _, err := Advise("t", nil, Profile{}); err == nil {
		t.Error("no designs: want error")
	}
	designs := []AttrDesign{NewAttrDesign("a", 10, core.Base{4, 3}, core.RangeEncoded, "raw", "")}
	bad := Profile{Version: ProfileVersion, Attrs: []AttrProfile{{Name: "ghost", Card: 10, Eq: 1}}}
	if _, err := Advise("t", designs, bad); err == nil {
		t.Error("profile attribute outside the catalog: want error")
	}
}

// TestAdviseMetrics: the report's drift is the profile's, its gain is the
// current minus the recommended expected time, and Advise is pure: the
// same inputs give the same report.
func TestAdviseMetrics(t *testing.T) {
	cards := []uint64{90, 25, 12}
	designs := uniformDesigns(t, cards, 6)
	attrs := make([]AttrInfo, len(designs))
	for i, d := range designs {
		attrs[i] = AttrInfo{Name: d.Name, Card: d.Card}
	}
	rep, err := Advise("t", designs, skewedProfile(attrs, 0, 80, 10))
	if err != nil {
		t.Fatal(err)
	}
	if want := skewedProfile(attrs, 0, 80, 10).Drift(); rep.Drift != want || rep.Drift <= 0 {
		t.Errorf("drift = %v, want the profile's %v (> 0)", rep.Drift, want)
	}
	if want := rep.CurrentTime - rep.RecommendedTime; rep.Gain != want {
		t.Errorf("gain = %v, want current - recommended = %v", rep.Gain, want)
	}
	again, err := Advise("t", designs, skewedProfile(attrs, 0, 80, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, rep) {
		t.Errorf("Advise is not pure:\nfirst  %+v\nsecond %+v", rep, again)
	}
}

// TestDesignTimeNonRange: non-range encodings are priced by the exact
// enumerated model so mixed-encoding catalogs still get sane advice.
func TestDesignTimeNonRange(t *testing.T) {
	base := core.Base{5, 2}
	d := NewAttrDesign("a", 10, base, core.EqualityEncoded, "raw", "")
	if got, want := designTime(d, 1), cost.ExactTime(base, core.EqualityEncoded, 10); got != want {
		t.Errorf("equality designTime = %v, want %v", got, want)
	}
	r := NewAttrDesign("a", 10, base, core.RangeEncoded, "raw", "")
	if got, want := designTime(r, cost.DefaultRangeFraction), cost.TimeRange(base, 10); got != want {
		t.Errorf("range designTime at default mix = %v, want %v", got, want)
	}
}
