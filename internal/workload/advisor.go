package workload

import (
	"fmt"

	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
	"bitmapindex/internal/design"
)

// AttrDesign describes one attribute's current physical design, as
// recorded in the catalog descriptor: its encoding, base, storage codec
// and the table's row order. catalog.Table.Designs builds this.
type AttrDesign struct {
	Name     string    `json:"name"`
	Card     uint64    `json:"card"`
	Base     core.Base `json:"base"`
	Encoding string    `json:"encoding"`
	Codec    string    `json:"codec"`
	Reorder  string    `json:"reorder,omitempty"`

	enc core.Encoding
}

// NewAttrDesign fills an AttrDesign from typed fields.
func NewAttrDesign(name string, card uint64, base core.Base, enc core.Encoding, codec, reorder string) AttrDesign {
	return AttrDesign{Name: name, Card: card, Base: base.Clone(),
		Encoding: enc.String(), Codec: codec, Reorder: reorder, enc: enc}
}

// DriftThreshold is the total-variation distance from uniform at which a
// report flags the workload as drifted: above it, the uniform-allocation
// assumption misprices the workload enough to revisit the design.
const DriftThreshold = 0.05

// AttrAdvice is one attribute's row of a report: the observed demand,
// the current design and the recommended one, each priced in expected
// scans per query of that attribute's own predicates.
type AttrAdvice struct {
	Name      string  `json:"name"`
	Card      uint64  `json:"card"`
	Frequency float64 `json:"frequency"`  // observed fraction of queries
	RangeFrac float64 `json:"range_frac"` // observed range-class fraction

	CurrentBase      core.Base `json:"current_base"`
	CurrentEncoding  string    `json:"current_encoding"`
	CurrentCodec     string    `json:"current_codec"`
	CurrentSpace     int       `json:"current_space"`
	CurrentTime      float64   `json:"current_time"`
	RecommendedBase  core.Base `json:"recommended_base"`
	RecommendedSpace int       `json:"recommended_space"`
	RecommendedTime  float64   `json:"recommended_time"`
}

// Report compares the catalog's current design against the weighted
// recommendation under an observed profile.
type Report struct {
	Table        string  `json:"table,omitempty"`
	Reorder      string  `json:"reorder,omitempty"`
	TotalQueries int64   `json:"total_queries"`
	Budget       int     `json:"budget"` // current total stored bitmaps, reused as the recommendation's budget
	Drift        float64 `json:"drift"`
	Drifted      bool    `json:"drifted"`
	// Expected scans per query under the observed frequency vector.
	CurrentTime     float64 `json:"current_time"`
	RecommendedTime float64 `json:"recommended_time"`
	// Gain is CurrentTime - RecommendedTime: the price of the gap between
	// the design on disk and the design the observed workload wants.
	Gain  float64      `json:"gain"`
	Attrs []AttrAdvice `json:"attributes"`
}

// Advise prices the catalog's current design against the weighted
// optimum under the observed profile, holding the disk budget fixed at
// the space the current design already uses. The profile may be empty
// (uniform advice) but must validate against the designs' attribute set.
// Advise is a pure function of its arguments; /debug/advisor serves its
// report.
func Advise(table string, designs []AttrDesign, p Profile) (*Report, error) {
	if len(designs) == 0 {
		return nil, fmt.Errorf("workload: no attribute designs to advise on")
	}
	attrs := make([]AttrInfo, len(designs))
	byName := make(map[string]int, len(designs))
	for i, d := range designs {
		attrs[i] = AttrInfo{Name: d.Name, Card: d.Card}
		byName[d.Name] = i
	}
	if err := p.Validate(attrs); err != nil {
		return nil, err
	}
	// Align the profile with the design order; attributes the profile
	// does not mention stay at zero demand.
	aligned := Profile{Version: ProfileVersion, Attrs: make([]AttrProfile, len(designs))}
	for i, d := range designs {
		aligned.Attrs[i] = AttrProfile{Name: d.Name, Card: d.Card}
	}
	for _, ap := range p.Attrs {
		aligned.Attrs[byName[ap.Name]] = ap
	}

	rep := &Report{Table: table, TotalQueries: aligned.TotalQueries(), Drift: aligned.Drift()}
	rep.Drifted = rep.Drift > DriftThreshold
	for _, d := range designs {
		rep.Budget += cost.Space(d.Base, d.encoding())
		if d.Reorder != "" && d.Reorder != "none" {
			rep.Reorder = d.Reorder
		}
	}
	demands := aligned.Demands()
	weights := aligned.Weights()
	rec, err := design.AllocateBudgetWeighted(demands, rep.Budget)
	if err != nil {
		return nil, fmt.Errorf("workload: recommendation: %w", err)
	}
	for i, d := range designs {
		adv := AttrAdvice{
			Name:             d.Name,
			Card:             d.Card,
			Frequency:        weights[i],
			RangeFrac:        rangeFracOf(demands[i]),
			CurrentBase:      d.Base.Clone(),
			CurrentEncoding:  d.Encoding,
			CurrentCodec:     d.Codec,
			CurrentSpace:     cost.Space(d.Base, d.encoding()),
			CurrentTime:      designTime(d, demands[i].RangeFrac),
			RecommendedBase:  rec.Bases[i],
			RecommendedSpace: rec.Spaces[i],
			RecommendedTime:  rec.Times[i],
		}
		rep.CurrentTime += weights[i] * adv.CurrentTime
		rep.RecommendedTime += weights[i] * adv.RecommendedTime
		rep.Attrs = append(rep.Attrs, adv)
	}
	rep.Gain = rep.CurrentTime - rep.RecommendedTime
	return rep, nil
}

// encoding resolves the typed encoding, parsing the serialized name when
// the design was decoded from JSON rather than built via NewAttrDesign.
func (d AttrDesign) encoding() core.Encoding {
	if d.Encoding != "" {
		if e, err := core.ParseEncoding(d.Encoding); err == nil {
			return e
		}
	}
	return d.enc
}

// designTime prices one attribute's current design at its observed
// operator mix. Range encoding has per-class closed forms; other
// encodings are priced by exhaustive enumeration under the paper's
// default mix (their evaluators have no per-class model).
func designTime(d AttrDesign, rangeFrac float64) float64 {
	if enc := d.encoding(); enc != core.RangeEncoded {
		return cost.ExactTime(d.Base, enc, d.Card)
	}
	return cost.TimeRangeMix(d.Base, d.Card, rangeFrac)
}

func rangeFracOf(d design.AttrDemand) float64 {
	if d.RangeFrac >= 0 && d.RangeFrac <= 1 {
		return d.RangeFrac
	}
	return cost.DefaultRangeFraction
}
