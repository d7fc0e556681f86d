package design

import (
	"fmt"

	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
)

// EncodedPoint is one (base, encoding) design with its coordinates.
type EncodedPoint struct {
	Base     core.Base
	Encoding core.Encoding
	Space    int
	Time     float64
}

// FrontierAllEncodings returns the Pareto frontier over the full design
// space — every minimal base under each of the three encodings — so a
// designer can pick encoding and decomposition together. Range and
// equality encodings use their closed-form/enumerated models; interval
// encoding is measured on one-row indexes, so keep card
// moderate (up to a few thousand) for interactive use.
func FrontierAllEncodings(card uint64) []EncodedPoint {
	var all []EncodedPoint
	for _, enc := range []core.Encoding{core.RangeEncoded, core.EqualityEncoded, core.IntervalEncoded} {
		for _, p := range Frontier(card, enc) {
			all = append(all, EncodedPoint{Base: p.Base, Encoding: enc, Space: p.Space, Time: p.Time})
		}
	}
	return paretoMinEncoded(all)
}

func paretoMinEncoded(all []EncodedPoint) []EncodedPoint {
	// Sort by space then time; tie-break deterministically on encoding so
	// output is stable across runs.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && lessEncoded(all[j], all[j-1]); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	var out []EncodedPoint
	best := -1.0
	for _, p := range all {
		if best < 0 || p.Time < best-1e-12 {
			out = append(out, p)
			best = p.Time
		}
	}
	return out
}

func lessEncoded(a, b EncodedPoint) bool {
	if a.Space != b.Space {
		return a.Space < b.Space
	}
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Encoding < b.Encoding
}

// BestDesignUnderSpace returns the most time-efficient (base, encoding)
// pair storing at most m bitmaps, searched over the combined frontier.
func BestDesignUnderSpace(card uint64, m int) (core.Base, core.Encoding, error) {
	front := FrontierAllEncodings(card)
	var best *EncodedPoint
	for i := range front {
		if front[i].Space > m {
			break
		}
		best = &front[i]
	}
	if best == nil {
		return nil, 0, fmt.Errorf("%w: M = %d (combined frontier starts at %d bitmaps)",
			ErrInfeasible, m, front[0].Space)
	}
	return best.Base.Clone(), best.Encoding, nil
}

// EncodingComparison returns the three encodings' coordinates at one base,
// for advisor displays.
func EncodingComparison(base core.Base, card uint64) []EncodedPoint {
	out := make([]EncodedPoint, 0, 3)
	for _, enc := range []core.Encoding{core.RangeEncoded, core.EqualityEncoded, core.IntervalEncoded} {
		out = append(out, EncodedPoint{
			Base:     base.Clone(),
			Encoding: enc,
			Space:    cost.Space(base, enc),
			Time:     cost.ExactTime(base, enc, card),
		})
	}
	return out
}
