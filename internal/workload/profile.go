package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"bitmapindex/internal/design"
)

// ProfileVersion is bumped whenever a saved profile's fields change
// meaning. Dropping a field does not bump it: decoding ignores fields it
// does not know, so profiles that still carry the per-attribute cost
// counters and histograms earlier versions of this package wrote load
// as their class counts.
const ProfileVersion = 1

// AttrProfile is one attribute's query counts by operator class. An
// interval query counts once here but as two one-sided evaluations in
// Demands.
type AttrProfile struct {
	Name     string `json:"name"`
	Card     uint64 `json:"card"`
	Eq       int64  `json:"eq"`
	Range    int64  `json:"range"`
	Interval int64  `json:"interval"`
}

// Queries returns the attribute's total query count across classes.
func (ap AttrProfile) Queries() int64 { return ap.Eq + ap.Range + ap.Interval }

// evals returns the attribute's one-sided evaluation count: an interval
// query costs two one-sided range evaluations.
func (ap AttrProfile) evals() int64 { return ap.Eq + ap.Range + 2*ap.Interval }

// Profile is a serializable point-in-time workload snapshot.
type Profile struct {
	Version int           `json:"version"`
	Attrs   []AttrProfile `json:"attributes"`
}

// TotalQueries sums query counts across attributes.
func (p Profile) TotalQueries() int64 {
	var t int64
	for _, ap := range p.Attrs {
		t += ap.Queries()
	}
	return t
}

// Drift measures how far the observed per-attribute query frequencies
// diverge from the design layer's uniform assumption: the total variation
// distance between the observed frequency vector and uniform, in [0, 1].
// An empty profile (no queries) has zero drift.
func (p Profile) Drift() float64 {
	n := len(p.Attrs)
	total := p.TotalQueries()
	if n == 0 || total == 0 {
		return 0
	}
	var d float64
	for _, ap := range p.Attrs {
		d += math.Abs(float64(ap.Queries())/float64(total) - 1/float64(n))
	}
	return d / 2
}

// Demands converts the profile into the weighted allocator's input: one
// demand per attribute, weighted by its one-sided evaluation count, with
// the measured range fraction. A never-queried attribute keeps weight 0
// and the default operator mix; a fully idle profile degrades to uniform
// demands so advice under no data reproduces the paper's assumption.
func (p Profile) Demands() []design.AttrDemand {
	demands := make([]design.AttrDemand, len(p.Attrs))
	idle := p.TotalQueries() == 0
	for i, ap := range p.Attrs {
		d := design.AttrDemand{Card: ap.Card, RangeFrac: -1}
		if idle {
			d.Weight = 1
		} else if e := ap.evals(); e > 0 {
			d.Weight = float64(e)
			d.RangeFrac = float64(ap.Range+2*ap.Interval) / float64(e)
		}
		demands[i] = d
	}
	return demands
}

// Weights returns the normalized per-attribute query frequencies (summing
// to 1), uniform when the profile is empty.
func (p Profile) Weights() []float64 {
	w := make([]float64, len(p.Attrs))
	total := p.TotalQueries()
	if total == 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return w
	}
	for i, ap := range p.Attrs {
		w[i] = float64(ap.Queries()) / float64(total)
	}
	return w
}

// Validate checks the profile against a catalog attribute set: every
// profile attribute must exist with the same cardinality, and every count
// must be non-negative.
func (p Profile) Validate(attrs []AttrInfo) error {
	if p.Version > ProfileVersion {
		return fmt.Errorf("workload: profile version %d is newer than supported %d", p.Version, ProfileVersion)
	}
	cards := make(map[string]uint64, len(attrs))
	for _, ai := range attrs {
		cards[ai.Name] = ai.Card
	}
	seen := make(map[string]bool, len(p.Attrs))
	for _, ap := range p.Attrs {
		card, ok := cards[ap.Name]
		if !ok {
			return fmt.Errorf("workload: profile attribute %q is not in the catalog", ap.Name)
		}
		if seen[ap.Name] {
			return fmt.Errorf("workload: duplicate profile attribute %q", ap.Name)
		}
		seen[ap.Name] = true
		if ap.Card != card {
			return fmt.Errorf("workload: attribute %q has cardinality %d in the profile, %d in the catalog",
				ap.Name, ap.Card, card)
		}
		for _, c := range [...]struct {
			what string
			v    int64
		}{{"eq", ap.Eq}, {"range", ap.Range}, {"interval", ap.Interval}} {
			if c.v < 0 {
				return fmt.Errorf("workload: attribute %q has negative %s count %d", ap.Name, c.what, c.v)
			}
		}
	}
	return nil
}

// Merge adds o's counts into p. Both profiles must carry the same
// attribute set in the same order (snapshots of the same catalog).
// Counter overflow is an error, not a wraparound.
func (p *Profile) Merge(o Profile) error {
	if len(p.Attrs) != len(o.Attrs) {
		return fmt.Errorf("workload: merging profiles with %d and %d attributes", len(p.Attrs), len(o.Attrs))
	}
	for i := range p.Attrs {
		a, b := &p.Attrs[i], o.Attrs[i]
		if a.Name != b.Name || a.Card != b.Card {
			return fmt.Errorf("workload: merge mismatch at %d: %s/C=%d vs %s/C=%d",
				i, a.Name, a.Card, b.Name, b.Card)
		}
		for _, f := range [...]struct {
			dst *int64
			src int64
		}{{&a.Eq, b.Eq}, {&a.Range, b.Range}, {&a.Interval, b.Interval}} {
			s, err := addInt64(*f.dst, f.src, a.Name)
			if err != nil {
				return err
			}
			*f.dst = s
		}
	}
	return nil
}

func addInt64(a, b int64, attr string) (int64, error) {
	if b < 0 || a < 0 {
		return 0, fmt.Errorf("workload: attribute %q: negative count in merge", attr)
	}
	if a > math.MaxInt64-b {
		return 0, fmt.Errorf("workload: attribute %q: counter overflow in merge", attr)
	}
	return a + b, nil
}

// Save writes the profile as indented JSON.
func (p Profile) Save(path string) error {
	j, err := p.marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, j, 0o644)
}

func (p Profile) marshal() ([]byte, error) {
	j, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return append(j, '\n'), nil
}

// LoadProfile reads a profile written by Save. The result is decoded but
// not validated against any catalog; call Validate before trusting it.
func LoadProfile(path string) (Profile, error) {
	j, err := os.ReadFile(path)
	if err != nil {
		return Profile{}, fmt.Errorf("workload: %w", err)
	}
	return DecodeProfile(j)
}

// DecodeProfile parses a JSON profile, rejecting structurally invalid
// documents (the fuzz target): decode errors, unsupported versions and
// negative counts all fail here even without a catalog to check against.
func DecodeProfile(j []byte) (Profile, error) {
	var p Profile
	if err := json.Unmarshal(j, &p); err != nil {
		return Profile{}, fmt.Errorf("workload: bad profile: %w", err)
	}
	if p.Version > ProfileVersion {
		return Profile{}, fmt.Errorf("workload: profile version %d is newer than supported %d",
			p.Version, ProfileVersion)
	}
	// Structural checks that need no catalog: self-validate against the
	// profile's own attribute set.
	self := make([]AttrInfo, len(p.Attrs))
	for i, ap := range p.Attrs {
		if ap.Name == "" {
			return Profile{}, fmt.Errorf("workload: profile attribute %d has no name", i)
		}
		self[i] = AttrInfo{Name: ap.Name, Card: ap.Card}
	}
	if err := p.Validate(self); err != nil {
		return Profile{}, err
	}
	return p, nil
}
