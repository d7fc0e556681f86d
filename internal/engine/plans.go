package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
	"bitmapindex/internal/telemetry"
)

// Method selects a query evaluation plan for a conjunctive selection.
type Method uint8

const (
	// FullScan is plan P1: read every record and test all predicates.
	FullScan Method = iota
	// IndexFilter is plan P2: probe one index for the most selective
	// predicate, then fetch the matching records and test the rest.
	IndexFilter
	// RIDMerge is plan P3 with RID-list indexes: probe one RID index per
	// predicate and intersect the sorted RID lists.
	RIDMerge
	// BitmapMerge is plan P3 with bitmap indexes: evaluate one bitmap
	// predicate per index and AND the result bitmaps.
	BitmapMerge
	// Auto picks the plan with the lowest estimated bytes read among the
	// plans whose indexes exist.
	Auto
)

// String names the plan like the paper's introduction.
func (m Method) String() string {
	switch m {
	case FullScan:
		return "P1-fullscan"
	case IndexFilter:
		return "P2-indexfilter"
	case RIDMerge:
		return "P3-ridmerge"
	case BitmapMerge:
		return "P3-bitmapmerge"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Cost reports the physical work a plan performed (or, for estimates,
// would perform).
type Cost struct {
	Method    Method
	BytesRead int64
	// Rows is the result cardinality.
	Rows int
	// Stats accumulates the bitmap scan and operation counts of every
	// index evaluation the plan performed (zero for plans that touch no
	// bitmap index), so the paper's cost measures propagate to plan level.
	Stats core.Stats
	// AllocBytes and AllocObjects are the heap allocation deltas measured
	// across the plan's execution (telemetry.ReadAllocs). The counters are
	// process-global, so the attribution is exact under serial evaluation
	// and approximate when other goroutines allocate concurrently; small
	// objects surface only at span-refill granularity, large (>32KB)
	// allocations immediately. Plan selection (Auto's cost estimation) is
	// excluded.
	AllocBytes   int64
	AllocObjects int64
}

// Select evaluates the conjunction of preds over the relation with the
// given plan and returns the qualifying record bitmap plus the measured
// cost. All predicates must reference existing columns; RIDMerge needs a
// RID index and BitmapMerge a bitmap index on every referenced column.
func (r *Relation) Select(preds []Pred, m Method) (*bitvec.Vector, Cost, error) {
	return r.SelectOpts(preds, m, nil)
}

// SelectOptions tunes plan execution beyond the method choice.
type SelectOptions struct {
	// Trace, when non-nil, receives per-phase durations (plan selection,
	// bitmap work, row filtering, result popcounts).
	Trace *telemetry.Trace

	// perPred, when non-nil, receives one predActual per bitmap predicate
	// evaluated by the bitmap-merge plan, in predicate order: the measured
	// scan delta and wall-clock time of that predicate alone. Filled only
	// by ExplainAnalyze, which compares the entries against the cost
	// model's per-predicate predictions.
	perPred *[]predActual
}

// predActual is one bitmap predicate's measured cost within a plan.
type predActual struct {
	Scans int
	NS    int64
}

// SelectOpts is Select with execution options (tracing). opt may be nil.
// Auto resolves to the cheapest estimable plan first, and Cost.Method
// reports the concrete plan that ran. The plan-level accounting adds the
// allocation deltas.
func (r *Relation) SelectOpts(preds []Pred, m Method, opt *SelectOptions) (*bitvec.Vector, Cost, error) {
	if opt == nil {
		opt = &SelectOptions{}
	}
	if err := r.checkPreds(preds); err != nil {
		return nil, Cost{}, err
	}
	tr := opt.Trace
	if m == Auto {
		best, err := r.pickPlan(preds, tr)
		if err != nil {
			return nil, Cost{}, err
		}
		m = best
	}
	var (
		res *bitvec.Vector
		c   Cost
		err error
	)
	aB, aO := telemetry.ReadAllocs()
	switch m {
	case FullScan:
		res, c = r.fullScan(preds, tr)
	case IndexFilter:
		res, c, err = r.indexFilter(preds, tr)
	case RIDMerge:
		res, c, err = r.ridMerge(preds, tr)
	case BitmapMerge:
		res, c, err = r.bitmapMerge(preds, opt)
	default:
		return nil, Cost{}, fmt.Errorf("engine: unknown method %v", m)
	}
	if err != nil {
		return nil, Cost{}, err
	}
	b, o := telemetry.ReadAllocs()
	c.AllocBytes, c.AllocObjects = b-aB, o-aO
	return res, c, nil
}

// predsSummary renders the conjunction compactly ("A <= 7 AND B = 2").
func predsSummary(preds []Pred) string {
	if len(preds) == 1 {
		return preds[0].String()
	}
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

func (r *Relation) checkPreds(preds []Pred) error {
	if len(preds) == 0 {
		return fmt.Errorf("engine: empty predicate list")
	}
	for _, p := range preds {
		if _, err := r.Column(p.Col); err != nil {
			return err
		}
	}
	return nil
}

// columns resolves each predicate's column (checkPreds has validated them).
func (r *Relation) columns(preds []Pred) []*Column {
	cols := make([]*Column, len(preds))
	for i, p := range preds {
		cols[i], _ = r.Column(p.Col)
	}
	return cols
}

// matchRow reports whether row satisfies every predicate except preds[skip].
func matchRow(preds []Pred, cols []*Column, row, skip int) bool {
	for i, p := range preds {
		if i != skip && !p.matches(cols[i], row) {
			return false
		}
	}
	return true
}

func (r *Relation) fullScan(preds []Pred, tr *telemetry.Trace) (*bitvec.Vector, Cost) {
	sp := tr.Start(telemetry.PhaseFilter)
	res := bitvec.New(r.Rows())
	cols := r.columns(preds)
	for row := 0; row < r.Rows(); row++ {
		if matchRow(preds, cols, row, -1) {
			res.Set(row)
		}
	}
	sp.End()
	return res, Cost{Method: FullScan, BytesRead: int64(r.Rows()) * int64(r.RowBytes()), Rows: popcount(res, tr)}
}

// popcount counts the result bits under the popcount trace phase.
func popcount(v *bitvec.Vector, tr *telemetry.Trace) int {
	defer tr.Start(telemetry.PhasePopcount).End()
	return v.Count()
}

// ridsFor returns the RIDs matching the predicate via the column's RID
// index, sorted, along with the index bytes read (RIDBytes per RID
// touched, over every list probed).
func (r *Relation) ridsFor(p Pred) ([]uint32, int64, error) {
	c, _ := r.Column(p.Col)
	if c.rids == nil {
		return nil, 0, fmt.Errorf("engine: column %q has no RID index", p.Col)
	}
	rop, rank, all, none := c.dict.Translate(p.Op, p.Val)
	if none {
		return nil, 0, nil
	}
	var out []uint32
	var bytes int64
	for v := uint64(0); v < c.Card(); v++ {
		if !all && !rop.Matches(v, rank) {
			continue
		}
		list := c.rids[v]
		bytes += int64(len(list)) * RIDBytes
		out = append(out, list...)
	}
	slices.Sort(out)
	return out, bytes, nil
}

func (r *Relation) indexFilter(preds []Pred, tr *telemetry.Trace) (*bitvec.Vector, Cost, error) {
	// Choose the most selective indexed predicate (smallest RID list) as
	// the driver; fall back to the first RID-indexed column.
	probe := tr.Start(telemetry.PhaseFetch)
	driver := -1
	var driverRIDs []uint32
	var driverBytes int64
	for i, p := range preds {
		c, _ := r.Column(p.Col)
		if c.rids == nil {
			continue
		}
		rids, bytes, err := r.ridsFor(p)
		if err != nil {
			probe.End()
			return nil, Cost{}, err
		}
		if driver < 0 || len(rids) < len(driverRIDs) {
			driver, driverRIDs, driverBytes = i, rids, bytes
		}
	}
	probe.End()
	if driver < 0 {
		return nil, Cost{}, fmt.Errorf("engine: no RID index available for index-filter plan")
	}
	sp := tr.Start(telemetry.PhaseFilter)
	res := bitvec.New(r.Rows())
	cols := r.columns(preds)
	for _, rid := range driverRIDs {
		if matchRow(preds, cols, int(rid), driver) {
			res.Set(int(rid))
		}
	}
	sp.End()
	cost := Cost{
		Method: IndexFilter,
		// Index probe plus fetching each candidate record.
		BytesRead: driverBytes + int64(len(driverRIDs))*int64(r.RowBytes()),
		Rows:      popcount(res, tr),
	}
	return res, cost, nil
}

func (r *Relation) ridMerge(preds []Pred, tr *telemetry.Trace) (*bitvec.Vector, Cost, error) {
	var result []uint32
	var bytes int64
	for i, p := range preds {
		probe := tr.Start(telemetry.PhaseFetch)
		rids, b, err := r.ridsFor(p)
		probe.End()
		if err != nil {
			return nil, Cost{}, err
		}
		bytes += b
		if i == 0 {
			result = rids
			continue
		}
		sp := tr.Start(telemetry.PhaseFilter)
		result = intersectSorted(result, rids)
		sp.End()
	}
	res := bitvec.New(r.Rows())
	for _, rid := range result {
		res.Set(int(rid))
	}
	return res, Cost{Method: RIDMerge, BytesRead: bytes, Rows: len(result)}, nil
}

func intersectSorted(a, b []uint32) []uint32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// evalBitmapPred evaluates one predicate through the column's bitmap
// index, accounting stats into st.
func (r *Relation) evalBitmapPred(p Pred, tr *telemetry.Trace, st *core.Stats) (*bitvec.Vector, error) {
	c, _ := r.Column(p.Col)
	if c.bitmap == nil {
		return nil, fmt.Errorf("engine: column %q has no bitmap index", p.Col)
	}
	rop, rank, all, none := c.dict.Translate(p.Op, p.Val)
	switch {
	case none:
		return bitvec.New(r.Rows()), nil
	case all:
		return bitvec.NewOnes(r.Rows()), nil
	}
	return c.bitmap.Eval(rop, rank, &core.EvalOptions{Stats: st, Trace: tr}), nil
}

// bitmapMerge is plan P3 over bitmap indexes: one bitmap evaluation per
// predicate, ANDed together.
func (r *Relation) bitmapMerge(preds []Pred, opt *SelectOptions) (*bitvec.Vector, Cost, error) {
	tr := opt.Trace
	bitmapBytes := int64((r.Rows() + 7) / 8)
	var acc *bitvec.Vector
	var bytes int64
	var st core.Stats
	for _, p := range preds {
		scans0, t0 := st.Scans, time.Now()
		res, err := r.evalBitmapPred(p, tr, &st)
		if err != nil {
			return nil, Cost{}, err
		}
		ns := time.Since(t0).Nanoseconds()
		scans := st.Scans - scans0
		bytes += int64(scans) * bitmapBytes
		if acc == nil {
			acc = res
		} else {
			// The cross-predicate AND is a bitmap operation too; count it
			// so plan-level Stats cover all CPU work, not just the
			// per-index evaluations.
			sp := tr.Start(telemetry.PhaseBoolOps)
			acc.And(res)
			sp.End()
			st.Ands++
		}
		if opt.perPred != nil {
			*opt.perPred = append(*opt.perPred, predActual{Scans: scans, NS: ns})
		}
	}
	return acc, Cost{Method: BitmapMerge, BytesRead: bytes, Rows: popcount(acc, tr), Stats: st}, nil
}

// EstimateBytes predicts the bytes a plan would read, using exact index
// statistics (RID-list lengths) and the analytic bitmap scan model. It
// returns an error when the plan's required indexes are missing.
func (r *Relation) EstimateBytes(preds []Pred, m Method) (int64, error) {
	switch m {
	case FullScan:
		return int64(r.Rows()) * int64(r.RowBytes()), nil
	case IndexFilter:
		best := int64(math.MaxInt64)
		found := false
		for _, p := range preds {
			c, _ := r.Column(p.Col)
			if c.rids == nil {
				continue
			}
			n, idxBytes := r.ridStats(c, p)
			found = true
			if e := idxBytes + n*int64(r.RowBytes()); e < best {
				best = e
			}
		}
		if !found {
			return 0, fmt.Errorf("engine: no RID index for index-filter estimate")
		}
		return best, nil
	case RIDMerge:
		var total int64
		for _, p := range preds {
			c, _ := r.Column(p.Col)
			if c.rids == nil {
				return 0, fmt.Errorf("engine: column %q has no RID index", p.Col)
			}
			_, idxBytes := r.ridStats(c, p)
			total += idxBytes
		}
		return total, nil
	case BitmapMerge:
		bitmapBytes := int64((r.Rows() + 7) / 8)
		var total int64
		for _, p := range preds {
			c, _ := r.Column(p.Col)
			if c.bitmap == nil {
				return 0, fmt.Errorf("engine: column %q has no bitmap index", p.Col)
			}
			rop, rank, all, none := c.dict.Translate(p.Op, p.Val)
			if all || none {
				continue
			}
			var scans int
			if c.bitmap.Encoding() == core.RangeEncoded {
				scans = cost.ScansRange(c.bitmap.Base(), c.Card(), rop, rank)
			} else {
				scans = cost.ScansEquality(c.bitmap.Base(), c.Card(), rop, rank)
			}
			total += int64(scans) * bitmapBytes
		}
		return total, nil
	}
	return 0, fmt.Errorf("engine: cannot estimate method %v", m)
}

// pickPlan returns the method with the lowest estimated bytes read among
// the plans whose indexes exist; the estimation pass is traced as the plan
// phase.
func (r *Relation) pickPlan(preds []Pred, tr *telemetry.Trace) (Method, error) {
	sp := tr.Start(telemetry.PhasePlan)
	best, ok := r.cheapestPlan(preds, nil)
	sp.End()
	if !ok {
		return 0, fmt.Errorf("engine: no executable plan")
	}
	return best, nil
}

// cheapestPlan estimates the four executable plans in Method order and
// returns the one with the fewest estimated bytes, the earlier plan on a
// tie; ok is false when no plan's indexes exist. each, when non-nil, sees
// every estimate, including the error of a plan that cannot run.
func (r *Relation) cheapestPlan(preds []Pred, each func(Method, int64, error)) (best Method, ok bool) {
	var bestBytes int64
	for _, m := range []Method{FullScan, IndexFilter, RIDMerge, BitmapMerge} {
		e, err := r.EstimateBytes(preds, m)
		if each != nil {
			each(m, e, err)
		}
		if err == nil && (!ok || e < bestBytes) {
			best, bestBytes, ok = m, e, true
		}
	}
	return best, ok
}

// ridStats returns the matching-row count and index bytes for a predicate
// from the RID index without materializing the lists.
func (r *Relation) ridStats(c *Column, p Pred) (nRows, idxBytes int64) {
	rop, rank, all, none := c.dict.Translate(p.Op, p.Val)
	if none {
		return 0, 0
	}
	for v := uint64(0); v < c.Card(); v++ {
		if all || rop.Matches(v, rank) {
			n := int64(len(c.rids[v]))
			nRows += n
			idxBytes += n * RIDBytes
		}
	}
	return nRows, idxBytes
}

// Explain renders the optimizer's view of a conjunctive selection: the
// estimated bytes for every applicable plan and which one Auto would run.
func (r *Relation) Explain(preds []Pred) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "select %v from %s (%d rows)\n", preds, r.Name, r.Rows())
	best, ok := r.cheapestPlan(preds, func(m Method, e int64, err error) {
		if err != nil {
			fmt.Fprintf(&sb, "  %-16s unavailable: %v\n", m, err)
		} else {
			fmt.Fprintf(&sb, "  %-16s ~%d bytes\n", m, e)
		}
	})
	if ok {
		fmt.Fprintf(&sb, "  -> auto picks %v\n", best)
	} else {
		sb.WriteString("  -> no executable plan\n")
	}
	return sb.String()
}
