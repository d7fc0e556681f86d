package core

import (
	"fmt"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/flight"
	"bitmapindex/internal/invariant"
	"bitmapindex/internal/profile"
	"bitmapindex/internal/telemetry"
)

// Op is a selection predicate comparison operator. The paper's query class
// is Q = {A op v : op in {<, <=, >, >=, =, !=}, 0 <= v < C}.
type Op uint8

const (
	Lt Op = iota // A < v
	Le           // A <= v
	Gt           // A > v
	Ge           // A >= v
	Eq           // A = v
	Ne           // A != v
)

// AllOps lists every operator, in a fixed order, for exhaustive sweeps.
var AllOps = []Op{Lt, Le, Gt, Ge, Eq, Ne}

// String returns the SQL-ish spelling of the operator.
func (op Op) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// IsRange reports whether the operator is a range operator (<, <=, >, >=)
// as opposed to an equality operator (=, !=).
func (op Op) IsRange() bool { return op <= Ge }

// ParseOp parses an operator spelling ("<", "<=", ">", ">=", "=", "==",
// "!=", "<>").
func ParseOp(s string) (Op, error) {
	switch s {
	case "<":
		return Lt, nil
	case "<=":
		return Le, nil
	case ">":
		return Gt, nil
	case ">=":
		return Ge, nil
	case "=", "==":
		return Eq, nil
	case "!=", "<>":
		return Ne, nil
	}
	return 0, fmt.Errorf("core: unknown operator %q", s)
}

// Matches reports whether value a satisfies the predicate (a op v). It is
// the scalar reference semantics every evaluator must agree with.
func (op Op) Matches(a, v uint64) bool {
	switch op {
	case Lt:
		return a < v
	case Le:
		return a <= v
	case Gt:
		return a > v
	case Ge:
		return a >= v
	case Eq:
		return a == v
	case Ne:
		return a != v
	default:
		panic("core: invalid op")
	}
}

// Stats accumulates the paper's two cost measures while evaluating queries:
// the number of bitmap scans (distinct stored bitmaps read, the I/O metric)
// and the number of bitmap operations by kind (the CPU metric). A single
// Stats may be reused across queries; the counters only ever accumulate.
type Stats struct {
	Scans int // distinct stored bitmaps read
	Ands  int
	Ors   int
	Xors  int
	Nots  int
}

// Ops returns the total number of bitmap operations.
func (s *Stats) Ops() int { return s.Ands + s.Ors + s.Xors + s.Nots }

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Scans += o.Scans
	s.Ands += o.Ands
	s.Ors += o.Ors
	s.Xors += o.Xors
	s.Nots += o.Nots
}

// EvalOptions tunes a single evaluation.
type EvalOptions struct {
	// Stats, when non-nil, accumulates scan and operation counts.
	Stats *Stats
	// Buffered, when non-nil, reports whether stored bitmap slot j of
	// component i is resident in the bitmap buffer; reads of buffered
	// bitmaps do not count as scans (paper Section 10).
	Buffered func(comp, slot int) bool
	// Fetch, when non-nil, overrides in-memory bitmap access: the
	// evaluator obtains stored bitmap slot j of component i by calling
	// Fetch(i, j). Required for shell indexes (NewShell); the returned
	// vector must have Rows() bits and must not be mutated after Fetch
	// returns. Fetch is called at most once per distinct stored bitmap per
	// query, sequentially on the caller's goroutine, before any combining
	// starts — so it need not be safe for concurrent use, even under
	// SegmentedEval. When Buffered is consulted for a bitmap, the probe
	// directly precedes that bitmap's Fetch.
	Fetch func(comp, slot int) *bitvec.Vector
	// Trace, when non-nil, accumulates per-phase wall-clock durations
	// (bitmap fetch, boolean ops, ...) for this evaluation.
	Trace *telemetry.Trace
}

// Eval evaluates the selection predicate (A op v) and returns the bitmap of
// qualifying records. For range-encoded indexes it uses RangeEval-Opt; for
// equality- and interval-encoded indexes their own evaluators. v may be any
// uint64; values >= Cardinality are handled by their natural semantics.
//
// Eval is EvalDirect plus instrumentation: every call also publishes its
// scan and operation counts plus wall-clock latency to the process-wide
// telemetry registry (telemetry.Default) and the flight recorder, so the
// paper's two cost measures are observable without threading a Stats
// through every caller.
func (ix *Index) Eval(op Op, v uint64, opt *EvalOptions) *bitvec.Vector {
	return ix.instrumented(op, v, opt, evalPlan(ix.enc), func(o *EvalOptions) *bitvec.Vector {
		p := ix.compile(op, v)
		res, srcs := ix.runSerial(p, o)
		if invariant.Enabled && ix.enc == RangeEncoded {
			ix.naiveCrossCheck(op, v, p, srcs, o.Fetch, res)
		}
		return res
	})
}

// EvalDirect evaluates (A op v) exactly like Eval — same algorithm, result,
// Stats and trace phases — but publishes nothing to the process-wide
// telemetry registry or flight recorder. Cost probes and experiments that
// sweep thousands of predicates use it so their evaluations stay out of
// the served query metrics.
func (ix *Index) EvalDirect(op Op, v uint64, opt *EvalOptions) *bitvec.Vector {
	res, _ := ix.runSerial(ix.compile(op, v), opt)
	return res
}

// instrumented runs eval under the query's pprof labels and publishes its
// cost — the Stats delta, wall-clock time and buffer-pool hits/misses — to
// the telemetry registry and the flight recorder, tagged plan.
func (ix *Index) instrumented(op Op, v uint64, opt *EvalOptions, plan string, eval func(o *EvalOptions) *bitvec.Vector) *bitvec.Vector {
	var o EvalOptions
	if opt != nil {
		o = *opt
	}
	var d Stats // this evaluation's cost alone
	o.Stats = &d
	hits0, misses0 := telemetry.CacheHitsTotal.Value(), telemetry.CacheMissesTotal.Value()
	t0 := time.Now()
	var res *bitvec.Vector
	profile.Do(o.Trace.ID(), "eval", func() { res = eval(&o) })
	if invariant.Enabled {
		invariant.TailZero(res.Words(), res.Len())
	}
	elapsed := time.Since(t0)
	if opt != nil && opt.Stats != nil {
		opt.Stats.Add(d)
	}
	telemetry.RecordEval(d.Scans, d.Ands, d.Ors, d.Xors, d.Nots, elapsed, o.Trace)
	frec := flight.Record{
		TraceID: o.Trace.ID(), Plan: plan, Op: op.String(), Value: v,
		Total: elapsed, Rows: -1,
		Scans: d.Scans, Ands: d.Ands, Ors: d.Ors, Xors: d.Xors, Nots: d.Nots,
		CacheHits:   telemetry.CacheHitsTotal.Value() - hits0,
		CacheMisses: telemetry.CacheMissesTotal.Value() - misses0,
	}
	flight.Default().Add(&frec, o.Trace)
	return res
}

// naiveCrossCheck (bixdebug only) checks the paper's Section 3 claim on a
// range-encoded index: RangeEval agrees with RangeEval-Opt on every
// predicate and, for range operators, never performs fewer bitmap
// operations. (Equality operators are excluded from the op comparison: on
// a nullable index the single-bitmap rewrite pays one extra AND with B_nn
// that the B_EQ chain does not.) RangeEval reads the bitmaps RangeEval-Opt
// already resolved from srcs, so fetch still runs at most once per
// distinct bitmap of the query.
func (ix *Index) naiveCrossCheck(op Op, v uint64, p *segProgram, srcs []*bitvec.Vector, fetch func(comp, slot int) *bitvec.Vector, res *bitvec.Vector) {
	have := make(map[segRef]*bitvec.Vector, len(p.refs))
	for i, rf := range p.refs {
		have[rf] = srcs[i]
	}
	var ns Stats
	nres := ix.EvalRangeNaive(op, v, &EvalOptions{Stats: &ns, Fetch: func(comp, slot int) *bitvec.Vector {
		if bv, ok := have[segRef{comp: comp, slot: slot}]; ok {
			return bv
		}
		if fetch != nil {
			return fetch(comp, slot)
		}
		return ix.comps[comp][slot]
	}})
	invariant.Assert(nres.Equal(res), "core: RangeEval disagrees with RangeEval-Opt")
	if op.IsRange() {
		invariant.OptNoWorse(p.ops.Ops(), ns.Ops(), "core: RangeEval-Opt vs RangeEval, op "+op.String())
	}
}

// Flight-recorder plan tags of the core evaluators. The engine's plan
// methods and the HTTP layer use their own tags; records from nested
// layers share the same trace ID, so a /debug/queries reader can join an
// engine-level record to the per-index evaluations beneath it.
const (
	planEvalRange     = "eval-range"
	planEvalEquality  = "eval-equality"
	planEvalInterval  = "eval-interval"
	planEvalSegmented = "eval-segmented"
)

// evalPlan returns Eval's flight-recorder plan tag for an encoding.
func evalPlan(enc Encoding) string {
	switch enc {
	case RangeEncoded:
		return planEvalRange
	case EqualityEncoded:
		return planEvalEquality
	default:
		return planEvalInterval
	}
}

// EvalBetween evaluates the two-sided range predicate (lo <= A <= hi) as
// LE(hi) AND NOT LE(lo-1), two one-sided evaluations regardless of
// encoding (at most 2(2n-1) scans on a range-encoded index). An empty
// interval (lo > hi) matches nothing.
func (ix *Index) EvalBetween(lo, hi uint64, opt *EvalOptions) *bitvec.Vector {
	if lo > hi {
		return bitvec.New(ix.rows)
	}
	upper := ix.Eval(Le, hi, opt)
	if lo == 0 {
		return upper
	}
	lower := ix.Eval(Le, lo-1, opt)
	upper.AndNot(lower)
	return upper
}
