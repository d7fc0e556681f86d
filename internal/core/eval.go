package core

import (
	"fmt"

	"bitmapindex/internal/bitvec"
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
	// bitmaps do not count as scans (paper Section 10). The evaluator
	// probes it exactly once per distinct stored bitmap the query
	// references, whether or not Stats is set, so a probe can count the
	// query's buffer hits and misses.
	Buffered func(comp, slot int) bool
	// Fetch, when non-nil, overrides in-memory bitmap access: the
	// evaluator obtains stored bitmap slot j of component i by calling
	// Fetch(i, j). Required for shell indexes (NewShell); the returned
	// vector must have Rows() bits and must not be mutated after Fetch
	// returns. Fetch is called at most once per distinct stored bitmap per
	// query, sequentially on the caller's goroutine, before any combining
	// starts — so it need not be safe for concurrent use, even under
	// SegmentedEval. When Buffered is set, its probe directly precedes
	// that bitmap's Fetch. Under bixdebug, RangeEval's cross-check also
	// fetches the bitmaps only RangeEval reads, without a probe.
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
// Eval runs under the query's pprof labels and publishes nothing: the
// code that owns a query's trace accounts the whole query once (bixstore
// serve's finishQuery feeds the flight recorder and the telemetry
// registry).
func (ix *Index) Eval(op Op, v uint64, opt *EvalOptions) *bitvec.Vector {
	res := bitvec.New(ix.rows)
	ix.EvalInto(op, v, res, opt)
	return res
}

// EvalInto evaluates (A op v) like Eval, writing the bitmap of qualifying
// records into dst, which must have Rows() bits. Every word of dst is
// overwritten, so its previous contents (a pooled vector's, say) do not
// matter.
func (ix *Index) EvalInto(op Op, v uint64, dst *bitvec.Vector, opt *EvalOptions) {
	if dst == nil {
		panic("core: EvalInto needs a destination")
	}
	ix.eval(op, v, dst, false, opt)
}

// Count evaluates (A op v) like Eval and returns the number of qualifying
// records, with the same Stats and Fetch contract. With dst nil it builds
// no result vector: the program runs segment by segment in a pooled
// scratch register, and each segment's result window is counted while it
// is still in cache. With dst non-nil (Rows() bits) Count also writes the
// bitmap there, as EvalInto does, and counts it the same way.
func (ix *Index) Count(op Op, v uint64, dst *bitvec.Vector, opt *EvalOptions) int {
	return ix.eval(op, v, dst, true, opt)
}

// eval compiles (A op v) and runs it serially into dst, counting the
// result when count is set (see run). Under bixdebug it checks the count
// against dst and, on a range-encoded index, cross-checks the answer
// against RangeEval.
func (ix *Index) eval(op Op, v uint64, dst *bitvec.Vector, count bool, opt *EvalOptions) (n int) {
	if dst != nil && dst.Len() != ix.rows {
		panic(fmt.Sprintf("core: destination has %d bits, index has %d rows", dst.Len(), ix.rows))
	}
	labeled(opt, func() {
		p := ix.compile(op, v)
		var srcs []*bitvec.Vector
		n, srcs = ix.runSerial(p, opt, dst, count)
		if !invariant.Enabled {
			return
		}
		if dst != nil && count {
			invariant.Assert(n == dst.Count(), "core: counted result differs from its vector's popcount")
		}
		if ix.enc == RangeEncoded {
			ix.naiveCrossCheck(op, v, p, srcs, opt, dst, n, count)
		}
	})
	return n
}

// labeled runs eval under the pprof labels of opt's trace (phase "eval").
func labeled(opt *EvalOptions, eval func()) {
	var id string
	if opt != nil {
		id = opt.Trace.ID()
	}
	profile.Do(id, "eval", eval)
}

// naiveCrossCheck (bixdebug only) checks the paper's Section 3 claim on a
// range-encoded index: RangeEval agrees with RangeEval-Opt on every
// predicate and, for range operators, never performs fewer bitmap
// operations. (Equality operators are excluded from the op comparison: on
// a nullable index the single-bitmap rewrite pays one extra AND with B_nn
// that the B_EQ chain does not.) RangeEval reads the bitmaps RangeEval-Opt
// already resolved from srcs, so fetch still runs at most once per
// distinct bitmap of the query. RangeEval-Opt's answer is res when it was
// written to a vector, and its count n when it was counted.
func (ix *Index) naiveCrossCheck(op Op, v uint64, p *segProgram, srcs []*bitvec.Vector, opt *EvalOptions, res *bitvec.Vector, n int, counted bool) {
	have := make(map[segRef]*bitvec.Vector, len(p.refs))
	for i, rf := range p.refs {
		have[rf] = srcs[i]
	}
	var ns Stats
	nres := ix.EvalRangeNaive(op, v, &EvalOptions{Stats: &ns, Fetch: func(comp, slot int) *bitvec.Vector {
		if bv, ok := have[segRef{comp: comp, slot: slot}]; ok {
			return bv
		}
		if opt != nil && opt.Fetch != nil {
			return opt.Fetch(comp, slot)
		}
		return ix.comps[comp][slot]
	}})
	invariant.Assert(res == nil || nres.Equal(res), "core: RangeEval disagrees with RangeEval-Opt")
	invariant.Assert(!counted || nres.Count() == n, "core: RangeEval's count disagrees with RangeEval-Opt's")
	if op.IsRange() {
		invariant.OptNoWorse(p.ops.Ops(), ns.Ops(), "core: RangeEval-Opt vs RangeEval, op "+op.String())
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
	lower := bitvec.Borrow(ix.rows)
	ix.EvalInto(Le, lo-1, lower, opt)
	upper.AndNot(lower)
	bitvec.Recycle(lower)
	return upper
}
