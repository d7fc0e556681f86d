package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/profile"
	"bitmapindex/internal/telemetry"
)

// segeval.go — the program runner, the one execution path of every
// evaluation.
//
// The row space is partitioned into fixed-width segments of 2^SegBits bits
// (word-aligned by construction), and the compiled segProgram (segprog.go)
// is replayed segment by segment using the range-restricted bitvec
// kernels, so one segment's working set stays cache-resident. Eval runs
// the segments on the calling goroutine; SegmentedEval also hands them to
// a pool of helpers. Each goroutine writes only its own segments' windows
// of the shared result vector, so stitching is free: the windows are
// disjoint and the final vector is complete once every segment is
// processed.

// DefaultSegBits is log2 of the default segment width in bits: 2^18 bits
// = 32 KiB per bitmap per segment, small enough that one segment's working
// set (result + a few registers + the referenced bitmap windows) stays
// cache-resident, large enough that per-segment dispatch overhead is noise.
const DefaultSegBits = 18

// MinSegBits is the smallest accepted segment width (one 64-bit word).
const MinSegBits = 6

// SegConfig tunes segmented evaluation (SegmentedEval, EvalBatch).
type SegConfig struct {
	// SegBits is log2 of the segment width in bits. 0 selects
	// DefaultSegBits; values below MinSegBits are clamped up.
	SegBits int
	// Workers bounds the number of goroutines combining segments,
	// including the calling goroutine. <= 0 selects GOMAXPROCS. The
	// effective count never exceeds the number of segments or the pool
	// size.
	Workers int
}

func (cfg SegConfig) normalized() SegConfig {
	if cfg.SegBits == 0 {
		cfg.SegBits = DefaultSegBits
	}
	if cfg.SegBits < MinSegBits {
		cfg.SegBits = MinSegBits
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// segPool is the process-wide segment worker pool: GOMAXPROCS goroutines
// started on first use and reused across queries. Submission is
// non-blocking — when every pool worker is busy (e.g. with another
// query's segments) the submitting query just runs with fewer helpers,
// because the calling goroutine always drains segments itself. That makes
// concurrent segmented queries degrade gracefully instead of deadlocking
// or over-subscribing the CPU.
var segPool struct {
	once sync.Once
	jobs chan func()
}

func segPoolStart() {
	n := runtime.GOMAXPROCS(0)
	segPool.jobs = make(chan func())
	telemetry.SegmentWorkers.Set(int64(n))
	for i := 0; i < n; i++ {
		go segPoolWorker()
	}
}

// segPoolWorker drains the shared job channel for the life of the
// process. The pool is sized once to GOMAXPROCS and never torn down, so
// the range below intentionally has no shutdown signal.
//
//bix:daemon (process-wide segment worker pool, lives until exit)
func segPoolWorker() {
	for fn := range segPool.jobs {
		fn()
	}
}

// segPoolSubmit hands fn to an idle pool worker, reporting false when none
// is idle (the jobs channel is unbuffered, so the send succeeds only if a
// worker is blocked receiving).
func segPoolSubmit(fn func()) bool {
	segPool.once.Do(segPoolStart)
	select {
	case segPool.jobs <- fn:
		return true
	default:
		return false
	}
}

// segRegSet is one worker's scratch register file, recycled across
// queries through segRegPool: for a fixed row count the register vectors
// are the dominant per-drain allocation (nregs × rows/8 bytes per worker
// per query), and reusing them makes steady-state segmented evaluation
// allocation-free outside the result vector itself.
//
// vecs owns the scratch vectors; regs is the view handed to runSegment,
// in which register 0 aliases the query's shared result vector. Stale
// scratch content is safe by construction: a segProgram initializes every
// register (sLoad/sZero/sOnes) inside the segment window before combining
// into it.
type segRegSet struct {
	rows int
	vecs []*bitvec.Vector // owned scratch (registers 1..), reused across queries
	regs []*bitvec.Vector // register view; regs[0] aliases the shared result
}

var segRegPool sync.Pool

// getSegRegs checks a register set out of the pool, rebuilding it when the
// row count changed or the program needs more registers than last time.
// The query's result vector shared becomes register 0.
func getSegRegs(rows, nregs int, shared *bitvec.Vector) *segRegSet {
	rs, ok := segRegPool.Get().(*segRegSet)
	if !ok || rs.rows != rows {
		rs = &segRegSet{rows: rows}
	}
	if cap(rs.regs) < nregs {
		rs.regs = make([]*bitvec.Vector, nregs)
	}
	rs.regs = rs.regs[:nregs]
	rs.regs[0] = shared
	for len(rs.vecs) < nregs-1 {
		rs.vecs = append(rs.vecs, bitvec.New(rows))
	}
	copy(rs.regs[1:], rs.vecs)
	return rs
}

// putSegRegs returns a register set to the pool, dropping the aliased
// result reference so the pool never retains a caller's result vector.
func putSegRegs(rs *segRegSet) {
	if rs == nil {
		return
	}
	for i := range rs.regs {
		rs.regs[i] = nil
	}
	segRegPool.Put(rs)
}

// SegmentedEval evaluates (A op v) exactly like Eval — same result, Stats
// and Fetch contract — but combines segments on up to cfg.Workers
// goroutines: the caller plus helpers from a process-wide pool. The
// fetched bitmaps are only read concurrently. Each call counts once in
// bix_segment_eval_total and lands a flight record tagged eval-segmented.
func (ix *Index) SegmentedEval(op Op, v uint64, opt *EvalOptions, cfg SegConfig) *bitvec.Vector {
	return ix.instrumented(op, v, opt, planEvalSegmented, func(o *EvalOptions) *bitvec.Vector {
		telemetry.SegmentEvalTotal.Inc()
		res, _ := ix.run(ix.compile(op, v), o, cfg.normalized(), telemetry.PhaseSegments)
		return res
	})
}

// serialConfig runs a program on the calling goroutine alone, at the
// default segment width.
var serialConfig = SegConfig{SegBits: DefaultSegBits, Workers: 1}

// runSerial runs p on the calling goroutine: the path of Eval, EvalDirect
// and EvalRangeNaive. Segment combination time lands in the trace's
// bool_ops phase.
func (ix *Index) runSerial(p *segProgram, opt *EvalOptions) (res *bitvec.Vector, srcs []*bitvec.Vector) {
	return ix.run(p, opt, serialConfig, telemetry.PhaseBoolOps)
}

// run executes a compiled program. It first resolves every referenced
// bitmap, sequentially on the calling goroutine and once each (the Fetch
// contract), charging a scan for every stored bitmap that is not
// buffered. It then combines the segments on the calling goroutine plus
// up to cfg.Workers-1 pool helpers, timing each segment into phase, and
// finally adds the program's operation counts to opt.Stats. srcs are the
// resolved inputs, aligned with p.refs.
func (ix *Index) run(p *segProgram, opt *EvalOptions, cfg SegConfig, phase telemetry.Phase) (res *bitvec.Vector, srcs []*bitvec.Vector) {
	var o EvalOptions
	if opt != nil {
		o = *opt
	}
	srcs = make([]*bitvec.Vector, len(p.refs))
	for i, rf := range p.refs {
		if rf.comp < 0 {
			srcs[i] = ix.nn
			continue
		}
		if o.Stats != nil && (o.Buffered == nil || !o.Buffered(rf.comp, rf.slot)) {
			o.Stats.Scans++
		}
		sp := o.Trace.Start(telemetry.PhaseFetch)
		if o.Fetch != nil {
			srcs[i] = o.Fetch(rf.comp, rf.slot)
		} else {
			srcs[i] = ix.comps[rf.comp][rf.slot]
		}
		sp.End()
	}

	nwords := (ix.rows + 63) / 64
	segWords := 1 << (cfg.SegBits - 6)
	nseg := (nwords + segWords - 1) / segWords
	res = bitvec.New(ix.rows)
	var next atomic.Int64
	drain := func() {
		// Worker-local scratch registers, checked out of segRegPool on the
		// first segment this goroutine actually claims and returned at
		// exit. Register 0 aliases the shared result: goroutines write
		// disjoint word windows, so no synchronization is needed beyond
		// the final wg.Wait.
		var rs *segRegSet
		defer func() { putSegRegs(rs) }()
		for {
			s := int(next.Add(1)) - 1
			if s >= nseg {
				break
			}
			if rs == nil {
				rs = getSegRegs(ix.rows, p.nregs, res)
			}
			lo := s * segWords
			hi := min(lo+segWords, nwords)
			ts := time.Now()
			runSegment(p, srcs, rs.regs, lo, hi)
			o.Trace.Add(phase, time.Since(ts))
		}
	}

	// Pool helpers combine segments on this query's behalf from a foreign
	// goroutine; the pprof labels are what tie their CPU samples back to
	// the query (phase "segment" vs the caller's own "eval").
	qid := o.Trace.ID()
	var wg sync.WaitGroup
	for i := 1; i < min(cfg.Workers, nseg); i++ {
		wg.Add(1)
		if !segPoolSubmit(func() { defer wg.Done(); profile.Do(qid, "segment", drain) }) {
			wg.Done()
			break // pool saturated; the caller still drains everything
		}
	}
	drain()
	wg.Wait()

	if o.Stats != nil {
		o.Stats.Add(p.ops) // p.ops.Scans is 0: scans were charged above
	}
	return res, srcs
}

// runSegment replays the compiled program over the word window [lo, hi).
//
//bix:hotpath
func runSegment(p *segProgram, srcs, regs []*bitvec.Vector, lo, hi int) {
	for i := range p.instrs {
		in := &p.instrs[i]
		dst := regs[in.dst]
		var src *bitvec.Vector
		if in.src.ref >= 0 {
			src = srcs[in.src.ref]
		} else if in.src.reg >= 0 {
			src = regs[in.src.reg]
		}
		switch in.kind {
		case sLoad:
			dst.CopyRange(src, lo, hi)
		case sZero:
			dst.ZeroRange(lo, hi)
		case sOnes:
			dst.OnesRange(lo, hi)
		case sAnd:
			dst.AndRange(src, lo, hi)
		case sOr:
			dst.OrRange(src, lo, hi)
		case sXor:
			dst.XorRange(src, lo, hi)
		case sAndNot:
			dst.AndNotRange(src, lo, hi)
		case sNot:
			dst.NotRange(lo, hi)
		}
	}
}
