package core

import "fmt"

// segprog.go — compiled bitmap programs, the single implementation of
// predicate evaluation.
//
// A segProgram is the bitmap-combination plan of one selection predicate:
// a straight-line register program over the index's stored bitmaps that
// the runner (segeval.go) replays once per row segment using the
// range-restricted bitvec kernels. Each evaluation algorithm is written
// once, as a compiler next to its documentation: RangeEval-Opt and the
// RangeEval baseline in rangeeval.go, the equality-encoding evaluator in
// eqeval.go, the interval-encoding evaluator in intervaleval.go.
//
// Accounting is fixed at compile time. Every counted bitmap operation is
// one counted instruction (segProgram.ops), and every distinct stored
// bitmap the algorithm reads is one entry of segProgram.refs, charged as a
// scan when the runner resolves it.

// Instruction kinds. sLoad/sZero/sOnes initialize a register and are not
// counted (they copy or fill, they do not combine); the rest are the
// paper's counted bitmap operations.
const (
	sLoad   uint8 = iota // reg[dst] = src
	sZero                // reg[dst] = 0
	sOnes                // reg[dst] = all ones
	sAnd                 // reg[dst] &= src
	sOr                  // reg[dst] |= src
	sXor                 // reg[dst] ^= src
	sAndNot              // reg[dst] &^= src
	sNot                 // reg[dst] = ^reg[dst]
)

// segOperand is an instruction source: a fetched bitmap (ref >= 0, an
// index into segProgram.refs) or a register (reg >= 0). Exactly one is
// set; the other is -1.
type segOperand struct {
	ref int
	reg int
}

func noOperand() segOperand     { return segOperand{ref: -1, reg: -1} }
func refOp(i int) segOperand    { return segOperand{ref: i, reg: -1} }
func regOp(r segreg) segOperand { return segOperand{ref: -1, reg: int(r)} }

type segInstr struct {
	kind uint8
	dst  int // destination register
	src  segOperand
}

// segRef identifies one input bitmap of the program. comp == -1 is the
// non-null bitmap B_nn, which is always in memory and never counted as a
// scan (the paper's scan counts are over the value bitmaps).
type segRef struct{ comp, slot int }

// segProgram is one compiled predicate. The result is always register 0
// (every compiler allocates the result register first; seal asserts it).
type segProgram struct {
	instrs []segInstr
	nregs  int
	refs   []segRef
	ops    Stats // logical operation counts; Scans stays 0 (charged by the runner)
}

// segreg is a virtual register index within a segProgram.
type segreg int

// progBuilder compiles a predicate into a segProgram. Its methods read
// like operations on whole bitmaps, so each compiler reads like the
// algorithm it implements.
type progBuilder struct {
	ix     *Index
	p      *segProgram
	refIdx map[segRef]int
	free   []segreg
}

func newProgBuilder(ix *Index) *progBuilder {
	return &progBuilder{ix: ix, p: &segProgram{}, refIdx: make(map[segRef]int, 8)}
}

// fetch interns the stored bitmap (comp, slot) and returns it as an
// operand. Reading the same bitmap twice yields the same ref, so distinct
// refs are exactly the distinct bitmaps the query reads.
func (b *progBuilder) fetch(comp, slot int) segOperand {
	return b.fetchRef(segRef{comp: comp, slot: slot})
}

// nnOp returns the non-null bitmap as an operand (not a scan).
func (b *progBuilder) nnOp() segOperand {
	return b.fetchRef(segRef{comp: -1, slot: 0})
}

func (b *progBuilder) fetchRef(key segRef) segOperand {
	i, ok := b.refIdx[key]
	if !ok {
		i = len(b.p.refs)
		b.refIdx[key] = i
		b.p.refs = append(b.p.refs, key)
	}
	return refOp(i)
}

func (b *progBuilder) alloc() segreg {
	if n := len(b.free); n > 0 {
		r := b.free[n-1]
		b.free = b.free[:n-1]
		return r
	}
	r := segreg(b.p.nregs)
	b.p.nregs++
	return r
}

// release returns a dead temporary to the free list so register count (and
// with it per-worker scratch memory) stays bounded by live values, not by
// component count.
func (b *progBuilder) release(r segreg) { b.free = append(b.free, r) }

// emit appends one instruction and counts it in the paper's operation
// inventory (AND, OR, XOR, NOT): andNot counts as one AND plus one NOT;
// load/zero/ones are uncounted.
func (b *progBuilder) emit(kind uint8, dst segreg, src segOperand) {
	b.p.instrs = append(b.p.instrs, segInstr{kind: kind, dst: int(dst), src: src})
	switch kind {
	case sAnd:
		b.p.ops.Ands++
	case sOr:
		b.p.ops.Ors++
	case sXor:
		b.p.ops.Xors++
	case sNot:
		b.p.ops.Nots++
	case sAndNot:
		b.p.ops.Ands++
		b.p.ops.Nots++
	}
}

func (b *progBuilder) cloneInto(src segOperand) segreg {
	r := b.alloc()
	b.emit(sLoad, r, src)
	return r
}

func (b *progBuilder) zeros() segreg {
	r := b.alloc()
	b.emit(sZero, r, noOperand())
	return r
}

func (b *progBuilder) ones() segreg {
	r := b.alloc()
	b.emit(sOnes, r, noOperand())
	return r
}

// nonNull returns a fresh copy of B_nn.
func (b *progBuilder) nonNull() segreg { return b.cloneInto(b.nnOp()) }

func (b *progBuilder) and(dst segreg, src segOperand)    { b.emit(sAnd, dst, src) }
func (b *progBuilder) or(dst segreg, src segOperand)     { b.emit(sOr, dst, src) }
func (b *progBuilder) xor(dst segreg, src segOperand)    { b.emit(sXor, dst, src) }
func (b *progBuilder) andNot(dst segreg, src segOperand) { b.emit(sAndNot, dst, src) }
func (b *progBuilder) not(dst segreg)                    { b.emit(sNot, dst, noOperand()) }

// maskNN AND-masks a result with B_nn, on nullable indexes only: results
// built by complement may otherwise contain null rows.
func (b *progBuilder) maskNN(r segreg) {
	if b.ix.hasNulls {
		b.and(r, b.nnOp())
	}
}

// seal asserts the compiler left the result in register 0, which the
// runner aliases to the (shared) result vector.
func (b *progBuilder) seal(r segreg) *segProgram {
	if r != 0 {
		panic(fmt.Sprintf("core: segment program result in register %d, want 0", r))
	}
	return b.p
}

// trivial compiles predicate constants outside [0, C): the answer depends
// on no stored bitmap and costs no operation. ok is false when the
// predicate needs real evaluation.
func (b *progBuilder) trivial(op Op, v uint64) (p *segProgram, ok bool) {
	if v < b.ix.card {
		return nil, false
	}
	switch op {
	case Lt, Le, Ne:
		return b.seal(b.nonNull()), true
	default: // Gt, Ge, Eq
		return b.seal(b.zeros()), true
	}
}

// compile builds the program for (A op v) with the index's own evaluator:
// RangeEval-Opt, the equality evaluator or the interval evaluator.
func (ix *Index) compile(op Op, v uint64) *segProgram {
	b := newProgBuilder(ix)
	if p, ok := b.trivial(op, v); ok {
		return p
	}
	switch ix.enc {
	case RangeEncoded:
		return b.seal(b.compileRangeOpt(op, v))
	case EqualityEncoded:
		return b.seal(b.compileEquality(op, v))
	case IntervalEncoded:
		return b.seal(b.compileInterval(op, v))
	default:
		panic("core: unknown encoding")
	}
}
