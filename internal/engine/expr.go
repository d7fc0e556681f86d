package engine

import (
	"fmt"
	"strings"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
)

// Expr is a boolean selection expression over column predicates. The
// efficient hardware support for bitmap AND/OR/NOT is the paper's core
// motivation for bitmap indexes; expressions compose predicate bitmaps
// with exactly those operations.
type Expr interface {
	// String renders the expression as SQL-ish text.
	String() string
	// evalScan tests one row directly against the columns.
	evalScan(r *Relation, row int) bool
	// evalBitmap evaluates via bitmap indexes, accumulating index bytes.
	evalBitmap(r *Relation, bytes *int64) (*bitvec.Vector, error)
}

// Leaf lifts a predicate into an expression.
func Leaf(p Pred) Expr { return leafExpr{p} }

// All is the conjunction of the given expressions (true when empty).
func All(es ...Expr) Expr { return naryExpr{op: "AND", es: es} }

// Any is the disjunction of the given expressions (false when empty).
func Any(es ...Expr) Expr { return naryExpr{op: "OR", es: es} }

// Not negates an expression; null rows still never match.
func Not(e Expr) Expr { return notExpr{e} }

type leafExpr struct{ p Pred }

func (l leafExpr) String() string { return l.p.String() }

func (l leafExpr) evalScan(r *Relation, row int) bool {
	c, _ := r.Column(l.p.Col)
	return l.p.matches(c, row)
}

func (l leafExpr) evalBitmap(r *Relation, bytes *int64) (*bitvec.Vector, error) {
	c, err := r.Column(l.p.Col)
	if err != nil {
		return nil, err
	}
	if c.bitmap == nil {
		return nil, fmt.Errorf("engine: column %q has no bitmap index", l.p.Col)
	}
	rop, rank, all, none := c.dict.Translate(l.p.Op, l.p.Val)
	switch {
	case none:
		return bitvec.New(r.Rows()), nil
	case all:
		return bitvec.NewOnes(r.Rows()), nil
	}
	var st core.Stats
	res := c.bitmap.Eval(rop, rank, &core.EvalOptions{Stats: &st})
	*bytes += int64(st.Scans) * int64((r.Rows()+7)/8)
	return res, nil
}

type naryExpr struct {
	op string
	es []Expr
}

func (n naryExpr) String() string {
	if len(n.es) == 0 {
		if n.op == "AND" {
			return "TRUE"
		}
		return "FALSE"
	}
	parts := make([]string, len(n.es))
	for i, e := range n.es {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " "+n.op+" ") + ")"
}

func (n naryExpr) evalScan(r *Relation, row int) bool {
	if n.op == "AND" {
		for _, e := range n.es {
			if !e.evalScan(r, row) {
				return false
			}
		}
		return true
	}
	for _, e := range n.es {
		if e.evalScan(r, row) {
			return true
		}
	}
	return false
}

func (n naryExpr) evalBitmap(r *Relation, bytes *int64) (*bitvec.Vector, error) {
	var acc *bitvec.Vector
	for _, e := range n.es {
		b, err := e.evalBitmap(r, bytes)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = b
			continue
		}
		if n.op == "AND" {
			acc.And(b)
		} else {
			acc.Or(b)
		}
	}
	if acc == nil {
		if n.op == "AND" {
			return bitvec.NewOnes(r.Rows()), nil
		}
		return bitvec.New(r.Rows()), nil
	}
	return acc, nil
}

type notExpr struct{ e Expr }

func (n notExpr) String() string { return "NOT " + n.e.String() }

func (n notExpr) evalScan(r *Relation, row int) bool { return !n.e.evalScan(r, row) }

func (n notExpr) evalBitmap(r *Relation, bytes *int64) (*bitvec.Vector, error) {
	b, err := n.e.evalBitmap(r, bytes)
	if err != nil {
		return nil, err
	}
	out := b.Clone()
	out.Not()
	return out, nil
}

// SelectExpr evaluates a boolean expression over the relation. FullScan
// tests each row; BitmapMerge composes predicate bitmaps with AND/OR/NOT
// (every referenced column needs a bitmap index). Other methods are not
// applicable to general expressions.
func (r *Relation) SelectExpr(e Expr, m Method) (*bitvec.Vector, Cost, error) {
	switch m {
	case FullScan:
		out := bitvec.New(r.Rows())
		for row := 0; row < r.Rows(); row++ {
			if e.evalScan(r, row) {
				out.Set(row)
			}
		}
		return out, Cost{Method: FullScan, BytesRead: int64(r.Rows()) * int64(r.RowBytes()), Rows: out.Count()}, nil
	case BitmapMerge:
		var bytes int64
		out, err := e.evalBitmap(r, &bytes)
		if err != nil {
			return nil, Cost{}, err
		}
		return out, Cost{Method: BitmapMerge, BytesRead: bytes, Rows: out.Count()}, nil
	default:
		return nil, Cost{}, fmt.Errorf("engine: method %v cannot evaluate general expressions", m)
	}
}
