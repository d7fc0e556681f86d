package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicField enforces atomicity discipline on struct fields, module-wide.
// Two rules:
//
//  1. Mixed access: a field whose address is ever passed to a sync/atomic
//     function (atomic.AddInt64(&s.n, 1)) is an atomic field everywhere.
//     A plain read or write of it at a point where no mutex is definitely
//     held is a data race the race detector only catches if the schedule
//     cooperates; the analyzer catches it statically. The index of atomic
//     fields spans every package of the Batch, so a field published
//     atomically in one package and read plainly in another is still
//     caught. Functions annotated //bix:lockheld are trusted (their
//     callers hold the lock); any definitely-held mutex excuses the
//     access, since the module convention is one mutex per field.
//
//  2. Value copy: a field of a sync/atomic type (atomic.Int64,
//     atomic.Uint64, ...) must only be used through its methods or have
//     its address taken. Copying the value (x := r.cursor) copies the
//     hidden noCopy guard and, worse, snapshots the value in a way that
//     looks atomic but is not tied to the original. This is what gates
//     the flight recorder's cursor/threshold and the telemetry registry.
//
// Rule 1 analyzes function bodies with the same must-held dataflow the
// lock analyzers use; function literals are skipped (best-effort; the
// race CI gate backstops them).
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "a field accessed via sync/atomic anywhere must never be plainly read or written without a lock held",
	Run:  runAtomicField,
}

// atomicFieldIndex is the module-wide index behind rule 1: fields whose
// address reaches a sync/atomic call, with the atomic function name and
// the set of selector expressions that are legitimate atomic uses.
type atomicFieldIndex struct {
	fields map[types.Object]string    // field -> atomic function name ("AddInt64")
	uses   map[*ast.SelectorExpr]bool // selectors consumed by an atomic call (not plain accesses)
}

// batchAtomicIndex builds (once per Batch) the atomic-field index.
func batchAtomicIndex(b *Batch) *atomicFieldIndex {
	if b.atomicIndex != nil {
		return b.atomicIndex
	}
	idx := &atomicFieldIndex{
		fields: make(map[types.Object]string),
		uses:   make(map[*ast.SelectorExpr]bool),
	}
	b.atomicIndex = idx
	for _, pkg := range b.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || u.Op.String() != "&" {
						continue
					}
					sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
						idx.fields[s.Obj()] = fn.Name()
						idx.uses[sel] = true
					}
				}
				return true
			})
		}
	}
	return idx
}

func runAtomicField(pass *Pass) {
	idx := batchAtomicIndex(pass.Batch)
	for _, fn := range funcDecls(pass.Pkg) {
		// Rule 2 is purely syntactic and applies everywhere, including
		// lockheld-annotated functions: a copy is wrong under any lock.
		checkAtomicCopies(pass, fn)
		if len(idx.fields) == 0 || hasDirective(fn.Doc, "lockheld") {
			continue
		}
		checkMixedAccess(pass, idx, fn)
	}
}

// checkMixedAccess re-walks fn's CFG with the must-held lock state and
// reports plain accesses of indexed fields at lock-free points.
func checkMixedAccess(pass *Pass, idx *atomicFieldIndex, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	cfg := BuildCFG(fn.Name.Name, fn.Body)
	facts := SolveForward(cfg, FlowProblem{
		Entry: NewStringSet(),
		Transfer: func(b *Block, in FlowFact) FlowFact {
			s := in.(StringSet)
			for _, n := range b.Nodes {
				s = lockTransferKey(info, n, s)
			}
			return s
		},
		Join: IntersectSets,
	})
	reported := make(map[types.Object]bool) // one finding per field per function
	for _, b := range cfg.Blocks {
		in, ok := facts[b]
		if !ok {
			continue
		}
		s := in.(StringSet)
		for _, n := range b.Nodes {
			held := s
			inspectShallow(n, func(m ast.Node) bool {
				sel, ok := m.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				sl, ok := info.Selections[sel]
				if !ok || sl.Kind() != types.FieldVal {
					return true
				}
				atomicFn, ok := idx.fields[sl.Obj()]
				if !ok || idx.uses[sel] {
					return true
				}
				if len(held) > 0 || reported[sl.Obj()] {
					return true
				}
				reported[sl.Obj()] = true
				pass.Reportf(sel.Pos(),
					"%s reads/writes %s plainly, but the field is accessed with sync/atomic (atomic.%s) elsewhere; use the atomic API here or hold the guarding mutex on every path",
					fn.Name.Name, sel.Sel.Name, atomicFn)
				return true
			})
			s = lockTransferKey(info, n, s)
		}
	}
}

// checkAtomicCopies flags value copies of sync/atomic-typed fields.
func checkAtomicCopies(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	// Parent-tracking walk: a selector of atomic type is fine as a method
	// receiver (r.next.Add) or under & (legacy API bridging); anything
	// else copies the value.
	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sl, ok := info.Selections[sel]
		if !ok || sl.Kind() != types.FieldVal {
			return true
		}
		if !isAtomicType(info.Types[sel].Type) {
			return true
		}
		if len(stack) >= 2 {
			switch p := stack[len(stack)-2].(type) {
			case *ast.SelectorExpr:
				if p.X == sel {
					return true // receiver of a method call / deeper selection
				}
			case *ast.UnaryExpr:
				if p.Op.String() == "&" && p.X == sel {
					return true
				}
			}
		}
		pass.Reportf(sel.Pos(),
			"%s copies atomic field %s (%s); atomic values must be used through their methods on the original, never copied",
			fn.Name.Name, sel.Sel.Name, info.Types[sel].Type.String())
		return true
	})
}

// isAtomicType reports whether t is a named type from sync/atomic
// (atomic.Int64, atomic.Uint64, atomic.Bool, atomic.Value, ...).
func isAtomicType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic" && !strings.HasPrefix(named.Obj().Name(), "no")
}
