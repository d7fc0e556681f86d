package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// LockHeld enforces the repository's lock-annotation convention: a struct
// field commented `// guarded by <mu>` may only be touched at points where
// that mutex is held, or inside functions that declare the transferred
// obligation with `//bix:lockheld` (callers hold the lock — see
// mutable.rebuild).
//
// The check is path-sensitive: a must-held dataflow analysis over the CFG
// (cfg.go, dataflow.go) computes, at every access, the set of mutexes
// definitely held on all paths reaching it. That catches what the original
// same-body textual check could not — unlock-then-use, an early return
// releasing before a late access, a branch that locks only on one arm —
// while keeping its zero-false-positive behavior on the deferred-unlock
// idiom: `defer mu.Unlock()` releases at exit, after every access, so it
// never removes the lock from the in-flight set.
//
// Function literals inherit the lock state at their definition point
// (callbacks like bitvec's Ones visitor run synchronously under the
// caller's locks), except literals launched by a go statement, which start
// from an empty lock set: whatever the launcher holds is released (or
// contested) by the time the goroutine runs, so the goroutine must acquire
// the guard inside its own body. Composite literals do not count as field
// accesses, so constructors that build the struct before sharing it pass
// without annotation.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "fields marked `guarded by mu` need the mutex held at the access or a //bix:lockheld directive",
	Run:  runLockHeld,
}

var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

// guardComment extracts the mutex name from a field's comments, if any.
func guardComment(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

// lockTransfer applies the lock effects of one CFG node to a must-held
// set keyed by mutex short name. Defer and go statements contribute
// nothing: a deferred release runs at exit, and a goroutine's effects are
// concurrent, not sequential.
func lockTransfer(info *types.Info, n ast.Node, s StringSet) StringSet {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return s
	}
	inspectShallow(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if ref, ok := lockCall(info, call); ok {
				if ref.op.acquires() {
					s = s.With(ref.name)
				} else {
					name := ref.name
					s = s.Without(func(k string) bool { return k == name })
				}
			}
		}
		return true
	})
	return s
}

// topFuncLits returns the function literals in n that are not nested
// inside another literal of n.
func topFuncLits(n ast.Node) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			out = append(out, lit)
			return false
		}
		return true
	})
	return out
}

func runLockHeld(pass *Pass) {
	guarded := collectGuarded(pass.Pkg)
	if len(guarded) == 0 {
		return
	}
	for _, fn := range funcDecls(pass.Pkg) {
		if hasDirective(fn.Doc, "lockheld") {
			continue
		}
		c := &lockHeldChecker{pass: pass, guarded: guarded, fnName: fn.Name.Name,
			reported: make(map[types.Object]bool)}
		c.checkBody(fn.Body, NewStringSet())
	}
}

type lockHeldChecker struct {
	pass     *Pass
	guarded  map[types.Object]string
	fnName   string
	reported map[types.Object]bool // one finding per field per function
}

func (c *lockHeldChecker) checkBody(body *ast.BlockStmt, entry StringSet) {
	info := c.pass.Pkg.Info
	cfg := BuildCFG(c.fnName, body)
	facts := SolveForward(cfg, FlowProblem{
		Entry: entry,
		Transfer: func(b *Block, in FlowFact) FlowFact {
			s := in.(StringSet)
			for _, n := range b.Nodes {
				s = lockTransfer(info, n, s)
			}
			return s
		},
		Join: IntersectSets,
	})
	// Re-walk each reachable block, checking accesses against the lock
	// state at their program point and collecting literals with the state
	// at their definition point.
	type litAt struct {
		lit  *ast.FuncLit
		held StringSet
	}
	var lits []litAt
	for _, b := range cfg.Blocks {
		in, ok := facts[b]
		if !ok {
			continue // unreachable: no path, no obligation
		}
		s := in.(StringSet)
		for _, n := range b.Nodes {
			for _, lit := range topFuncLits(n) {
				held := s
				if g, ok := n.(*ast.GoStmt); ok && g.Call.Fun == lit {
					held = NewStringSet() // the launcher's locks do not cover it
				}
				lits = append(lits, litAt{lit, held})
			}
			for _, use := range guardedUses(info, c.guarded, n) {
				if s[use.mu] {
					continue
				}
				obj := info.Selections[use.sel].Obj()
				if c.reported[obj] {
					continue
				}
				c.reported[obj] = true
				c.pass.Reportf(use.sel.Pos(),
					"%s accesses %s (guarded by %s) without holding %s at this point; lock it on every path or annotate //bix:lockheld",
					c.fnName, use.sel.Sel.Name, use.mu, use.mu)
			}
			s = lockTransfer(info, n, s)
		}
	}
	for _, l := range lits {
		c.checkBody(l.lit.Body, l.held)
	}
}
