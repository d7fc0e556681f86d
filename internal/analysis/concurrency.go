package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Shared machinery for the lock-discipline analyzers (lockheld,
// unlockpath, lockorder): classifying sync.Mutex/RWMutex call sites and
// resolving the identity of the mutex they act on.

type lockOp int

const (
	opLock lockOp = iota
	opRLock
	opUnlock
	opRUnlock
)

func (o lockOp) String() string {
	switch o {
	case opLock:
		return "Lock"
	case opRLock:
		return "RLock"
	case opUnlock:
		return "Unlock"
	case opRUnlock:
		return "RUnlock"
	}
	return "?"
}

// acquires reports whether the operation takes the mutex.
func (o lockOp) acquires() bool { return o == opLock || o == opRLock }

// releases returns the acquisition op this op undoes, or -1.
func (o lockOp) releases() lockOp {
	switch o {
	case opUnlock:
		return opLock
	case opRUnlock:
		return opRLock
	}
	return -1
}

// lockRef is one resolved mutex operation.
type lockRef struct {
	op   lockOp
	name string       // receiver's short name ("mu"), for `guarded by` matching
	obj  types.Object // variable or field holding the mutex; may be nil
	key  string       // stable module-wide identity, for the acquisition graph
	call *ast.CallExpr
}

// lockCall classifies call as a sync.Mutex/RWMutex operation. Only methods
// resolved to package sync count, so a user type with its own Lock method
// is never misread as a mutex.
func lockCall(info *types.Info, call *ast.CallExpr) (lockRef, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockRef{}, false
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return lockRef{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockRef{}, false
	}
	ref := lockRef{op: op, call: call}
	ref.name, ref.obj, ref.key = selIdentity(info, sel.X)
	if ref.key == "" {
		return lockRef{}, false
	}
	return ref, true
}

// selIdentity resolves the identity of a value reached through a method
// call's receiver expression — the `v.mu` of `v.mu.Lock()` or the
// `bufPool` of `bufPool.Get()`. It returns the short name (for `guarded
// by` matching and messages), the variable or field object, and a stable
// module-wide identity key: type + field for struct members, package path
// + name for package-level variables, and a position-tagged name for
// locals. A value reached through an index or call result has no stable
// identity and yields an empty key.
func selIdentity(info *types.Info, x ast.Expr) (name string, obj types.Object, key string) {
	switch x := x.(type) {
	case *ast.SelectorExpr: // v.mu or pkg.mu
		name = x.Sel.Name
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			obj = s.Obj()
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			key = types.TypeString(recv, nil) + "." + name
		} else if o := info.Uses[x.Sel]; o != nil {
			obj = o
			if o.Pkg() != nil {
				key = o.Pkg().Path() + "." + name
			}
		}
	case *ast.Ident: // mu — package-level or local,
		// or t.Lock() through an embedded sync.Mutex.
		name = x.Name
		if o := info.Uses[x]; o != nil {
			obj = o
			switch {
			case o.Pkg() != nil && o.Parent() == o.Pkg().Scope():
				key = o.Pkg().Path() + "." + name
			default:
				// Function-local value: identity is the object itself.
				key = fmt.Sprintf("local.%s@%d", name, o.Pos())
			}
		}
	}
	return name, obj, key
}

// collectGuarded maps each struct field carrying a `// guarded by <mu>`
// comment to the name of its mutex.
func collectGuarded(pkg *Package) map[types.Object]string {
	guarded := make(map[types.Object]string)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := guardComment(field)
				if !ok {
					continue
				}
				for _, name := range field.Names {
					if obj := pkg.Info.Defs[name]; obj != nil {
						guarded[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

// guardedAccess returns the guarded-field selections within node (pruning
// function literals), paired with their guarding mutex names.
type guardedUse struct {
	sel *ast.SelectorExpr
	mu  string
}

func guardedUses(info *types.Info, guarded map[types.Object]string, node ast.Node) []guardedUse {
	var out []guardedUse
	inspectShallow(node, func(n ast.Node) bool {
		if e, ok := n.(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
				if mu, ok := guarded[s.Obj()]; ok {
					out = append(out, guardedUse{e, mu})
				}
			}
		}
		return true
	})
	return out
}

// deferredReleases returns, for each mutex short name, the set of
// acquisition ops whose deferred release is registered anywhere in the
// function — `defer mu.Unlock()` and `defer mu.RUnlock()`. Deferred
// releases run at every exit, normal or panicking, so analyzers treat
// them as covering all paths (a defer inside a conditional is credited
// optimistically; the race-detector CI gate backstops that gap).
func deferredReleases(info *types.Info, c *CFG) map[string]map[lockOp]bool {
	out := make(map[string]map[lockOp]bool)
	for _, d := range c.Defers {
		ref, ok := lockCall(info, d.Call)
		if !ok {
			continue
		}
		if rel := ref.op.releases(); rel >= 0 {
			if out[ref.key] == nil {
				out[ref.key] = make(map[lockOp]bool)
			}
			out[ref.key][rel] = true
		}
	}
	return out
}
