package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural half of the analysis layer: a
// deterministic module-wide call graph over every package of the Batch,
// with per-function fact summaries folded bottom-up over the graph's
// SCC condensation (scc.go). The graph is what lets hotalloc follow
// //bix:hotpath across call chains, lockorder resolve transitive
// may-acquire sets through mutual recursion, and poolhygiene see that an
// argument handed to a helper ends up in a sync.Pool.Put.
//
// Resolution is static and best-effort: direct calls and method calls
// resolve through go/types; a function value bound by a simple assignment
// (`f := helper.Fill; f(x)`) resolves to its target; calls through
// interface methods, struct fields and channel-delivered closures do not
// resolve and simply contribute no edge. Edges record how the callee runs
// (call, defer, go, or referenced from a closure) so each client can pick
// the traversal that matches its semantics.

// edgeKind says how a callee runs relative to its caller.
type edgeKind int

const (
	edgeCall  edgeKind = iota // plain call at this program point
	edgeDefer                 // deferred to function exit (still this call's frame)
	edgeGo                    // launched on a new goroutine
	edgeRef                   // called from inside a function literal, or referenced as a value
)

// callEdge is one resolved call site.
type callEdge struct {
	Callee string
	Kind   edgeKind
	Pos    token.Position
}

// allocSite is one allocation-inducing construct. What is a message
// fragment ("calls append", "builds a slice literal") phrased so both the
// direct and the transitive hotalloc diagnostics can embed it verbatim.
type allocSite struct {
	Pos  token.Position
	What string
}

// funcFacts is the per-function summary extracted in one AST walk:
// everything the interprocedural analyzers need to reason about a callee
// without revisiting its body.
type funcFacts struct {
	Allocs        []allocSite
	Acquires      []string // mutex keys locked anywhere in the body
	Releases      []string // mutex keys unlocked anywhere in the body
	PoolGets      []string
	PoolPuts      []string
	PoolPutParams []int // parameter indices that reach a Put
}

// cgNode is one module function in the call graph.
type cgNode struct {
	key     string // types.Func.FullName(): unique, stable across runs
	display string // "pkg.(*Recv).Name": unambiguous in cross-package chains
	pkg     *Package
	decl    *ast.FuncDecl
	fn      *types.Func
	hot     bool // //bix:hotpath
	allocOK bool // //bix:allocok
	edges   []callEdge
	facts   *funcFacts
}

// callGraph is the built graph plus its bottom-up summaries.
type callGraph struct {
	nodes map[string]*cgNode
	keys  []string // sorted node keys: the deterministic iteration order

	// transAcquires is the transitive may-acquire set per function,
	// computed over the SCC condensation (full fixpoint inside cycles).
	transAcquires map[string]StringSet
	// allocates reports whether the function or anything it (transitively)
	// calls or defers allocates, stopping at //bix:allocok boundaries.
	allocates map[string]bool

	hotDone     bool
	hotFindings []hotFinding
}

// batchGraph builds (once per Batch) the module call graph and its
// summaries.
func batchGraph(b *Batch) *callGraph {
	if b.graph != nil {
		return b.graph
	}
	g := &callGraph{
		nodes:         make(map[string]*cgNode),
		transAcquires: make(map[string]StringSet),
		allocates:     make(map[string]bool),
	}
	b.graph = g
	for _, pkg := range b.Pkgs {
		for _, decl := range funcDecls(pkg) {
			fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &cgNode{
				key:     fn.FullName(),
				display: displayName(pkg, decl, fn),
				pkg:     pkg,
				decl:    decl,
				fn:      fn,
				hot:     hasDirective(decl.Doc, "hotpath"),
				allocOK: hasDirective(decl.Doc, "allocok"),
			}
			n.edges, n.facts = extractFunc(pkg, decl)
			g.nodes[n.key] = n
		}
	}
	for k := range g.nodes {
		g.keys = append(g.keys, k)
	}
	sort.Strings(g.keys)
	g.buildSummaries()
	return g
}

// displayName renders a function for call-chain diagnostics:
// "bitvec.(*Vector).CopyRange", "core.runSegment".
func displayName(pkg *Package, decl *ast.FuncDecl, fn *types.Func) string {
	name := decl.Name.Name
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		ptr := false
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			ptr = true
		}
		if named, ok := rt.(*types.Named); ok {
			if ptr {
				name = "(*" + named.Obj().Name() + ")." + name
			} else {
				name = named.Obj().Name() + "." + name
			}
		}
	}
	pkgName := ""
	if pkg.Types != nil {
		pkgName = pkg.Types.Name()
	}
	return pkgName + "." + name
}

// posRange is a half-open source interval used to classify constructs by
// lexical containment (inside a function literal, inside a panic argument).
type posRange struct{ lo, hi token.Pos }

func (r posRange) containsStrict(p token.Pos) bool { return r.lo < p && p < r.hi }
func (r posRange) contains(p token.Pos) bool       { return r.lo <= p && p < r.hi }

func inAny(rs []posRange, p token.Pos, strict bool) bool {
	for _, r := range rs {
		if strict && r.containsStrict(p) {
			return true
		}
		if !strict && r.contains(p) {
			return true
		}
	}
	return false
}

// extractFunc computes one function's edges and facts in two passes over
// its body: a collection pass (defer/go call sites, literal and panic-
// argument extents, function-value bindings, parameter indices) and an
// emission pass.
func extractFunc(pkg *Package, decl *ast.FuncDecl) ([]callEdge, *funcFacts) {
	info := pkg.Info
	fset := pkg.Fset
	facts := &funcFacts{}
	var edges []callEdge

	deferCalls := make(map[*ast.CallExpr]bool)
	goCalls := make(map[*ast.CallExpr]bool)
	var litRanges, panicRanges []posRange
	binds := make(map[types.Object]*types.Func) // x := f (best-effort function values)
	paramIndex := make(map[types.Object]int)

	if decl.Type.Params != nil {
		i := 0
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					paramIndex[obj] = i
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}

	bindTarget := func(e ast.Expr) *types.Func {
		var id *ast.Ident
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		default:
			return nil
		}
		fn, _ := info.Uses[id].(*types.Func)
		return fn
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			deferCalls[s.Call] = true
		case *ast.GoStmt:
			goCalls[s.Call] = true
		case *ast.FuncLit:
			litRanges = append(litRanges, posRange{s.Pos(), s.End()})
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					panicRanges = append(panicRanges, posRange{s.Lparen, s.Rparen})
				}
			}
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, rhs := range s.Rhs {
					if _, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall {
						continue
					}
					if fn := bindTarget(rhs); fn != nil {
						if id, ok := s.Lhs[i].(*ast.Ident); ok {
							if obj := info.Defs[id]; obj != nil {
								binds[obj] = fn
							} else if obj := info.Uses[id]; obj != nil {
								binds[obj] = fn
							}
						}
					}
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i, v := range s.Values {
					if fn := bindTarget(v); fn != nil {
						if obj := info.Defs[s.Names[i]]; obj != nil {
							binds[obj] = fn
						}
					}
				}
			}
		}
		return true
	})

	inLit := func(p token.Pos) bool { return inAny(litRanges, p, true) }
	inPanic := func(p token.Pos) bool { return inAny(panicRanges, p, false) }

	addAlloc := func(pos token.Pos, what string) {
		if inLit(pos) || inPanic(pos) {
			// Closure bodies run outside the enclosing function's hot path
			// (the closure itself is the allocation); panic arguments run
			// only on the failure path, which is by definition not hot.
			return
		}
		facts.Allocs = append(facts.Allocs, allocSite{Pos: fset.Position(pos), What: what})
	}

	seenAcq := make(map[string]bool)
	seenRel := make(map[string]bool)
	seenGet := make(map[string]bool)
	seenPut := make(map[string]bool)
	seenPutParam := make(map[int]bool)

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			addAlloc(e.Pos(), "contains a closure literal")
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					addAlloc(e.Pos(), "builds a slice literal")
				case *types.Map:
					addAlloc(e.Pos(), "builds a map literal")
				}
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if cl, ok := e.X.(*ast.CompositeLit); ok {
					addAlloc(cl.Pos(), "takes the address of a composite literal")
				}
			}
		case *ast.CallExpr:
			extractCall(pkg, e, extractCtx{
				deferCalls: deferCalls, goCalls: goCalls,
				inLit: inLit, addAlloc: addAlloc, binds: binds,
			}, &edges)
			// Lock and pool facts cover the whole body including literal
			// interiors: a closure that locks still locks on behalf of its
			// creator's data structures.
			if ref, ok := lockCall(info, e); ok {
				if ref.op.acquires() {
					if !seenAcq[ref.key] {
						seenAcq[ref.key] = true
						facts.Acquires = append(facts.Acquires, ref.key)
					}
				} else if !seenRel[ref.key] {
					seenRel[ref.key] = true
					facts.Releases = append(facts.Releases, ref.key)
				}
			}
			if ref, ok := poolCall(info, e); ok {
				if ref.isGet {
					if !seenGet[ref.key] {
						seenGet[ref.key] = true
						facts.PoolGets = append(facts.PoolGets, ref.key)
					}
				} else {
					if !seenPut[ref.key] {
						seenPut[ref.key] = true
						facts.PoolPuts = append(facts.PoolPuts, ref.key)
					}
					if len(e.Args) == 1 {
						if id, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok {
							if obj := info.Uses[id]; obj != nil {
								if i, ok := paramIndex[obj]; ok && !seenPutParam[i] {
									seenPutParam[i] = true
									facts.PoolPutParams = append(facts.PoolPutParams, i)
								}
							}
						}
					}
				}
			}
		}
		return true
	})
	sort.Strings(facts.Acquires)
	sort.Strings(facts.Releases)
	sort.Strings(facts.PoolGets)
	sort.Strings(facts.PoolPuts)
	sort.Ints(facts.PoolPutParams)
	return edges, facts
}

type extractCtx struct {
	deferCalls map[*ast.CallExpr]bool
	goCalls    map[*ast.CallExpr]bool
	inLit      func(token.Pos) bool
	addAlloc   func(token.Pos, string)
	binds      map[types.Object]*types.Func
}

// extractCall records the edge and the allocation facts of one call site.
func extractCall(pkg *Package, call *ast.CallExpr, ctx extractCtx, edges *[]callEdge) {
	info := pkg.Info

	// Builtin allocators and fmt calls.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "make", "new":
				ctx.addAlloc(call.Pos(), "calls "+b.Name())
			}
			return // builtins contribute no edge
		}
	}

	callee := calleeFunc(info, call)
	if callee == nil {
		// Best-effort function values: a call through an identifier bound
		// by a simple `x := f` assignment resolves to f.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				callee = ctx.binds[obj]
			}
		}
	}
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		ctx.addAlloc(call.Pos(), "calls fmt."+callee.Name())
	}

	// Explicit conversion to an interface type boxes the operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
				if at, ok := info.Types[call.Args[0]]; ok {
					if _, already := at.Type.Underlying().(*types.Interface); !already && !at.IsNil() {
						ctx.addAlloc(call.Pos(), "converts to an interface")
					}
				}
			}
		}
		return // a conversion is not a call: no edge, no boxing check
	}

	// Implicit boxing at the call site: a concrete argument passed to an
	// interface parameter allocates exactly like an explicit conversion,
	// but v2 could not see it. fmt callees are skipped (flagged wholesale
	// above); unresolved callees still get the check via their signature.
	if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "fmt" {
				checkBoxing(pkg, call, sig, callee, ctx.addAlloc)
			}
		}
	}

	if callee != nil {
		kind := edgeCall
		switch {
		case ctx.inLit(call.Pos()):
			kind = edgeRef
		case ctx.deferCalls[call]:
			kind = edgeDefer
		case ctx.goCalls[call]:
			kind = edgeGo
		}
		*edges = append(*edges, callEdge{
			Callee: callee.FullName(),
			Kind:   kind,
			Pos:    pkg.Fset.Position(call.Pos()),
		})
	}
}

// checkBoxing flags concrete-to-interface argument passing.
func checkBoxing(pkg *Package, call *ast.CallExpr, sig *types.Signature, callee *types.Func, addAlloc func(token.Pos, string)) {
	info := pkg.Info
	params := sig.Params()
	if params == nil || params.Len() == 0 {
		return
	}
	calleeName := "function value"
	if callee != nil {
		calleeName = callee.Name()
	}
	qual := func(p *types.Package) string { return p.Name() }
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // xs... passes the slice itself: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		if _, already := at.Type.Underlying().(*types.Interface); already {
			continue
		}
		if pointerShaped(at.Type) {
			continue // a single-word pointer fits the iface data word: no heap allocation
		}
		addAlloc(arg.Pos(), fmt.Sprintf("passes %s to interface parameter %d of %s",
			types.TypeString(at.Type, qual), i, calleeName))
	}
}

// pointerShaped reports whether values of t are represented as a single
// pointer word, which the runtime stores directly in an interface's data
// word without allocating (pointers, maps, channels, funcs, unsafe.Pointer).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// buildSummaries folds per-function facts bottom-up over the SCC
// condensation: Tarjan emits components callees-first (scc.go), so by the
// time a component is processed every out-of-component callee summary is
// final, and within a component the union over members is the fixpoint.
func (g *callGraph) buildSummaries() {
	adj := make(map[string]map[string]bool, len(g.nodes))
	for k, n := range g.nodes {
		succ := make(map[string]bool)
		for _, e := range n.edges {
			if _, ok := g.nodes[e.Callee]; ok {
				succ[e.Callee] = true
			}
		}
		adj[k] = succ
	}
	comp, comps := stronglyConnected(adj)
	for _, members := range comps {
		acq := NewStringSet()
		allocates := false
		for _, m := range members {
			n := g.nodes[m]
			if n == nil {
				continue
			}
			for _, a := range n.facts.Acquires {
				acq[a] = true
			}
			if len(n.facts.Allocs) > 0 {
				allocates = true
			}
			for _, e := range n.edges {
				cn := g.nodes[e.Callee]
				if cn == nil || comp[e.Callee] == comp[m] {
					continue
				}
				// May-acquire traverses every edge kind: a lock taken in a
				// deferred call, a goroutine or a stored closure still
				// orders against locks the caller's data structures use.
				for k := range g.transAcquires[e.Callee] {
					acq[k] = true
				}
				// Allocation propagates only through calls and defers that
				// actually run in the caller's frame, and stops at audited
				// //bix:allocok boundaries.
				if (e.Kind == edgeCall || e.Kind == edgeDefer) && !cn.allocOK && g.allocates[e.Callee] {
					allocates = true
				}
			}
		}
		for _, m := range members {
			g.transAcquires[m] = acq
			g.allocates[m] = allocates
		}
	}
}

// node returns the graph node for a types.Func, or nil.
func (g *callGraph) node(fn *types.Func) *cgNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.FullName()]
}
