package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds a module-wide mutex acquisition graph and reports
// cycles — the static shadow of a deadlock. A node is a mutex identity
// (package path + type + field for struct mutexes, package path + name for
// package-level ones); an edge A → B means some function acquires B while
// A is definitely held, either directly (`a.mu.Lock(); b.mu.Lock()`) or
// through a call to a module function whose transitive may-acquire summary
// contains B. A self-edge A → A is the degenerate cycle: re-acquiring a
// sync.Mutex the goroutine already holds deadlocks immediately, and a
// recursive RLock can deadlock against a waiting writer.
//
// Held sets are must-held (intersection over paths), so the common
// `for { mu.Lock(); ...; mu.Unlock() }` loop does not feed the previous
// iteration's lock into the next. Call summaries are flow-insensitive
// may-acquire: if g ever locks B, calling g while holding A orders A
// before B on some interleaving, which is what lock ordering is about.
//
// The graph spans every package of the run (Pass.Batch); each package's
// pass reports only the cycle edges whose acquisition site lies in that
// package, so a module run reports each edge exactly once, in file order.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the module-wide mutex acquisition graph must be acyclic (deadlock freedom)",
	Run:  runLockOrder,
}

// lockOrderEdge is one "B acquired while A held" observation.
type lockOrderEdge struct {
	from, to string
	pos      token.Pos
	pkg      *Package
	via      string // callee name when the acquisition is inside a call
}

// batchLockGraph builds (once per Batch, serially in prepare) the full
// acquisition graph.
func batchLockGraph(b *Batch) []lockOrderEdge {
	if b.lockGraph != nil || b.lockGraphBuilt {
		return b.lockGraph
	}
	b.lockGraphBuilt = true
	for _, pkg := range b.Pkgs {
		for _, fn := range funcDecls(pkg) {
			bodies := []*ast.BlockStmt{fn.Body}
			for _, lit := range funcLits(fn.Body) {
				bodies = append(bodies, lit.Body)
			}
			for _, body := range bodies {
				collectLockEdges(b, pkg, fn.Name.Name, body)
			}
		}
	}
	// Deterministic order for reporting.
	sort.Slice(b.lockGraph, func(i, j int) bool {
		x, y := b.lockGraph[i], b.lockGraph[j]
		if x.from != y.from {
			return x.from < y.from
		}
		if x.to != y.to {
			return x.to < y.to
		}
		return x.pos < y.pos
	})
	return b.lockGraph
}

// collectLockEdges runs the must-held analysis over one body and records
// acquisition-order edges on the batch.
func collectLockEdges(b *Batch, pkg *Package, fnName string, body *ast.BlockStmt) {
	info := pkg.Info
	cfg := BuildCFG(fnName, body)
	transfer := func(blk *Block, in FlowFact) FlowFact {
		s := in.(StringSet)
		for _, n := range blk.Nodes {
			s = lockTransferKey(info, n, s)
		}
		return s
	}
	facts := SolveForward(cfg, FlowProblem{Entry: NewStringSet(), Transfer: transfer, Join: IntersectSets})
	for _, blk := range cfg.Blocks {
		in, ok := facts[blk]
		if !ok {
			continue
		}
		s := in.(StringSet)
		for _, n := range blk.Nodes {
			held := s // held set at this node's program point
			switch n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				// A goroutine body starts with nothing held, and a defer
				// runs at exit; neither orders locks at this point.
			default:
				inspectShallow(n, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if ref, ok := lockCall(info, call); ok && ref.op.acquires() {
						for a := range held {
							b.lockGraph = append(b.lockGraph,
								lockOrderEdge{from: a, to: ref.key, pos: call.Pos(), pkg: pkg})
						}
						return true
					}
					if callee := calleeFunc(info, call); callee != nil && len(held) > 0 {
						for _, acq := range lockSummary(b, callee).Sorted() {
							for a := range held {
								b.lockGraph = append(b.lockGraph,
									lockOrderEdge{from: a, to: acq, pos: call.Pos(), pkg: pkg, via: callee.Name()})
							}
						}
					}
					return true
				})
			}
			s = lockTransferKey(info, n, held)
		}
	}
}

// lockTransferKey is lockTransfer keyed by module-wide mutex identity
// instead of short name.
func lockTransferKey(info *types.Info, n ast.Node, s StringSet) StringSet {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return s
	}
	inspectShallow(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if ref, ok := lockCall(info, call); ok {
				if ref.op.acquires() {
					s = s.With(ref.key)
				} else {
					key := ref.key
					s = s.Without(func(k string) bool { return k == key })
				}
			}
		}
		return true
	})
	return s
}

// lockSummary returns the transitive may-acquire set of a module
// function, straight off the call graph's bottom-up summaries
// (callgraph.go), which compute the full fixpoint through mutual
// recursion; functions outside the module (no graph node) have an empty
// summary. The lookup is two map reads, so there is no memo.
func lockSummary(b *Batch, fn *types.Func) StringSet {
	if n := batchGraph(b).node(fn); n != nil {
		if s, ok := b.graph.transAcquires[n.key]; ok {
			return s
		}
	}
	return NewStringSet()
}

func runLockOrder(pass *Pass) {
	edges := batchLockGraph(pass.Batch)
	if len(edges) == 0 {
		return
	}
	// Nodes and adjacency for cycle detection.
	adj := make(map[string]map[string]bool)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]bool)
		}
		adj[e.from][e.to] = true
	}
	inCycle := cyclicEdges(adj)
	seen := make(map[string]bool) // dedupe identical (from,to,pos) observations
	for _, e := range edges {
		if e.pkg != pass.Pkg {
			continue
		}
		if e.from == e.to {
			k := fmt.Sprintf("self|%s|%d", e.from, e.pos)
			if seen[k] {
				continue
			}
			seen[k] = true
			if e.via != "" {
				pass.Reportf(e.pos,
					"calls %s while holding %s, which %s acquires again (self-deadlock: sync mutexes are not reentrant)",
					e.via, shortLockName(e.from), e.via)
			} else {
				pass.Reportf(e.pos,
					"acquires %s while already holding it (self-deadlock: sync mutexes are not reentrant)",
					shortLockName(e.from))
			}
			continue
		}
		if !inCycle[e.from+"->"+e.to] {
			continue
		}
		k := fmt.Sprintf("cycle|%s|%s|%d", e.from, e.to, e.pos)
		if seen[k] {
			continue
		}
		seen[k] = true
		via := ""
		if e.via != "" {
			via = fmt.Sprintf(" (via call to %s)", e.via)
		}
		pass.Reportf(e.pos,
			"acquires %s while holding %s%s, closing a lock-order cycle (potential deadlock); acquire module mutexes in one global order",
			shortLockName(e.to), shortLockName(e.from), via)
	}
}

// shortLockName renders a mutex key for messages: the type-qualified tail
// of the identity ("slowWriter.mu") rather than the full import path.
func shortLockName(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[i+1:]
	}
	return key
}
