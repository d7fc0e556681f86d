// Package analysis is a self-contained static-analysis framework for this
// module, built entirely on the standard library's go/ast, go/types and
// go/importer. It exists because the repository's core invariants — the
// bitvec tail-mask contract, allocation-free hot paths, checked storage
// errors, lock discipline and pool hygiene — are exactly the kind of rules
// that decay silently under refactoring unless a tool re-checks them on
// every change. The suite is seven analyzers (All).
//
// Analyzers communicate with the code they check through a small directive
// grammar in doc comments:
//
//	//bix:hotpath          the function and everything it reaches must not
//	                       allocate (checked transitively by hotalloc)
//	//bix:allocok (reason) the function is an audited amortized-growth
//	                       boundary; hotalloc's transitive walk stops here
//	//bix:maskok (reason)  the function maintains the tail-mask invariant
//	                       without calling maskTail (checked by tailmask)
//	//bix:lockheld         every caller holds the mutex (checked by lockheld)
//	//bix:unlockok (reason) the function intentionally returns with a lock
//	                       held (checked by unlockpath)
//
// and through `// guarded by <mu>` comments on struct fields (lockheld).
//
// Interprocedural analyses (hotalloc's transitive walk, lockorder's
// acquisition summaries, poolhygiene's Put-forwarding) share one
// module-wide call graph with SCC-condensed bottom-up fact summaries
// (callgraph.go). RunBatch is one serial pass: a prepare phase builds the
// shared indexes (runner.go), then every analyzer runs over every package
// in load order.
//
// Run `go run ./cmd/bixlint ./...` to apply every analyzer to the module.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named rule applied to a loaded package.
type Analyzer struct {
	Name string // short lower-case identifier, used in findings
	Doc  string // one-line description
	Run  func(*Pass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Batch    *Batch // all packages of this Run, for module-wide analyses
	findings *[]Finding
}

// Batch is the set of packages loaded for one Run, with lazily built
// module-wide indexes shared by every pass: the function-declaration map
// used to resolve calls across packages (lockorder's acquisition graph,
// tailmask's parameter summaries) and per-analysis memo tables.
type Batch struct {
	Pkgs []*Package

	declsOnce bool
	decls     map[*types.Func]*ast.FuncDecl
	declPkg   map[*types.Func]*Package

	graph          *callGraph                         // module call graph + summaries (callgraph.go)
	sliceParams    map[*types.Func]*sliceParamSummary // tailmask memo
	lockGraph      []lockOrderEdge                    // module acquisition graph
	lockGraphBuilt bool

	// prepared flips after the prepare phase; from then on every lazily
	// built index above is read-only (runner.go relies on this).
	prepared bool

	timings map[string]time.Duration
}

// NewBatch indexes a package set for module-wide analyses.
func NewBatch(pkgs []*Package) *Batch {
	return &Batch{
		Pkgs:        pkgs,
		sliceParams: make(map[*types.Func]*sliceParamSummary),
	}
}

// funcDecl resolves a function object to its declaration, if it was
// declared in one of the batch's packages.
func (b *Batch) funcDecl(fn *types.Func) (*ast.FuncDecl, *Package) {
	if !b.declsOnce {
		b.declsOnce = true
		b.decls = make(map[*types.Func]*ast.FuncDecl)
		b.declPkg = make(map[*types.Func]*Package)
		for _, pkg := range b.Pkgs {
			for _, d := range funcDecls(pkg) {
				if obj, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
					b.decls[obj] = d
					b.declPkg[obj] = pkg
				}
			}
		}
	}
	return b.decls[fn], b.declPkg[fn]
}

// Finding is one diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Pkg.Fset.Position(pos), format, args...)
}

// reportAt records a finding at an already-resolved position — the form
// the interprocedural layer uses, since call-graph facts carry
// token.Position values rather than token.Pos offsets.
func (p *Pass) reportAt(pos token.Position, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All is the complete analyzer suite, seven analyzers in the order bixlint
// runs them: the four flow-sensitive rewrites of the original rules, the
// two further concurrency analyzers built on the CFG/dataflow layer
// (lockorder, unlockpath), and poolhygiene, built on the module call graph
// and the may-facts engine.
var All = []*Analyzer{TailMask, HotAlloc, ErrcheckIO, LockHeld,
	LockOrder, UnlockPath, PoolHygiene}

// Select resolves -only/-skip analyzer-selection expressions against the
// full suite: comma-separated analyzer names, where an unknown name is an
// error. only narrows the suite (preserving suite order), then skip
// removes from the result. Empty strings select everything / skip
// nothing.
func Select(only, skip string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer, len(All))
	for _, a := range All {
		byName[a.Name] = a
	}
	parse := func(list, flag string) (map[string]bool, error) {
		if list == "" {
			return nil, nil
		}
		out := make(map[string]bool)
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("analysis: unknown analyzer %q in %s", name, flag)
			}
			out[name] = true
		}
		return out, nil
	}
	keep, err := parse(only, "-only")
	if err != nil {
		return nil, err
	}
	drop, err := parse(skip, "-skip")
	if err != nil {
		return nil, err
	}
	var out []*Analyzer
	for _, a := range All {
		if keep != nil && !keep[a.Name] {
			continue
		}
		if drop[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies each analyzer to each package and returns the findings in
// file/line/column/analyzer order. All packages share one Batch, so
// module-wide analyses (the call graph, lockorder's acquisition graph)
// see every package of the run.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return RunBatch(NewBatch(pkgs), analyzers)
}

// RunBatch is Run over a caller-constructed Batch, so the caller can read
// the run's Timings afterwards. A prepare phase builds every shared index
// the selected analyzers read; then each analyzer runs over each package,
// in load order.
func RunBatch(batch *Batch, analyzers []*Analyzer) []Finding {
	batch.prepare(analyzers)
	var findings []Finding
	for _, pkg := range batch.Pkgs {
		for _, a := range analyzers {
			start := time.Now()
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Batch: batch, findings: &findings})
			batch.noteTiming(a.Name, time.Since(start))
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// hasDirective reports whether the declaration's doc comment carries the
// //bix:<name> directive (optionally followed by a reason).
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//bix:"+name)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// funcDecls yields every function declaration with a body in the package.
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				out = append(out, fn)
			}
		}
	}
	return out
}
