// Command bixlint runs this repository's static-analysis suite: custom
// analyzers for the bitvec tail-mask invariant (now alias-aware),
// interprocedural allocation-free hot paths (//bix:hotpath propagates
// through the module call graph; //bix:allocok bounds the audit), dropped
// I/O errors, and concurrency integrity (lockheld, lockorder, unlockpath,
// poolhygiene): seven analyzers, all built on a CFG/dataflow engine and
// per-function summaries. It analyzes the loaded packages in one serial
// pass, is built entirely on the standard library and needs no tools
// outside the Go distribution. Build, vet and the tests are separate
// steps (`make ci`).
//
// Usage:
//
//	bixlint [flags] [packages]
//
//	bixlint ./...                     check every package in the module
//	bixlint -only tailmask,hotalloc ./...
//	bixlint -skip poolhygiene ./...
//	bixlint -format sarif ./...       emit SARIF 2.1.0 on stdout
//	bixlint -timings ./...            report per-analyzer wall time on stderr
//	bixlint -list                     print the analyzer suite and exit
//
// Exit status: 0 when clean, 1 when any analyzer reports a finding, 2 when
// the module fails to load or type-check, or on a usage error (unknown
// format or analyzer name).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bitmapindex/internal/analysis"
)

func main() {
	var opts options
	flag.BoolVar(&opts.list, "list", false, "list the analyzers and exit")
	flag.StringVar(&opts.format, "format", "text", "output format: text or sarif")
	flag.StringVar(&opts.only, "only", "", "comma-separated analyzer names to run exclusively")
	flag.StringVar(&opts.skip, "skip", "", "comma-separated analyzer names to leave out")
	flag.BoolVar(&opts.timings, "timings", false, "report per-analyzer wall time on stderr")
	flag.Parse()
	os.Exit(run(opts, flag.Args(), os.Stdout, os.Stderr))
}

type options struct {
	list    bool
	format  string
	only    string
	skip    string
	timings bool
}

func run(opts options, patterns []string, stdout, stderr io.Writer) int {
	if opts.list {
		for _, a := range analysis.All {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if opts.format != "text" && opts.format != "sarif" {
		fmt.Fprintf(stderr, "bixlint: unknown -format %q (want text or sarif)\n", opts.format)
		return 2
	}
	// Validate analyzer selection before the (expensive) module load so a
	// typo in -only/-skip fails in milliseconds.
	selected, err := analysis.Select(opts.only, opts.skip)
	if err != nil {
		fmt.Fprintln(stderr, "bixlint:", err)
		return 2
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "bixlint:", err)
		return 2
	}
	pkgs, err := load(loader, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "bixlint:", err)
		return 2
	}
	if len(loader.TypeErrors) > 0 {
		for _, e := range loader.TypeErrors {
			fmt.Fprintln(stderr, "bixlint:", e)
		}
		return 2
	}
	batch := analysis.NewBatch(pkgs)
	findings := analysis.RunBatch(batch, selected)
	root, _ := os.Getwd()
	if opts.timings {
		for _, t := range batch.Timings() {
			fmt.Fprintf(stderr, "bixlint: %12s  %s\n", t.Total.Round(10*time.Microsecond), t.Name)
		}
	}

	if opts.format == "sarif" {
		if err := analysis.WriteSARIF(stdout, findings, selected, root); err != nil {
			fmt.Fprintln(stderr, "bixlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			if root != "" {
				if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
					f.Pos.Filename = rel
				}
			}
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "bixlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// load resolves package patterns: "./..." loads the whole module, anything
// else is a directory relative to the current working directory.
func load(loader *analysis.Loader, patterns []string) ([]*analysis.Package, error) {
	for _, p := range patterns {
		if p == "./..." || p == "..." {
			return loader.LoadAll()
		}
	}
	var pkgs []*analysis.Package
	for _, p := range patterns {
		dir, err := filepath.Abs(p)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(loader.ModDir, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("package %s is outside module %s", p, loader.ModPath)
		}
		path := loader.ModPath
		if rel != "." {
			path = loader.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.LoadDir(dir, path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
