package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// factCacheBatch runs HotAlloc over pkgs through a caller-built Batch
// wired to the given cache path, returning the findings and the batch for
// hit/miss inspection.
func factCacheBatch(t *testing.T, pkgs []*Package, cachePath string) ([]Finding, *Batch) {
	t.Helper()
	b := NewBatch(pkgs)
	b.CachePath = cachePath
	return RunBatch(b, []*Analyzer{HotAlloc}), b
}

// TestFactCacheColdWarm: a cold run misses for every batch package and
// populates the cache; a warm run over the same (unchanged) packages hits
// for all of them and produces byte-identical findings.
func TestFactCacheColdWarm(t *testing.T) {
	pkgs := []*Package{
		loadFixture(t, "hotpath_multi/helper"),
		loadFixture(t, "hotpath_multi"),
	}
	cachePath := filepath.Join(t.TempDir(), "facts.json")

	cold, b1 := factCacheBatch(t, pkgs, cachePath)
	if b1.cacheMisses != len(pkgs) || b1.cacheHits != 0 {
		t.Fatalf("cold run: %d hits / %d misses, want 0 / %d", b1.cacheHits, b1.cacheMisses, len(pkgs))
	}
	if len(cold) == 0 {
		t.Fatal("hotpath_multi fixtures produced no findings")
	}
	if _, err := os.Stat(cachePath); err != nil {
		t.Fatalf("cold run did not write the cache: %v", err)
	}

	warm, b2 := factCacheBatch(t, pkgs, cachePath)
	if b2.cacheHits != len(pkgs) || b2.cacheMisses != 0 {
		t.Fatalf("warm run: %d hits / %d misses, want %d / 0", b2.cacheHits, b2.cacheMisses, len(pkgs))
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm findings differ from cold:\ncold: %v\nwarm: %v", cold, warm)
	}
}

// TestFactCacheContentInvalidation: the cache keys on file content, not
// mtime. Touching a source file on disk (even with the in-memory AST
// unchanged) changes the package hash, so the next run re-extracts instead
// of serving stale facts.
func TestFactCacheContentInvalidation(t *testing.T) {
	// Copy a single-file fixture where this test may mutate it.
	src, err := os.ReadFile(filepath.Join("testdata", "src", "hotalloc_bad", "bad.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "bad.go")
	if err := os.WriteFile(file, src, 0o644); err != nil {
		t.Fatal(err)
	}
	// A loader of its own: the shared one memoizes by import path and
	// would hand a repeated run (-count=2) the package it loaded from an
	// earlier, since deleted, temp dir.
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(dir, "bitmapindex/fixture/factcache_tmp")
	if err != nil {
		t.Fatalf("load temp fixture: %v", err)
	}
	cachePath := filepath.Join(dir, "facts.json")

	cold, _ := factCacheBatch(t, []*Package{pkg}, cachePath)
	if _, b := factCacheBatch(t, []*Package{pkg}, cachePath); b.cacheHits != 1 {
		t.Fatalf("warm run before edit: %d hits, want 1", b.cacheHits)
	}

	if err := os.WriteFile(file, append(src, []byte("\n// touched\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	after, b := factCacheBatch(t, []*Package{pkg}, cachePath)
	if b.cacheMisses != 1 || b.cacheHits != 0 {
		t.Fatalf("run after edit: %d hits / %d misses, want 0 / 1", b.cacheHits, b.cacheMisses)
	}
	if !reflect.DeepEqual(cold, after) {
		t.Errorf("re-extracted findings differ:\nbefore: %v\nafter: %v", cold, after)
	}
}

// TestFactCacheCorruptAndVersionMismatch: a corrupt or version-mismatched
// cache file degrades to an empty cache instead of failing the run.
func TestFactCacheCorruptAndVersionMismatch(t *testing.T) {
	dir := t.TempDir()

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if c := openFactCache(corrupt); len(c.file.Packages) != 0 {
		t.Errorf("corrupt cache loaded %d packages, want 0", len(c.file.Packages))
	}

	stale := filepath.Join(dir, "stale.json")
	if err := os.WriteFile(stale,
		[]byte(`{"version":-1,"go":"go0.0","packages":{"p":{"hash":"h","funcs":{}}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if c := openFactCache(stale); len(c.file.Packages) != 0 {
		t.Errorf("version-mismatched cache loaded %d packages, want 0", len(c.file.Packages))
	}

	// And a stored entry only resolves under the exact hash it was stored with.
	c := openFactCache(filepath.Join(dir, "fresh.json"))
	c.store("p", "h1", map[string]cachedFunc{})
	if _, ok := c.lookup("p", "h2"); ok {
		t.Error("lookup with a different hash must miss")
	}
	if _, ok := c.lookup("p", "h1"); !ok {
		t.Error("lookup with the stored hash must hit")
	}
}
