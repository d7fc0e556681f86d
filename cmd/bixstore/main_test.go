package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitmapindex/internal/catalog"
	"bitmapindex/internal/storage"
)

func TestBuildInfoQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	values := filepath.Join(dir, "v.txt")
	if err := cmdGen([]string{"-values", values, "-rows", "2000", "-C", "50", "-dist", "zipf"}); err != nil {
		t.Fatal(err)
	}
	ixDir := filepath.Join(dir, "ix")
	if err := cmdBuild([]string{"-dir", ixDir, "-values", values, "-C", "50", "-scheme", "CS", "-z", "-base", "<5,10>"}); err != nil {
		t.Fatal(err)
	}
	// -z selects zlib; any -codec, raw included, overrides it.
	rDir := filepath.Join(dir, "ixr")
	if err := cmdBuild([]string{"-dir", rDir, "-values", values, "-C", "50", "-z", "-codec", "roaring"}); err != nil {
		t.Fatal(err)
	}
	rawDir := filepath.Join(dir, "ixraw")
	if err := cmdBuild([]string{"-dir", rawDir, "-values", values, "-C", "50", "-z", "-codec", "raw"}); err != nil {
		t.Fatal(err)
	}
	for d, want := range map[string]string{ixDir: "cCS", rDir: "rBS", rawDir: "BS"} {
		st, err := storage.Open(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Options().String(); got != want {
			t.Errorf("%s: stored as %s, want %s", d, got, want)
		}
	}
	if err := cmdInfo([]string{"-dir", ixDir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-dir", ixDir, "-q", "<= 17", "-rids", "-limit", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildWithNulls(t *testing.T) {
	dir := t.TempDir()
	values := filepath.Join(dir, "v.txt")
	if err := os.WriteFile(values, []byte("1\nnull\n3\n\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ixDir := filepath.Join(dir, "ix")
	if err := cmdBuild([]string{"-dir", ixDir, "-values", values, "-C", "4", "-enc", "interval"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-dir", ixDir, "-q", ">= 0"}); err != nil {
		t.Fatal(err)
	}
}

func TestArgumentErrors(t *testing.T) {
	if err := cmdBuild([]string{}); err == nil {
		t.Error("build without flags must fail")
	}
	if err := cmdInfo([]string{}); err == nil {
		t.Error("info without dir must fail")
	}
	if err := cmdQuery([]string{"-dir", t.TempDir(), "-q", "bogus"}); err == nil {
		t.Error("bad predicate must fail")
	}
	if err := cmdQuery([]string{"-dir", t.TempDir(), "-q", "<= x"}); err == nil {
		t.Error("bad constant must fail")
	}
	if err := cmdGen([]string{}); err == nil {
		t.Error("gen without output must fail")
	}
	if err := cmdGen([]string{"-values", filepath.Join(t.TempDir(), "v"), "-dist", "bogus"}); err == nil {
		t.Error("bad distribution must fail")
	}
	values := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(values, []byte("notanumber\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-dir", t.TempDir(), "-values", values, "-C", "4"}); err == nil {
		t.Error("bad values file must fail")
	}
}

func TestCSVAndWhere(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	var rows []string
	rows = append(rows, "quantity,price,region")
	for i := 0; i < 500; i++ {
		rows = append(rows, fmt.Sprintf("%d,%d,%d", i%50+1, (i%300)*5, i%8))
	}
	if err := os.WriteFile(csvPath, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tblDir := filepath.Join(dir, "tbl")
	if err := cmdCSV([]string{"-in", csvPath, "-dir", tblDir, "-scheme", "CS", "-z"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdWhere([]string{"-dir", tblDir, "-q", "quantity <= 10 AND price > 500", "-rids", "-limit", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdWhere([]string{"-dir", tblDir, "-q", "region != 0"}); err != nil {
		t.Fatal(err)
	}
}

// TestCSVReportsPermutation: csv -reorder prints the sort key, by
// ascending cardinality, and the packed permutation's bytes on disk
// (500 rows at 9 bits each fill 71 words).
func TestCSVReportsPermutation(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	rows := []string{"quantity,price,region"}
	for i := 0; i < 500; i++ {
		rows = append(rows, fmt.Sprintf("%d,%d,%d", i%50+1, (i%300)*5, i%8))
	}
	if err := os.WriteFile(csvPath, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runCSV(&out, []string{"-in", csvPath, "-dir", filepath.Join(dir, "tbl"), "-z", "-reorder", "lex"}); err != nil {
		t.Fatal(err)
	}
	if want := "row permutation  lex by region, quantity, price (568 bytes on disk)"; !strings.Contains(out.String(), want) {
		t.Errorf("csv output lacks %q:\n%s", want, out.String())
	}
	tbl, err := catalog.Open(filepath.Join(dir, "tbl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tbl.Attributes() {
		a, err := tbl.Attr(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Store().Options().String(); got != "cBS" {
			t.Errorf("csv -z stored %s as %s, want cBS", name, got)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if err := cmdCSV([]string{}); err == nil {
		t.Error("csv without flags must fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("a,b\n1,x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCSV([]string{"-in", bad, "-dir", filepath.Join(dir, "t")}); err == nil {
		t.Error("non-integer cell must fail")
	}
	short := filepath.Join(dir, "short.csv")
	if err := os.WriteFile(short, []byte("a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCSV([]string{"-in", short, "-dir", filepath.Join(dir, "t2")}); err == nil {
		t.Error("header-only file must fail")
	}
}

func TestParseConjunction(t *testing.T) {
	preds, err := parseConjunction("a <= 5 AND b != -3 AND c=7")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 || preds[0].Col != "a" || preds[1].Val != -3 || preds[2].Col != "c" {
		t.Fatalf("parsed %v", preds)
	}
	if _, err := parseConjunction("a ~ 5"); err == nil {
		t.Error("bad operator must fail")
	}
	if _, err := parseConjunction("a <= x"); err == nil {
		t.Error("bad constant must fail")
	}
	if _, err := parseConjunction("<= 5"); err == nil {
		t.Error("missing column must fail")
	}
}
