// Command bixstore builds, saves, inspects and queries on-disk bitmap
// indexes in any of the paper's three physical layouts.
//
// Usage:
//
//	bixstore build -dir ./ix -values data.txt -C 50 [-base "<5,10>"] [-enc range] [-scheme BS] [-z]
//	bixstore info  -dir ./ix
//	bixstore query -dir ./ix -q "<= 17" [-metrics] [-analyze]
//	bixstore serve -dir ./ix -addr :8317 [-cache 16] [-slow 100ms]
//	bixstore gen   -values data.txt -rows 100000 -C 50 [-dist uniform|zipf|clustered]
//	bixstore csv   -in table.csv -dir ./tbl [-scheme CS] [-z] [-enc range]
//	bixstore where -dir ./tbl -q "quantity <= 10 AND price > 500"
//
// The values file holds one integer per line; "null" marks a null row.
// CSV files need a header row and integer cells; csv builds one bitmap
// index per column (knee design) plus the value dictionaries, and where
// runs conjunctive queries against them.
//
// query -metrics appends the per-phase query trace and a Prometheus-format
// dump of the telemetry registry, which counts this one query, to the
// output; query -analyze prints the structured EXPLAIN ANALYZE plan report
// instead (cost-model predictions beside the measured actuals, as JSON).
// serve exposes the index over HTTP: GET /query?q=<pred> evaluates a
// predicate and returns JSON (including the trace), GET /metrics serves the
// registry in Prometheus text format (?format=json for the JSON snapshot),
// and queries at or over the -slow threshold are logged to stderr, one
// line each.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"bitmapindex"
	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/data"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/flight"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "csv":
		err = cmdCSV(os.Args[2:])
	case "where":
		err = cmdWhere(os.Args[2:])
	case "advise":
		err = cmdAdvise(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bixstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bixstore {build|info|query|serve|gen|csv|where|advise} [flags]; run a subcommand with -h for its flags")
}

func readValues(path string) (vals []uint64, nulls []bool, hasNulls bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "null" {
			vals = append(vals, 0)
			nulls = append(nulls, true)
			hasNulls = true
			continue
		}
		v, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil, nil, false, fmt.Errorf("%s: %v", path, err)
		}
		vals = append(vals, v)
		nulls = append(nulls, false)
	}
	return vals, nulls, hasNulls, sc.Err()
}

// storeCodec resolves the -codec and -z flags: -z selects zlib unless
// -codec names a codec, raw included.
func storeCodec(name string, z bool) (bitmapindex.StoreCodec, error) {
	if name == "" && z {
		return bitmapindex.CodecZlib, nil
	}
	return bitmapindex.ParseStoreCodec(name)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "output directory (required)")
		values  = fs.String("values", "", "values file, one integer (or 'null') per line (required)")
		card    = fs.Uint64("C", 0, "attribute cardinality (required)")
		baseStr = fs.String("base", "", "base sequence, e.g. \"<5,10>\" (default: knee design)")
		encStr  = fs.String("enc", "range", "encoding: range or equality")
		scheme  = fs.String("scheme", "BS", "storage scheme: BS, CS or IS")
		z       = fs.Bool("z", false, "zlib-compress the stored files")
		codec   = fs.String("codec", "", "compression codec: raw, zlib or roaring (overrides -z)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *values == "" || *card == 0 {
		return fmt.Errorf("build needs -dir, -values and -C")
	}
	vals, nulls, hasNulls, err := readValues(*values)
	if err != nil {
		return err
	}
	enc, err := bitmapindex.ParseEncoding(*encStr)
	if err != nil {
		return err
	}
	opts := []bitmapindex.Option{bitmapindex.WithEncoding(enc)}
	if *baseStr != "" {
		b, err := bitmapindex.ParseBase(*baseStr)
		if err != nil {
			return err
		}
		opts = append(opts, bitmapindex.WithBase(b))
	}
	if hasNulls {
		opts = append(opts, bitmapindex.WithNulls(nulls))
	}
	ix, err := bitmapindex.New(vals, *card, opts...)
	if err != nil {
		return err
	}
	sc, err := bitmapindex.ParseStoreScheme(*scheme)
	if err != nil {
		return err
	}
	cd, err := storeCodec(*codec, *z)
	if err != nil {
		return err
	}
	st, err := bitmapindex.SaveIndex(ix, *dir, bitmapindex.StoreOptions{Scheme: sc, Codec: cd})
	if err != nil {
		return err
	}
	fmt.Printf("built %s over %d rows: %s\n", st.Options(), ix.Rows(),
		bitmapindex.Describe(ix.Base(), ix.Encoding(), ix.Cardinality()))
	fmt.Printf("on-disk value bitmaps: %d bytes\n", st.ValueBytes())
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	dir := fs.String("dir", "", "index directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("info needs -dir")
	}
	st, err := bitmapindex.OpenIndex(*dir)
	if err != nil {
		return err
	}
	ix := st.Index()
	fmt.Printf("layout:      %s\n", st.Options())
	fmt.Printf("rows:        %d (%d null)\n", ix.Rows(), ix.Rows()-ix.NonNull().Count())
	fmt.Printf("cardinality: %d\n", ix.Cardinality())
	fmt.Printf("design:      %s\n", bitmapindex.Describe(ix.Base(), ix.Encoding(), ix.Cardinality()))
	fmt.Printf("disk bytes:  %d\n", st.ValueBytes())
	return nil
}

func cmdQuery(args []string) error { return runQuery(os.Stdout, args) }

// runQuery is cmdQuery writing to w, so tests can inspect the output.
func runQuery(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "index directory (required)")
		q       = fs.String("q", "", "predicate, e.g. \"<= 17\" (required)")
		list    = fs.Bool("rids", false, "print matching record ids")
		limit   = fs.Int("limit", 20, "max record ids to print")
		metrics = fs.Bool("metrics", false, "print the query trace and a Prometheus metrics dump")
		analyze = fs.Bool("analyze", false, "print the EXPLAIN ANALYZE plan report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *q == "" {
		return fmt.Errorf("query needs -dir and -q")
	}
	if *limit < 0 {
		return fmt.Errorf("bad limit %d", *limit)
	}
	op, v, err := parsePredicate(*q)
	if err != nil {
		return err
	}
	st, err := bitmapindex.OpenIndex(*dir)
	if err != nil {
		return err
	}
	m := bitmapindex.StoreMetrics{Trace: bitmapindex.NewQueryTrace(*q)}
	if *analyze {
		m.Trace.Profile()
	}
	var res *bitmapindex.Bitmap
	if *list {
		res = bitvec.Borrow(st.Index().Rows())
		defer bitvec.Recycle(res)
	}
	count, err := st.Count(op, v, res, &m)
	if err != nil {
		return err
	}
	rec := flight.Record{Query: *q, Plan: "cli-query", Op: op.String(), Value: v, Rows: int64(count)}
	elapsed := finishQuery(&rec, &m, nil, nil, nil)
	if *analyze {
		ix := st.Index()
		rep := engine.AnalyzeIndexQuery(*q, st.Describe(), ix.Base(), ix.Encoding(),
			ix.Cardinality(), op, v, m.Stats, elapsed, m.Trace)
		rep.Rows = count
		rep.BytesRead = m.BytesRead
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(w, "A %s %d: %d of %d rows match\n", op, v, count, st.Index().Rows())
	fmt.Fprintf(w, "scans: %d bitmaps, %d files, %d bytes read\n", m.Stats.Scans, m.FilesRead, m.BytesRead)
	if *list {
		for _, rid := range firstIDs(res, *limit) {
			fmt.Fprintln(w, rid)
		}
	}
	if *metrics {
		fmt.Fprintln(w)
		fmt.Fprint(w, m.Trace.String())
		fmt.Fprintln(w)
		if err := bitmapindex.WriteMetrics(w); err != nil {
			return err
		}
	}
	return nil
}

// firstIDs returns the first limit set positions of v, in order.
func firstIDs(v *bitmapindex.Bitmap, limit int) []int {
	var ids []int
	v.Ones(func(i int) bool {
		if len(ids) == limit {
			return false
		}
		ids = append(ids, i)
		return true
	})
	return ids
}

func parsePredicate(q string) (bitmapindex.Op, uint64, error) {
	parts := strings.Fields(q)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("predicate must be \"<op> <value>\", got %q", q)
	}
	op, err := bitmapindex.ParseOp(parts[0])
	if err != nil {
		return 0, 0, err
	}
	v, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return op, v, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		out  = fs.String("values", "", "output file (required)")
		rows = fs.Int("rows", 100000, "number of rows")
		card = fs.Uint64("C", 50, "attribute cardinality")
		dist = fs.String("dist", "uniform", "distribution: uniform, zipf or clustered")
		seed = fs.Int64("seed", 1998, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen needs -values")
	}
	var col data.Column
	switch *dist {
	case "uniform":
		col = data.Uniform(*rows, *card, *seed)
	case "zipf":
		col = data.Zipf(*rows, *card, 1.5, *seed)
	case "clustered":
		col = data.Clustered(*rows, *card, 64, *seed)
	default:
		return fmt.Errorf("unknown distribution %q", *dist)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, v := range col.Values {
		fmt.Fprintln(w, v)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error takes precedence
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", *out, col)
	return nil
}
