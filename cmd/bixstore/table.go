package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"bitmapindex"
	"bitmapindex/internal/catalog"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/reorder"
	"bitmapindex/internal/storage"
)

// cmdCSV loads a CSV file (header row + integer cells) into a catalog of
// per-column bitmap indexes.
func cmdCSV(args []string) error { return runCSV(os.Stdout, args) }

// runCSV is cmdCSV writing to w, so tests can inspect the output.
func runCSV(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("csv", flag.ExitOnError)
	var (
		in     = fs.String("in", "", "CSV file with a header row and integer cells (required)")
		dir    = fs.String("dir", "", "output table directory (required)")
		scheme = fs.String("scheme", "BS", "storage scheme: BS, CS or IS")
		z      = fs.Bool("z", false, "zlib-compress the stored files")
		codec  = fs.String("codec", "", "compression codec: raw, zlib or roaring (overrides -z)")
		encStr = fs.String("enc", "range", "encoding: range, equality or interval")
		sortBy = fs.String("reorder", "none", "row sort before indexing: none, lex or gray")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *dir == "" {
		return fmt.Errorf("csv needs -in and -dir")
	}
	rel, err := loadCSV(*in)
	if err != nil {
		return err
	}
	sc, err := bitmapindex.ParseStoreScheme(*scheme)
	if err != nil {
		return err
	}
	enc, err := bitmapindex.ParseEncoding(*encStr)
	if err != nil {
		return err
	}
	cd, err := storeCodec(*codec, *z)
	if err != nil {
		return err
	}
	ord, err := reorder.ParseOrder(*sortBy)
	if err != nil {
		return err
	}
	tbl, err := catalog.Create(*dir, rel, catalog.Options{
		Store:    storage.Options{Scheme: sc, Codec: cd},
		Encoding: enc,
		Reorder:  ord,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "indexed table %s: %d rows, %d attributes\n", tbl.Name(), tbl.Rows(), len(tbl.Attributes()))
	for _, name := range tbl.Attributes() {
		a, err := tbl.Attr(name)
		if err != nil {
			return err
		}
		ix := a.Store().Index()
		fmt.Fprintf(w, "  %-16s C=%-6d %s (%d bytes on disk)\n", name, a.Dict().Card(),
			bitmapindex.Describe(ix.Base(), ix.Encoding(), ix.Cardinality()), a.Store().ValueBytes())
	}
	if key := tbl.SortKey(); key != nil {
		fmt.Fprintf(w, "  %-16s %s by %s (%d bytes on disk)\n", "row permutation", tbl.Reorder(),
			strings.Join(key, ", "), tbl.PermutationBytes())
	}
	return nil
}

// loadCSV reads the file into a relation, dictionary-encoding each column.
func loadCSV(path string) (*engine.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd := csv.NewReader(f)
	rows, err := rd.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("%s: need a header row and at least one data row", path)
	}
	header := rows[0]
	cols := make([][]int64, len(header))
	for ri, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, fmt.Errorf("%s: row %d has %d cells, header has %d", path, ri+2, len(row), len(header))
		}
		for ci, cell := range row {
			v, err := strconv.ParseInt(strings.TrimSpace(cell), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: row %d column %q: %v", path, ri+2, header[ci], err)
			}
			cols[ci] = append(cols[ci], v)
		}
	}
	rel := engine.NewRelation(strings.TrimSuffix(path[strings.LastIndexByte(path, '/')+1:], ".csv"))
	for ci, name := range header {
		if _, err := rel.AddInt64(strings.TrimSpace(name), cols[ci]); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// cmdWhere runs a conjunctive query against a catalog built by cmdCSV.
func cmdWhere(args []string) error { return runWhere(os.Stdout, args) }

// runWhere is cmdWhere writing to w, so tests can inspect the output.
func runWhere(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("where", flag.ExitOnError)
	var (
		dir   = fs.String("dir", "", "table directory (required)")
		q     = fs.String("q", "", "conjunction, e.g. \"quantity <= 10 AND price > 500\" (required)")
		rids  = fs.Bool("rids", false, "print matching record ids")
		limit = fs.Int("limit", 20, "max record ids to print")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *q == "" {
		return fmt.Errorf("where needs -dir and -q")
	}
	if *limit < 0 {
		return fmt.Errorf("bad limit %d", *limit)
	}
	preds, err := parseConjunction(*q)
	if err != nil {
		return err
	}
	tbl, err := catalog.Open(*dir)
	if err != nil {
		return err
	}
	var m storage.Metrics
	matches, res, err := evalConjunction(tbl, preds, &m, *rids)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d of %d rows match\n", matches, tbl.Rows())
	fmt.Fprintf(w, "scans: %d bitmaps, %d files, %d bytes read\n", m.Stats.Scans, m.FilesRead, m.BytesRead)
	if *rids {
		for _, rid := range firstIDs(res, *limit) {
			fmt.Fprintln(w, rid)
		}
	}
	return nil
}

// evalConjunction counts the rows matching preds. Only with rids does it
// also return their bitmap, over original row ids: that costs
// Table.Query's map-back through the row permutation, which a count in
// sorted row space (Table.Count) does not need.
func evalConjunction(tbl *catalog.Table, preds []engine.Pred, m *storage.Metrics, rids bool) (int, *bitmapindex.Bitmap, error) {
	if !rids {
		n, err := tbl.Count(preds, m)
		return n, nil, err
	}
	res, err := tbl.Query(preds, m)
	if err != nil {
		return 0, nil, err
	}
	return res.Count(), res, nil
}

// parseConjunction parses "col op val AND col op val ...".
func parseConjunction(s string) ([]engine.Pred, error) {
	var preds []engine.Pred
	for _, clause := range strings.Split(s, " AND ") {
		p, err := parseClause(strings.TrimSpace(clause))
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	return preds, nil
}

// clauseOps lists the operator spellings, longest first so that at one
// position "<=" wins over "<".
var clauseOps = []string{"<=", ">=", "!=", "<>", "==", "=", "<", ">"}

// parseClause parses "col op val", splitting at the leftmost operator. The
// column name therefore holds no operator, and it may not end in " AND",
// so the clause's printed form (Pred.String) parses back to the same
// predicate, alone or inside a conjunction.
func parseClause(s string) (engine.Pred, error) {
	for i := range s {
		for _, opStr := range clauseOps {
			if !strings.HasPrefix(s[i:], opStr) {
				continue
			}
			col := strings.TrimSpace(s[:i])
			valStr := strings.TrimSpace(s[i+len(opStr):])
			if col == "" || valStr == "" || strings.HasSuffix(col, " AND") {
				return engine.Pred{}, fmt.Errorf("bad clause %q", s)
			}
			op, err := bitmapindex.ParseOp(opStr)
			if err != nil {
				return engine.Pred{}, err
			}
			v, err := strconv.ParseInt(valStr, 10, 64)
			if err != nil {
				return engine.Pred{}, fmt.Errorf("bad constant in %q: %v", s, err)
			}
			return engine.Pred{Col: col, Op: op, Val: v}, nil
		}
	}
	return engine.Pred{}, fmt.Errorf("no operator in clause %q", s)
}
