package experiments

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
	"bitmapindex/internal/design"
	"bitmapindex/internal/storage"
	"bitmapindex/internal/wah"
)

// dataSets returns the two TPC-D-style columns of Table 3, scaled to
// cfg.Rows.
func dataSets(cfg Config) []data.Column {
	rows := cfg.Rows
	if cfg.Quick && rows > 20000 {
		rows = 20000
	}
	return []data.Column{
		data.LineitemQuantity(rows, cfg.Seed),
		data.OrderDate(rows, cfg.Seed+1),
	}
}

// runTable3 prints the characteristics of the experimental data (the
// paper's Table 3, with the scaled-down relation cardinality).
func runTable3(cfg Config, w io.Writer) error {
	section(w, "Table 3: characteristics of the TPC-D-style data sets")
	t := newTable(w)
	t.row("", "data set 1", "data set 2")
	ds := dataSets(cfg)
	t.row("relation", "Lineitem", "Order")
	t.row("relation cardinality (paper)", 6001215, 1500000)
	t.row("relation cardinality (here)", ds[0].Rows(), ds[1].Rows())
	t.row("attribute", "Quantity", "OrderDate")
	t.row("attribute cardinality C", ds[0].Card, ds[1].Card)
	return t.flush()
}

// storageDir returns a working directory for on-disk indexes.
func storageDir(cfg Config) (string, func(), error) {
	if cfg.TempDir != "" {
		return cfg.TempDir, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "bitmapindex-exp-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}

// table4Bases returns the space-optimal bases used for the storage
// experiments of a data set: 6 consecutive component counts, starting at
// n = 1 for small cardinalities and n = 2 for large ones (a
// single-component index over C = 2406 stores 2,405 bitmaps).
func table4Bases(card uint64) ([]core.Base, error) {
	start := 1
	if card > 1000 {
		start = 2
	}
	var out []core.Base
	for n := start; n < start+6 && n <= design.MaxComponents(card); n++ {
		b, err := design.SpaceOptimalBest(card, n)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// runTable4 reproduces Table 4: on-disk size of each storage scheme as a
// percentage of the uncompressed BS size, for space-optimal indexes of
// increasing component count over both data sets.
func runTable4(cfg Config, w io.Writer) error {
	root, cleanup, err := storageDir(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	for di, col := range dataSets(cfg) {
		bases, err := table4Bases(col.Card)
		if err != nil {
			return err
		}
		section(w, "Table 4(%c): %s, N = %d, C = %d", 'a'+di, col.Name, col.Rows(), col.Card)
		t := newTable(w)
		t.row("base", "BS_bytes", "cBS%", "cCS%", "cIS%")
		for bi, base := range bases {
			ix, err := core.Build(col.Values, col.Card, base, core.RangeEncoded, nil)
			if err != nil {
				return err
			}
			sizes := map[string]int64{}
			for _, opts := range []storage.Options{
				{Scheme: storage.BitmapLevel},
				{Scheme: storage.BitmapLevel, Codec: storage.CodecZlib},
				{Scheme: storage.ComponentLevel, Codec: storage.CodecZlib},
				{Scheme: storage.IndexLevel, Codec: storage.CodecZlib},
			} {
				dir := filepath.Join(root, fmt.Sprintf("t4_%d_%d_%s", di, bi, opts))
				st, err := storage.Save(ix, dir, opts)
				if err != nil {
					return err
				}
				sizes[opts.String()] = st.ValueBytes()
			}
			pct := func(k string) string {
				return fmt.Sprintf("%.1f", 100*float64(sizes[k])/float64(sizes["BS"]))
			}
			t.row(base, sizes["BS"], pct("cBS"), pct("cCS"), pct("cIS"))
		}
		if err := t.flush(); err != nil {
			return err
		}
	}
	return nil
}

// runFig16 reproduces Figure 16: average query evaluation time (a), space
// (b), and the combined tradeoff (c) for BS-, cBS- and cCS-indexes on data
// set 1, per component count. Queries follow the paper's restricted set
// Q' = {A <= v, A = v : 0 <= v < C}.
func runFig16(cfg Config, w io.Writer) error {
	root, cleanup, err := storageDir(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	col := dataSets(cfg)[0]
	bases, err := table4Bases(col.Card)
	if err != nil {
		return err
	}
	section(w, "Figure 16: %s, N = %d, C = %d; avg over %d queries (<=, =)", col.Name, col.Rows(), col.Card, 2*col.Card)
	t := newTable(w)
	t.row("n", "base", "layout", "space_bytes", "avg_time_us", "read%", "decompress%", "extract%", "bytes/query")
	for _, base := range bases {
		ix, err := core.Build(col.Values, col.Card, base, core.RangeEncoded, nil)
		if err != nil {
			return err
		}
		for _, opts := range []storage.Options{
			{Scheme: storage.BitmapLevel},
			{Scheme: storage.BitmapLevel, Codec: storage.CodecZlib},
			{Scheme: storage.ComponentLevel, Codec: storage.CodecZlib},
		} {
			dir := filepath.Join(root, fmt.Sprintf("f16_%d_%s", base.N(), opts))
			st, err := storage.Save(ix, dir, opts)
			if err != nil {
				return err
			}
			var m storage.Metrics
			t0 := time.Now()
			for _, op := range []core.Op{core.Le, core.Eq} {
				for v := uint64(0); v < col.Card; v++ {
					if _, err := st.Eval(op, v, &m); err != nil {
						return err
					}
				}
			}
			total := time.Since(t0).Nanoseconds()
			q := int64(2 * col.Card)
			pct := func(ns int64) string { return fmt.Sprintf("%.0f%%", 100*float64(ns)/float64(total)) }
			t.row(base.N(), base, opts, st.ValueBytes(),
				fmt.Sprintf("%.1f", float64(total)/float64(q)/1000),
				pct(m.ReadNS), pct(m.DecompressNS), pct(m.ExtractNS),
				m.BytesRead/q)
		}
	}
	return t.flush()
}

// runAblationWAH compares zlib (the paper's compressor) with WAH-style
// run-length compression per bitmap: compressed size, and the time to AND
// two bitmaps including any decompression.
func runAblationWAH(cfg Config, w io.Writer) error {
	rows := cfg.Rows
	if cfg.Quick && rows > 20000 {
		rows = 20000
	}
	cols := []data.Column{
		data.LineitemQuantity(rows, cfg.Seed),
		data.Clustered(rows, 50, 64, cfg.Seed+2),
	}
	section(w, "Ablation: zlib vs WAH per-bitmap compression (N = %d)", rows)
	t := newTable(w)
	t.row("column", "base", "raw_bytes", "zlib_bytes", "wah_bytes", "zlib_and_us", "wah_and_us")
	for _, col := range cols {
		base, err := design.Knee(col.Card)
		if err != nil {
			return err
		}
		ix, err := core.Build(col.Values, col.Card, base, core.RangeEncoded, nil)
		if err != nil {
			return err
		}
		var raw, zl, wh int64
		type pair struct {
			z []byte
			w *wah.Bitmap
		}
		var all []pair
		for i := 0; i < ix.Components(); i++ {
			for j := 0; j < ix.ComponentBitmaps(i); j++ {
				bm := ix.StoredBitmap(i, j)
				raw += int64(bm.SizeBytes())
				var buf bytes.Buffer
				zw := zlib.NewWriter(&buf)
				if _, err := zw.Write(bm.PayloadBytes()); err != nil {
					return err
				}
				if err := zw.Close(); err != nil {
					return err
				}
				cw := wah.Compress(bm)
				zl += int64(buf.Len())
				wh += int64(cw.SizeBytes())
				all = append(all, pair{z: buf.Bytes(), w: cw})
			}
		}
		// Time AND of adjacent bitmap pairs through each path.
		reps := 1
		if len(all) < 2 {
			return fmt.Errorf("need at least two bitmaps")
		}
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for i := 0; i+1 < len(all); i++ {
				a, err := inflateToVector(all[i].z, rows)
				if err != nil {
					return err
				}
				b, err := inflateToVector(all[i+1].z, rows)
				if err != nil {
					return err
				}
				a.And(b)
			}
		}
		zlibNS := time.Since(t0).Nanoseconds()
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			for i := 0; i+1 < len(all); i++ {
				wah.And(all[i].w, all[i+1].w)
			}
		}
		wahNS := time.Since(t0).Nanoseconds()
		pairs := int64(len(all) - 1)
		t.row(col.Name, base, raw, zl, wh,
			fmt.Sprintf("%.1f", float64(zlibNS)/float64(pairs)/1000),
			fmt.Sprintf("%.1f", float64(wahNS)/float64(pairs)/1000))
	}
	return t.flush()
}

func inflateToVector(z []byte, rows int) (*bitvec.Vector, error) {
	zr, err := zlib.NewReader(bytes.NewReader(z))
	if err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var v bitvec.Vector
	if err := v.SetPayload(rows, payload); err != nil {
		return nil, err
	}
	return &v, nil
}
