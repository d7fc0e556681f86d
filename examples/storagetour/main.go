// Storagetour: save one bitmap index in every physical layout the paper
// studies (BS, CS, IS, each optionally zlib-compressed), then query each
// store and compare disk footprint against per-query bytes read — the
// space-time tradeoff of Section 9 in miniature.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"bitmapindex"
	"bitmapindex/internal/data"
)

func main() {
	const rows = 100000
	col := data.LineitemQuantity(rows, 42)

	ix, err := bitmapindex.New(col.Values, col.Card)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index over %s: %s\n\n", col, bitmapindex.Describe(ix.Base(), ix.Encoding(), ix.Cardinality()))

	root, err := os.MkdirTemp("", "storagetour-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	layouts := []bitmapindex.StoreOptions{
		{Scheme: bitmapindex.BitmapLevel},
		{Scheme: bitmapindex.BitmapLevel, Codec: bitmapindex.CodecZlib},
		{Scheme: bitmapindex.ComponentLevel},
		{Scheme: bitmapindex.ComponentLevel, Codec: bitmapindex.CodecZlib},
		{Scheme: bitmapindex.IndexLevel},
		{Scheme: bitmapindex.IndexLevel, Codec: bitmapindex.CodecZlib},
	}
	fmt.Printf("%-6s %12s %14s %14s %10s\n", "layout", "disk_bytes", "bytes/query", "scans/query", "time/query")
	for _, opts := range layouts {
		dir := filepath.Join(root, opts.String())
		st, err := bitmapindex.SaveIndex(ix, dir, opts)
		if err != nil {
			log.Fatal(err)
		}
		// The paper's restricted query set: A <= v and A = v for all v.
		var m bitmapindex.StoreMetrics
		t0 := time.Now()
		for _, op := range []bitmapindex.Op{bitmapindex.Le, bitmapindex.Eq} {
			for v := uint64(0); v < col.Card; v++ {
				res, err := st.Eval(op, v, &m)
				if err != nil {
					log.Fatal(err)
				}
				// Sanity: compare one result against the in-memory index.
				if v == 17 && op == bitmapindex.Le && !res.Equal(ix.Eval(op, v, nil)) {
					log.Fatal("on-disk result differs from in-memory result")
				}
			}
		}
		elapsed := time.Since(t0)
		q := int64(2 * col.Card)
		fmt.Printf("%-6s %12d %14d %14.2f %10s\n",
			opts, st.ValueBytes(), m.BytesRead/q, float64(m.Stats.Scans)/float64(q),
			(elapsed / time.Duration(q)).Round(time.Microsecond))
	}

	fmt.Println("\ncBS keeps BS's read-only-what-you-scan behaviour with a smaller footprint;")
	fmt.Println("cCS is the most compact but reads and inflates whole components per query (Table 4 / Figure 16).")
}
