// Maintenance: the read-mostly warehouse lifecycle around a bitmap index.
// A nightly-loaded fact table takes a trickle of late-arriving rows and
// corrections during the day (append segment + tombstones, queries stay
// consistent throughout), then compacts back into a fresh immutable index
// and persists it.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"bitmapindex"
	"bitmapindex/internal/data"
)

func main() {
	const card = 50 // lineitem.quantity

	// Nightly load: 100k rows arrive in one batch.
	batch := data.LineitemQuantity(100000, 9)
	base, err := bitmapindex.New(batch.Values, card)
	if err != nil {
		log.Fatal(err)
	}
	m := bitmapindex.NewMutableFrom(base)
	fmt.Printf("loaded %d rows into %v\n", m.Rows(), base.Base())

	count := func(tag string) {
		res := m.Eval(bitmapindex.Le, 10)
		fmt.Printf("%-28s rows=%-7d live=%-7d delta=%-5d |A<=10|=%d\n",
			tag, m.Rows(), m.Live(), m.DeltaRows(), res.Count())
	}
	count("after nightly load:")

	// During the day: late rows trickle in...
	late := data.LineitemQuantity(500, 10)
	for _, v := range late.Values {
		if _, err := m.Append(v); err != nil {
			log.Fatal(err)
		}
	}
	// ...and a correction voids a block of rows.
	for r := 1000; r < 1250; r++ {
		if err := m.Delete(r); err != nil {
			log.Fatal(err)
		}
	}
	count("after day's changes:")

	// Queries during the day remain exact: cross-check one against a
	// scalar recount.
	want := 0
	for i, v := range batch.Values {
		if (i < 1000 || i >= 1250) && v <= 10 {
			want++
		}
	}
	for _, v := range late.Values {
		if v <= 10 {
			want++
		}
	}
	if got := m.Eval(bitmapindex.Le, 10).Count(); got != want {
		log.Fatalf("consistency check failed: %d vs %d", got, want)
	}
	fmt.Println("mid-day query cross-check passed")

	// Nightly compaction folds everything into a fresh base index...
	if err := m.Compact(); err != nil {
		log.Fatal(err)
	}
	count("after compaction:")

	// ...which persists like any other index.
	dir, err := os.MkdirTemp("", "maintenance-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := bitmapindex.SaveIndex(m.Base(), filepath.Join(dir, "ix"),
		bitmapindex.StoreOptions{Scheme: bitmapindex.BitmapLevel, Codec: bitmapindex.CodecZlib})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted compacted index: %d bytes on disk (cBS)\n", st.ValueBytes())
}
