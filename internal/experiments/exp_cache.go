package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"bitmapindex/internal/buffer"
	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
	"bitmapindex/internal/storage"
)

// runAblationCache runs Section 10's buffering model against the served
// bitmap pool over the on-disk store, which pins the optimal static
// assignment: measured scans per query as a function of pool capacity,
// next to the eq. (5) prediction for that assignment.
func runAblationCache(cfg Config, w io.Writer) error {
	rows := cfg.Rows
	if cfg.Quick && rows > 10000 {
		rows = 10000
	}
	base := core.Base{8, 7} // C = 56, 13 stored bitmaps
	card, _ := base.Product()
	col := data.Uniform(rows, card, cfg.Seed)
	ix, err := core.Build(col.Values, col.Card, base, core.RangeEncoded, nil)
	if err != nil {
		return err
	}
	root, cleanup, err := storageDir(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	dir := filepath.Join(root, "cache")
	st, err := storage.Save(ix, dir, storage.Options{Scheme: storage.BitmapLevel, Codec: storage.CodecZlib})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	section(w, "pinned bitmap pool vs eq.(5): base %v, C = %d, N = %d", base, card, rows)
	t := newTable(w)
	t.row("capacity", "measured_scans/q", "eq5_optimal", "hit_rate")
	queries := 3000
	if cfg.Quick {
		queries = 800
	}
	for _, m := range []int{0, 1, 2, 4, 6, 8, 13} {
		cs, err := storage.NewCached(st, m)
		if err != nil {
			return err
		}
		r := rand.New(rand.NewSource(cfg.Seed))
		var met storage.Metrics
		for k := 0; k < queries; k++ {
			op := core.AllOps[r.Intn(6)]
			v := uint64(r.Intn(int(card)))
			if _, err := cs.Eval(op, v, &met); err != nil {
				return err
			}
		}
		measured := float64(met.Stats.Scans) / float64(queries)
		model := buffer.Time(base, card, buffer.Optimal(base, card, m))
		t.row(m, fmt.Sprintf("%.3f", measured), fmt.Sprintf("%.3f", model),
			fmt.Sprintf("%.2f", cs.HitRate()))
	}
	return t.flush()
}
