package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/reorder"
)

// chunkRows straddle the roaring chunk boundary (k*2^16 ± 1), where the
// codec's last-chunk tail masking and container selection live.
var chunkRows = []int{1<<16 - 1, 1<<16 + 1}

// transitionValues mixes a clustered prefix (long runs of one value), a
// dense stripe and a sparse random tail, so the roaring containers for
// the same attribute cross array/bitmap/run forms within one index and
// flip forms again once the rows are sorted.
func transitionValues(n int, card uint64, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	vals := make([]uint64, n)
	for i := range vals {
		switch {
		case i < n/3:
			vals[i] = uint64(i/2048) % card // long runs
		case i < 2*n/3:
			vals[i] = uint64(r.Intn(2)) // dense half-and-half stripe
		default:
			vals[i] = uint64(r.Intn(int(card))) // sparse per-value bitmaps
		}
	}
	return vals
}

// TestCrossCodecResultsAndStatsAgree is the PR 9 property test: for every
// encoding, every operator, chunk-boundary row counts and both row
// orders, the dense, WAH and roaring stores return bit-identical results
// with identical evaluation Stats — the codec is invisible above the
// fetch seam.
func TestCrossCodecResultsAndStatsAgree(t *testing.T) {
	const card = 24
	for _, rows := range chunkRows {
		base := transitionValues(rows, card, int64(rows))
		for _, sorted := range []bool{false, true} {
			vals := base
			if sorted {
				vals = reorder.Apply(reorder.Permutation(reorder.Lex, [][]uint64{base}), base)
			}
			for _, enc := range []core.Encoding{core.RangeEncoded, core.EqualityEncoded, core.IntervalEncoded} {
				ix, err := core.Build(vals, card, core.Base{6, 4}, enc, nil)
				if err != nil {
					t.Fatal(err)
				}
				stores := make(map[Codec]*Store)
				for _, codec := range []Codec{CodecRaw, CodecWAH, CodecRoaring} {
					dir := filepath.Join(t.TempDir(), fmt.Sprintf("%s-%v-%v", codec, enc, sorted))
					st, err := Save(ix, dir, Options{Scheme: BitmapLevel, Codec: codec})
					if err != nil {
						t.Fatalf("%v: Save: %v", codec, err)
					}
					stores[codec] = st
				}
				for _, op := range core.AllOps {
					for _, v := range []uint64{0, 1, 7, card - 1, card + 2} {
						var mraw Metrics
						want, err := stores[CodecRaw].Eval(op, v, &mraw)
						if err != nil {
							t.Fatal(err)
						}
						for _, codec := range []Codec{CodecWAH, CodecRoaring} {
							var m Metrics
							got, err := stores[codec].Eval(op, v, &m)
							if err != nil {
								t.Fatalf("%v: Eval(A %s %d): %v", codec, op, v, err)
							}
							if !got.Equal(want) {
								t.Fatalf("rows=%d sorted=%v enc=%v codec=%v: A %s %d: result differs from dense",
									rows, sorted, enc, codec, op, v)
							}
							if m.Stats != mraw.Stats {
								t.Fatalf("rows=%d sorted=%v enc=%v codec=%v: A %s %d: Stats %+v, dense %+v",
									rows, sorted, enc, codec, op, v, m.Stats, mraw.Stats)
							}
						}
					}
				}
			}
		}
	}
}

// TestCrossCodecEvaluatorsAgree routes a roaring-backed store through the
// cached, segmented and batch evaluators and cross-checks each against
// serial dense evaluation: the codec plugs in behind the fetch seam, so
// every evaluator must work unchanged.
func TestCrossCodecEvaluatorsAgree(t *testing.T) {
	const card = 24
	rows := 1<<16 + 1
	vals := transitionValues(rows, card, 3)
	ix, err := core.Build(vals, card, core.Base{6, 4}, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Save(ix, t.TempDir(), Options{Scheme: BitmapLevel, Codec: CodecRoaring})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCached(st, ix.NumBitmaps()/2)
	if err != nil {
		t.Fatal(err)
	}
	var queries []core.Query
	for _, op := range []core.Op{core.Le, core.Eq, core.Gt} {
		for v := uint64(0); v < card; v += 5 {
			queries = append(queries, core.Query{Op: op, V: v})
			want := ix.Eval(op, v, nil)
			var m Metrics
			got, err := cs.Eval(op, v, &m)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("cached roaring A %s %d differs", op, v)
			}
			seg, err := segmentedEval(cs, op, v, &m, core.SegConfig{SegBits: 14, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !seg.Equal(want) {
				t.Fatalf("segmented roaring A %s %d differs", op, v)
			}
		}
	}
	var m Metrics
	batch, err := cs.EvalBatch(queries, 3, &m)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if !batch[i].Equal(ix.Eval(q.Op, q.V, nil)) {
			t.Fatalf("batch roaring A %s %d differs", q.Op, q.V)
		}
	}
}
