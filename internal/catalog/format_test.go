package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/design"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/reorder"
	"bitmapindex/internal/storage"
)

// withRegion adds a low-cardinality third column, so that the
// cardinality sort key (region, quantity, price) differs from column
// order (quantity, price, region).
func withRegion(t *testing.T, rel *engine.Relation, seed int64) *engine.Relation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	region := make([]int64, rel.Rows())
	for i := range region {
		region[i] = int64(r.Intn(8))
	}
	if _, err := rel.AddInt64("region", region); err != nil {
		t.Fatal(err)
	}
	return rel
}

var formatQueries = [][]engine.Pred{
	{{Col: "quantity", Op: core.Le, Val: 10}},
	{{Col: "quantity", Op: core.Gt, Val: 25}, {Col: "price", Op: core.Lt, Val: 700}},
	{{Col: "region", Op: core.Eq, Val: 3}, {Col: "price", Op: core.Ge, Val: 200}},
	{{Col: "price", Op: core.Eq, Val: 37}},
	{{Col: "quantity", Op: core.Ge, Val: 1}, {Col: "price", Op: core.Ne, Val: 0}, {Col: "region", Op: core.Lt, Val: 6}},
}

// writeV1Table writes rel the way version 1 of the descriptor did: rows
// sorted by ord over the columns in column order, the permutation at 8
// little-endian bytes per row, and no sort key.
func writeV1Table(t *testing.T, dir string, rel *engine.Relation, ord reorder.Order) {
	t.Helper()
	names := rel.ColumnNames()
	cols := make([]*engine.Column, len(names))
	rankCols := make([][]uint64, len(names))
	for i, name := range names {
		col, err := rel.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		cols[i], rankCols[i] = col, col.Ranks()
	}
	perm := reorder.Permutation(ord, rankCols)
	meta := tableMeta{Version: 1, Name: rel.Name, Rows: rel.Rows(), Reorder: ord.String()}
	for i, col := range cols {
		base, err := design.Knee(col.Card())
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.Build(reorder.Apply(perm, col.Ranks()), col.Card(), base, core.RangeEncoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		sub := fmt.Sprintf("attr_%03d", i)
		if _, err := storage.Save(ix, filepath.Join(dir, sub), storage.Options{}); err != nil {
			t.Fatal(err)
		}
		meta.Attrs = append(meta.Attrs, attrMeta{Name: col.Name, Dir: sub, Dict: col.Dict().Values()})
	}
	pb := make([]byte, 8*len(perm))
	for i, p := range perm {
		binary.LittleEndian.PutUint64(pb[8*i:], uint64(p))
	}
	meta.PermChecksum = crc32.ChecksumIEEE(pb)
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, permFile), pb, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tableFile), mj, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVersion1TableOpens: a table in the version-1 layout opens, reports
// its column-order sort key, and answers Count and Query (row ids
// included) exactly as a version-2 table over the same relation, whose
// rows are sorted by a different key.
func TestVersion1TableOpens(t *testing.T) {
	rel := withRegion(t, buildRelation(t, 1500, 43), 44)
	for _, ord := range []reorder.Order{reorder.Lex, reorder.Gray} {
		v1Dir := t.TempDir()
		writeV1Table(t, v1Dir, rel, ord)
		v1, err := Open(v1Dir)
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		v2, err := Create(t.TempDir(), rel, Options{Reorder: ord})
		if err != nil {
			t.Fatal(err)
		}
		if got := v1.SortKey(); !slices.Equal(got, []string{"quantity", "price", "region"}) {
			t.Errorf("%v: version-1 sort key %v, want column order", ord, got)
		}
		if got := v2.SortKey(); !slices.Equal(got, []string{"region", "quantity", "price"}) {
			t.Errorf("%v: version-2 sort key %v, want ascending cardinality", ord, got)
		}
		if v1.PermutationBytes() != 8*v1.Rows() {
			t.Errorf("%v: version-1 permutation %d bytes, want %d", ord, v1.PermutationBytes(), 8*v1.Rows())
		}
		if slices.Equal(v1.Permutation(), v2.Permutation()) {
			t.Errorf("%v: both sort keys gave the same permutation; the test cannot tell them apart", ord)
		}
		for qi, preds := range formatQueries {
			want, err := v2.Query(preds, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := v1.Query(preds, nil)
			if err != nil {
				t.Fatalf("%v q%d: %v", ord, qi, err)
			}
			if !got.Equal(want) {
				t.Errorf("%v q%d: version-1 row ids differ from version 2", ord, qi)
			}
			n, err := v1.Count(preds, nil)
			if err != nil || n != want.Count() {
				t.Errorf("%v q%d: version-1 Count = %d, want %d (err %v)", ord, qi, n, want.Count(), err)
			}
		}
	}
}

// TestDescriptorVersion2 pins what Create writes: version 2, the sort
// key by ascending cardinality, and perm.bin at ⌈log2 rows⌉ bits per row.
func TestDescriptorVersion2(t *testing.T) {
	rel := withRegion(t, buildRelation(t, 1500, 45), 46)
	dir := t.TempDir()
	tbl, err := Create(dir, rel, Options{Reorder: reorder.Lex})
	if err != nil {
		t.Fatal(err)
	}
	mj, err := os.ReadFile(filepath.Join(dir, tableFile))
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Version int      `json:"version"`
		SortKey []string `json:"sort_key"`
	}
	if err := json.Unmarshal(mj, &desc); err != nil {
		t.Fatal(err)
	}
	if desc.Version != 2 || !slices.Equal(desc.SortKey, []string{"region", "quantity", "price"}) {
		t.Errorf("descriptor version %d, sort_key %v", desc.Version, desc.SortKey)
	}
	fi, err := os.Stat(filepath.Join(dir, permFile))
	if err != nil {
		t.Fatal(err)
	}
	// 1500 rows need 11 bits: 16500 bits round up to 258 words.
	if want := int64(8 * 258); fi.Size() != want || tbl.PermutationBytes() != int(want) {
		t.Errorf("perm.bin %d bytes, PermutationBytes %d, want %d", fi.Size(), tbl.PermutationBytes(), want)
	}
	plain, err := Create(t.TempDir(), rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.SortKey() != nil || plain.PermutationBytes() != 0 {
		t.Errorf("unsorted table: sort key %v, %d permutation bytes", plain.SortKey(), plain.PermutationBytes())
	}
}

// TestReorderEdgeRowCounts: at row counts around the packed width's
// steps (1 and 2 rows need 1 bit, 2^k rows k bits, 2^k+1 rows k+1 bits)
// every sort order's table answers as a full scan of the relation.
func TestReorderEdgeRowCounts(t *testing.T) {
	for _, rows := range []int{1, 2, 64, 65, 1024, 1025} {
		rel := withRegion(t, buildRelation(t, rows, int64(rows)), int64(rows)+1)
		for _, ord := range []reorder.Order{reorder.None, reorder.Lex, reorder.Gray} {
			tbl, err := Create(t.TempDir(), rel, Options{Reorder: ord})
			if err != nil {
				t.Fatalf("%d rows, %v: %v", rows, ord, err)
			}
			for qi, preds := range formatQueries {
				want, _, err := rel.Select(preds, engine.FullScan)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tbl.Query(preds, nil)
				if err != nil {
					t.Fatalf("%d rows, %v q%d: %v", rows, ord, qi, err)
				}
				if !got.Equal(want) {
					t.Errorf("%d rows, %v q%d: answer differs from the unsorted relation", rows, ord, qi)
				}
			}
		}
	}
}

// FuzzDecodeTable feeds arbitrary descriptor and permutation bytes to
// Open's parser. It must never panic and must fail only with
// storage.ErrCorrupt. What it accepts must be a valid table: a
// permutation exactly when rows were reordered, packed in the very bytes
// it was read from, and a descriptor that re-encodes to a fixed point.
func FuzzDecodeTable(f *testing.F) {
	for _, rows := range []int{1, 2, 63, 64, 65, 127, 129, 1023, 1025} {
		perm := rand.New(rand.NewSource(int64(rows))).Perm(rows)
		for _, version := range []int{1, tableVersion} {
			meta := tableMeta{Version: version, Name: "t", Rows: rows, Reorder: "lex", Attrs: []attrMeta{
				{Name: "a", Dir: "attr_000", Dict: []int64{1, 5, 9}},
				{Name: "b", Dir: "attr_001", Dict: []int64{-2, 0}},
			}}
			if version == tableVersion {
				meta.SortKey = []string{"b", "a"}
			}
			mj, pb, err := encodeTable(meta, perm)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(mj, pb)
		}
	}
	mj, _, err := encodeTable(tableMeta{Version: tableVersion, Name: "t", Rows: 3, Reorder: "none",
		Attrs: []attrMeta{{Name: "a", Dir: "attr_000", Dict: []int64{7}}}}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mj, []byte(nil))
	f.Fuzz(func(t *testing.T, mj, pb []byte) {
		meta, perm, err := decodeTable(mj, pb)
		if err != nil {
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("error %v does not wrap storage.ErrCorrupt", err)
			}
			return
		}
		ord, err := reorder.ParseOrder(meta.Reorder)
		if err != nil {
			t.Fatal(err)
		}
		if ord == reorder.None {
			if perm != nil {
				t.Fatal("unsorted table decoded a permutation")
			}
		} else if err := reorder.Validate(perm, meta.Rows); err != nil {
			t.Fatal(err)
		}
		mj2, pb2, err := encodeTable(meta, perm)
		if err != nil {
			t.Fatal(err)
		}
		if perm != nil && !bytes.Equal(pb2, pb) {
			t.Fatalf("permutation re-encodes to %d different bytes from %d", len(pb2), len(pb))
		}
		meta2, perm2, err := decodeTable(mj2, pb2)
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		if !slices.Equal(perm2, perm) {
			t.Fatal("permutation changed across a round trip")
		}
		mj3, _, err := encodeTable(meta2, perm2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mj3, mj2) {
			t.Fatalf("descriptor is not a fixed point:\n%s\n%s", mj2, mj3)
		}
	})
}
