package catalog

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/reorder"
	"bitmapindex/internal/storage"
)

// TestReorderedTableAnswersMatch creates the same relation with every
// combination of sort order and codec and checks Query answers in
// original row ids, identical to the unreordered table.
func TestReorderedTableAnswersMatch(t *testing.T) {
	rel := buildRelation(t, 1500, 17)
	plain, err := Create(t.TempDir(), rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]engine.Pred{
		{{Col: "quantity", Op: core.Le, Val: 10}},
		{{Col: "quantity", Op: core.Gt, Val: 25}, {Col: "price", Op: core.Lt, Val: 700}},
		{{Col: "price", Op: core.Eq, Val: 35}},
		{{Col: "quantity", Op: core.Ge, Val: 1}, {Col: "price", Op: core.Ne, Val: 0}},
	}
	for _, ord := range []reorder.Order{reorder.Lex, reorder.Gray} {
		for _, codec := range []storage.Codec{storage.CodecRaw, storage.CodecRoaring} {
			dir := t.TempDir()
			if _, err := Create(dir, rel, Options{
				Store:   storage.Options{Scheme: storage.BitmapLevel, Codec: codec},
				Reorder: ord,
			}); err != nil {
				t.Fatalf("%v/%v: %v", ord, codec, err)
			}
			tbl, err := Open(dir)
			if err != nil {
				t.Fatalf("%v/%v: %v", ord, codec, err)
			}
			if tbl.Reorder() != ord {
				t.Fatalf("%v/%v: Reorder() = %v", ord, codec, tbl.Reorder())
			}
			if err := reorder.Validate(tbl.Permutation(), tbl.Rows()); err != nil {
				t.Fatalf("%v/%v: %v", ord, codec, err)
			}
			for qi, preds := range queries {
				want, err := plain.Query(preds, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tbl.Query(preds, nil)
				if err != nil {
					t.Fatalf("%v/%v q%d: %v", ord, codec, qi, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%v/%v q%d: reordered table answers differently", ord, codec, qi)
				}
			}
		}
	}
}

// TestReorderShrinksRoaringStorage pins the space payoff: the sorted
// roaring store is strictly smaller than the unsorted one.
func TestReorderShrinksRoaringStorage(t *testing.T) {
	rel := buildRelation(t, 1<<14, 23)
	size := func(ord reorder.Order) int64 {
		tbl, err := Create(t.TempDir(), rel, Options{
			Store:   storage.Options{Scheme: storage.BitmapLevel, Codec: storage.CodecRoaring},
			Reorder: ord,
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, name := range tbl.Attributes() {
			a, err := tbl.Attr(name)
			if err != nil {
				t.Fatal(err)
			}
			total += a.Store().ValueBytes()
		}
		return total
	}
	unsorted, sorted := size(reorder.None), size(reorder.Lex)
	if sorted >= unsorted {
		t.Fatalf("sorted roaring store %d bytes >= unsorted %d", sorted, unsorted)
	}
}

// TestCorruptPermutationRejected covers the descriptor, dictionary and
// perm.bin integrity checks: every kind of damage fails Open with an
// error that wraps storage.ErrCorrupt. Damaged permutations past the checksum are
// resealed (their CRC recomputed) so that the later checks must catch
// them.
func TestCorruptPermutationRejected(t *testing.T) {
	rel := buildRelation(t, 300, 31)
	dir := t.TempDir()
	if _, err := Create(dir, rel, Options{Reorder: reorder.Lex}); err != nil {
		t.Fatal(err)
	}
	tp, pp := filepath.Join(dir, tableFile), filepath.Join(dir, permFile)
	mj, err := os.ReadFile(tp)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := os.ReadFile(pp)
	if err != nil {
		t.Fatal(err)
	}
	meta, perm, err := decodeTable(mj, pb)
	if err != nil {
		t.Fatal(err)
	}
	// 300 entries of 9 bits leave 12 bits of the last word as padding.
	w := permWidth(meta.Version, meta.Rows)
	if w != 9 || meta.Rows*w%64 == 0 {
		t.Fatalf("width %d at %d rows leaves no padding to damage", w, meta.Rows)
	}
	marshal := func(m tableMeta) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	reseal := func(pb []byte) []byte {
		m := meta
		m.PermChecksum = crc32.ChecksumIEEE(pb)
		return marshal(m)
	}
	versioned := func(v int) []byte {
		m := meta
		m.Version = v
		return marshal(m)
	}
	withDict := func(dict []int64) []byte {
		m := meta
		m.Attrs = append([]attrMeta(nil), meta.Attrs...)
		m.Attrs[0].Dict = dict
		return marshal(m)
	}
	dict := meta.Attrs[0].Dict
	unsorted := append([]int64{dict[1], dict[0]}, dict[2:]...)
	flipped := append([]byte(nil), pb...)
	flipped[0] ^= 0xff
	short := pb[:len(pb)-8]
	long := append(append([]byte(nil), pb...), make([]byte, 8)...)
	padded := append([]byte(nil), pb...)
	padded[len(padded)-1] |= 0x80
	repeat := append([]int(nil), perm...)
	repeat[1] = repeat[0]
	repeated := packPerm(repeat, w)
	outside := append([]int(nil), perm...)
	outside[0] = meta.Rows
	outOfRange := packPerm(outside, w)
	for _, c := range []struct {
		name   string
		mj, pb []byte
	}{
		{"bad json", []byte(`{"version": 2,`), pb},
		{"version 0", versioned(0), pb},
		{"version 3", versioned(3), pb},
		{"crc mismatch", mj, flipped},
		{"short", reseal(short), short},
		{"long", reseal(long), long},
		{"padding bit", reseal(padded), padded},
		{"repeated row", reseal(repeated), repeated},
		{"row out of range", reseal(outOfRange), outOfRange},
		{"unsorted dictionary", withDict(unsorted), pb},
		{"dictionary short of a value", withDict(dict[1:]), pb},
	} {
		if err := os.WriteFile(tp, c.mj, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pp, c.pb, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: Open error %v, want one wrapping storage.ErrCorrupt", c.name, err)
		}
	}
	// Missing file.
	if err := os.WriteFile(tp, mj, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(pp); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("opened table with missing perm.bin")
	}
}
