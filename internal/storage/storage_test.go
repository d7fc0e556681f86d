package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
	"bitmapindex/internal/roaring"
)

func allOptions() []Options {
	var out []Options
	for _, sc := range []Scheme{BitmapLevel, ComponentLevel, IndexLevel} {
		for _, codec := range []Codec{CodecRaw, CodecZlib, CodecRoaring} {
			out = append(out, Options{Scheme: sc, Codec: codec})
		}
	}
	return out
}

func buildTestIndex(t *testing.T, enc core.Encoding, withNulls bool) (*core.Index, []uint64, []bool) {
	t.Helper()
	col := data.Uniform(2000, 30, 42)
	var nulls []bool
	var opts *core.BuildOptions
	if withNulls {
		_, nulls = data.WithNulls(col, 0.05, 43)
		opts = &core.BuildOptions{Nulls: nulls}
	}
	ix, err := core.Build(col.Values, col.Card, core.Base{6, 5}, enc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix, col.Values, nulls
}

// TestSaveOpenEvalAllLayouts is the keystone test: every layout, compressed
// or not, must answer every query identically to the in-memory index.
func TestSaveOpenEvalAllLayouts(t *testing.T) {
	for _, enc := range []core.Encoding{core.RangeEncoded, core.EqualityEncoded, core.IntervalEncoded} {
		for _, withNulls := range []bool{false, true} {
			ix, _, _ := buildTestIndex(t, enc, withNulls)
			for _, opts := range allOptions() {
				dir := filepath.Join(t.TempDir(), opts.String())
				st, err := Save(ix, dir, opts)
				if err != nil {
					t.Fatalf("%v/%v/%v: Save: %v", enc, withNulls, opts, err)
				}
				if st.Index().Rows() != ix.Rows() || st.Index().Cardinality() != ix.Cardinality() {
					t.Fatalf("%v: shell metadata mismatch", opts)
				}
				var m Metrics
				for _, op := range core.AllOps {
					for v := uint64(0); v < ix.Cardinality()+1; v += 3 {
						got, err := st.Eval(op, v, &m)
						if err != nil {
							t.Fatalf("%v: Eval(A %s %d): %v", opts, op, v, err)
						}
						want := ix.Eval(op, v, nil)
						if !got.Equal(want) {
							t.Fatalf("%v %v nulls=%v: A %s %d: disk result differs", enc, opts, withNulls, op, v)
						}
					}
				}
				if m.Queries == 0 || m.BytesRead == 0 {
					t.Fatalf("%v: metrics not accumulated: %+v", opts, m)
				}
				if opts.Codec != CodecRaw && m.DecompressNS == 0 {
					t.Fatalf("%v: no decompression time recorded", opts)
				}
			}
		}
	}
}

func TestOpenAfterReopen(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	dir := t.TempDir()
	if _, err := Save(ix, dir, Options{Scheme: ComponentLevel, Codec: CodecZlib}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Eval(core.Le, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ix.Eval(core.Le, 10, nil)) {
		t.Fatal("reopened store answers differently")
	}
	if st.Options() != (Options{Scheme: ComponentLevel, Codec: CodecZlib}) {
		t.Fatalf("Options = %v", st.Options())
	}
	if got := st.Describe(); got != "CS/zlib range-encoded base <5,6>" {
		t.Fatalf("Describe = %q", got)
	}
}

func TestBSReadsOnlyNeededFiles(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	dir := t.TempDir()
	st, err := Save(ix, dir, Options{Scheme: BitmapLevel})
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if _, err := st.Eval(core.Eq, 7, &m); err != nil {
		t.Fatal(err)
	}
	// An equality query on a 2-component index reads at most 4 bitmap files.
	if m.FilesRead > 4 {
		t.Fatalf("BS equality query read %d files, want <= 4", m.FilesRead)
	}
	if m.FilesRead != m.Stats.Scans {
		t.Fatalf("BS files read (%d) != scans (%d)", m.FilesRead, m.Stats.Scans)
	}
}

func TestCSISReadWholeFiles(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	for _, sc := range []Scheme{ComponentLevel, IndexLevel} {
		dir := t.TempDir()
		st, err := Save(ix, dir, Options{Scheme: sc})
		if err != nil {
			t.Fatal(err)
		}
		var m Metrics
		if _, err := st.Eval(core.Le, 17, &m); err != nil {
			t.Fatal(err)
		}
		// Each touched file is read exactly once per query even though
		// multiple bitmaps are extracted from it.
		maxFiles := ix.Components()
		if sc == IndexLevel {
			maxFiles = 1
		}
		if m.FilesRead > maxFiles {
			t.Fatalf("%v read %d files, want <= %d", sc, m.FilesRead, maxFiles)
		}
		if m.ExtractNS == 0 {
			t.Fatalf("%v: no extraction time recorded", sc)
		}
		// Reading whole files means bytes >= the per-file sizes touched.
		if m.BytesRead < st.ValueBytes()/2 {
			t.Logf("%v: read %d of %d bytes", sc, m.BytesRead, st.ValueBytes())
		}
	}
}

// TestCompressedSmallerOnRegularData: cCS compresses at least as well as
// cBS on uniform data (Table 4's headline), and compression shrinks CS.
func TestCompressionOrdering(t *testing.T) {
	col := data.Uniform(20000, 100, 9)
	ix, err := core.Build(col.Values, col.Card, core.Base{10, 10}, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, opts := range allOptions() {
		st, err := Save(ix, filepath.Join(t.TempDir(), "x"), opts)
		if err != nil {
			t.Fatal(err)
		}
		sizes[opts.String()] = st.ValueBytes()
	}
	if sizes["BS"] != sizes["CS"] || sizes["BS"] != sizes["IS"] {
		t.Fatalf("uncompressed sizes must be equal: %v", sizes)
	}
	if sizes["cCS"] >= sizes["BS"] {
		t.Fatalf("cCS (%d) did not compress below raw (%d)", sizes["cCS"], sizes["BS"])
	}
	if sizes["cCS"] > sizes["cBS"] {
		t.Fatalf("cCS (%d) should compress at least as well as cBS (%d)", sizes["cCS"], sizes["cBS"])
	}
}

func TestValueBytesExcludesNN(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	dir := t.TempDir()
	st, err := Save(ix, dir, Options{Scheme: BitmapLevel})
	if err != nil {
		t.Fatal(err)
	}
	perBitmap := int64((ix.Rows() + 7) / 8)
	want := perBitmap * int64(ix.NumBitmaps())
	if st.ValueBytes() != want {
		t.Fatalf("ValueBytes = %d, want %d", st.ValueBytes(), want)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open on empty dir must fail")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open with corrupt meta must fail")
	}
	// WAH was a storage codec once; a descriptor naming it must fail
	// cleanly, naming the codec, rather than decode its files as raw.
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	dir = t.TempDir()
	if _, err := Save(ix, dir, Options{Scheme: BitmapLevel}); err != nil {
		t.Fatal(err)
	}
	mp := filepath.Join(dir, metaFile)
	mj, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	mj = bytes.Replace(mj, []byte(`"codec": "raw"`), []byte(`"codec": "wah"`), 1)
	if err := os.WriteFile(mp, mj, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), `"wah"`) {
		t.Fatalf("Open of a WAH descriptor returned %v, want an error naming the codec", err)
	}
}

func TestEvalMissingFile(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	dir := t.TempDir()
	st, err := Save(ix, dir, Options{Scheme: BitmapLevel})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, bitmapFile(0, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Eval(core.Eq, 0, nil); err == nil {
		t.Fatal("Eval with missing bitmap file must return an error")
	}
}

func TestExists(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("empty dir must not exist as index")
	}
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	if _, err := Save(ix, dir, Options{Scheme: IndexLevel}); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("saved index not detected")
	}
}

func TestSchemeParseString(t *testing.T) {
	for _, sc := range []Scheme{BitmapLevel, ComponentLevel, IndexLevel} {
		got, err := ParseScheme(sc.String())
		if err != nil || got != sc {
			t.Fatalf("round trip failed for %v", sc)
		}
	}
	if _, err := ParseScheme("XX"); err == nil {
		t.Fatal("expected error")
	}
	if (Options{Scheme: ComponentLevel, Codec: CodecZlib}).String() != "cCS" {
		t.Fatal("Options.String wrong")
	}
}

func TestRandomizedDiskVsMemory(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	col := data.Zipf(3000, 60, 1.4, 13)
	ix, err := core.Build(col.Values, col.Card, core.Base{4, 4, 4}, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Save(ix, t.TempDir(), Options{Scheme: ComponentLevel, Codec: CodecZlib})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		op := core.AllOps[r.Intn(6)]
		v := uint64(r.Intn(64))
		got, err := st.Eval(op, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ix.Eval(op, v, nil)) {
			t.Fatalf("query %d (A %s %d) differs", i, op, v)
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	for _, opts := range []Options{{Scheme: BitmapLevel}, {Scheme: ComponentLevel, Codec: CodecZlib}} {
		dir := t.TempDir()
		st, err := Save(ix, dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one byte in one stored value file.
		name := bitmapFile(0, 0)
		if opts.Scheme == ComponentLevel {
			name = componentFile(0)
		}
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xFF
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		// A <= 0 reads slot 0 of component 1 under any layout.
		_, err = st.Eval(core.Le, 0, nil)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%v: corrupted read returned %v, want ErrCorrupt", opts, err)
		}
	}
}

func TestChecksumNNVerifiedAtOpen(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, true)
	dir := t.TempDir()
	if _, err := Save(ix, dir, Options{Scheme: BitmapLevel}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "nn.bm")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt nn returned %v, want ErrCorrupt", err)
	}
}

func TestOldMetaWithoutChecksumsStillOpens(t *testing.T) {
	// Forward compatibility: descriptors without a checksum map (older
	// writers) are readable; reads are simply unverified.
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	dir := t.TempDir()
	if _, err := Save(ix, dir, Options{Scheme: BitmapLevel}); err != nil {
		t.Fatal(err)
	}
	st := openWithoutChecksums(t, dir)
	got, err := st.Eval(core.Le, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ix.Eval(core.Le, 3, nil)) {
		t.Fatal("result differs")
	}
}

// openWithoutChecksums strips the checksum map from a saved descriptor, as
// older writers left it, and opens the store: reads are then guarded only
// by the codecs' own checks and the decoded-length check.
func openWithoutChecksums(t *testing.T, dir string) *Store {
	t.Helper()
	mj, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(mj, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "checksums")
	mj, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), mj, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShortRoaringBitmapRejected: a roaring BS file whose header declares
// one bit fewer than the index has rows is a wrong-length bitmap, not a
// valid one, even when no checksum covers it.
func TestShortRoaringBitmapRejected(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	dir := t.TempDir()
	if _, err := Save(ix, dir, Options{Scheme: BitmapLevel, Codec: CodecRoaring}); err != nil {
		t.Fatal(err)
	}
	full := ix.StoredBitmap(0, 0)
	short := bitvec.New(full.Len() - 1)
	full.Ones(func(i int) bool {
		if i < short.Len() {
			short.Set(i)
		}
		return true
	})
	p, err := roaring.FromVector(short).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bitmapFile(0, 0)), p, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openWithoutChecksums(t, dir)
	if _, err := st.Eval(core.Le, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short roaring bitmap returned %v, want ErrCorrupt", err)
	}
}

// TestTruncatedRawComponentRejected: a raw CS file missing its last bytes
// used to index past the end of the payload during column extraction and
// panic out of Eval; it must be rejected as corrupt instead.
func TestTruncatedRawComponentRejected(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	dir := t.TempDir()
	if _, err := Save(ix, dir, Options{Scheme: ComponentLevel}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, componentFile(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	st := openWithoutChecksums(t, dir)
	if _, err := st.Eval(core.Le, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated component file returned %v, want ErrCorrupt", err)
	}
}
