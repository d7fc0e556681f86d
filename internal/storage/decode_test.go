package storage

import (
	"bytes"
	"compress/zlib"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
)

// zlibBytes compresses p into a complete zlib stream.
func zlibBytes(t testing.TB, p []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zlib.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestZlibInflatesExactly: with no checksums in the descriptor, the zlib
// reader's own checks must reject a stream one byte too long, one byte too
// short, or with a damaged adler32 trailer.
func TestZlibInflatesExactly(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	payload := ix.StoredBitmap(0, 0).PayloadBytes()
	good := zlibBytes(t, payload)
	badTrailer := append([]byte(nil), good...)
	badTrailer[len(badTrailer)-1] ^= 0xFF
	for name, file := range map[string][]byte{
		"extra byte":   zlibBytes(t, append(append([]byte(nil), payload...), 0)),
		"missing byte": zlibBytes(t, payload[:len(payload)-1]),
		"bad adler32":  badTrailer,
	} {
		dir := t.TempDir()
		if _, err := Save(ix, dir, Options{Scheme: BitmapLevel, Codec: CodecZlib}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, bitmapFile(0, 0)), file, 0o644); err != nil {
			t.Fatal(err)
		}
		st := openWithoutChecksums(t, dir)
		if _, err := st.Eval(core.Le, 0, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Eval returned %v, want ErrCorrupt", name, err)
		}
	}
}

// saveUniform saves a range-encoded base <10,10> index over uniform C=100
// data, the benchmark's disk-workload design, and returns the store and
// the name of a bitmap file in it whose containers are all dense.
func saveUniform(tb testing.TB, rows int, codec Codec) (*Store, string) {
	tb.Helper()
	col := data.Uniform(rows, 100, 1)
	ix, err := core.Build(col.Values, col.Card, core.Base{10, 10}, core.RangeEncoded, nil)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := Save(ix, tb.TempDir(), Options{Scheme: BitmapLevel, Codec: codec})
	if err != nil {
		tb.Fatal(err)
	}
	return st, bitmapFile(0, 4)
}

// TestReadFileDecodesOnce pins the one-decode path: reading a roaring or
// zlib BS file allocates what os.ReadFile does plus the dense words and
// their Vector — no container copies, byte payloads, inflate buffers or
// throwaway vectors. A zlib file costs one allocation more: the adler32
// digest zlib.Resetter.Reset makes per stream (the reader itself is
// pooled, so it is only allocated by the warm-up calls).
func TestReadFileDecodesOnce(t *testing.T) {
	for _, tc := range []struct {
		codec Codec
		extra float64 // allocations beyond os.ReadFile's
	}{
		{CodecRoaring, 2},
		{CodecZlib, 3},
	} {
		t.Run(tc.codec.String(), func(t *testing.T) {
			if tc.codec == CodecZlib && raceEnabled {
				t.Skip("the race detector drops pooled zlib readers at random")
			}
			st, name := saveUniform(t, 1<<18, tc.codec)
			rows := st.Index().Rows()
			path := filepath.Join(st.dir, name)
			read := testing.AllocsPerRun(20, func() {
				if _, err := os.ReadFile(filepath.Join(st.dir, name)); err != nil {
					t.Fatal(err)
				}
			})
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := st.readFile(name, rows, nil); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("readFile: %.0f allocations (os.ReadFile alone: %.0f)", allocs, read)
			if allocs > read+tc.extra {
				t.Errorf("readFile made %.0f allocations, want <= %.0f (os.ReadFile's %.0f + %.0f)",
					allocs, read+tc.extra, read, tc.extra)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun's calls above are the warm-up.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := st.readFile(name, rows, nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			limit := uint64(fi.Size()) + uint64(rows/8) + 64<<10
			if got := after.TotalAlloc - before.TotalAlloc; got > limit {
				t.Errorf("readFile allocated %d bytes, want <= %d (file + dense + 64 KiB)", got, limit)
			}
		})
	}
}

// BenchmarkReadFile times one BS file from disk bytes to the evaluator's
// vector, per codec, on a 2^22-row bitmap (mostly page-cache reads, so the
// decode dominates). Run with -benchmem for the allocation counts.
func BenchmarkReadFile(b *testing.B) {
	for _, codec := range []Codec{CodecRaw, CodecZlib, CodecWAH, CodecRoaring} {
		b.Run(codec.String(), func(b *testing.B) {
			st, name := saveUniform(b, 1<<22, codec)
			rows := st.Index().Rows()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.readFile(name, rows, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(rows / 8))
		})
	}
}
