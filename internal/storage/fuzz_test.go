package storage

import (
	"bytes"
	"compress/zlib"
	"io"
	"os"
	"path/filepath"
	"testing"

	"bitmapindex/internal/bitvec"
)

// FuzzOpenMeta ensures arbitrary descriptor bytes never panic Open; they
// either load a consistent store or fail with an error.
func FuzzOpenMeta(f *testing.F) {
	f.Add([]byte(`{"version":1,"scheme":"BS","base":[4,3],"encoding":"range","cardinality":12,"rows":0}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version":1,"scheme":"XX"}`))
	f.Add([]byte(`{"version":1,"scheme":"IS","base":[1],"encoding":"range","cardinality":5,"rows":3}`))
	f.Fuzz(func(t *testing.T, meta []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, metaFile), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		// An empty nn.bm is present so Open can get past the descriptor
		// when it is well-formed with rows=0.
		if err := os.WriteFile(filepath.Join(dir, "nn.bm"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			return
		}
		// Openable stores must answer queries or return errors, never
		// panic.
		if _, err := st.Eval(0, 0, nil); err != nil {
			return
		}
	})
}

// referenceInflate is the plain decoder inflateVector must agree with:
// zlib.NewReader and io.ReadAll, accepting only a stream that reaches
// io.EOF after exactly ceil(nbits/8) bytes. Reading stops one byte past
// that, so a small input that inflates to gigabytes stays cheap.
func referenceInflate(t *testing.T, stream []byte, nbits int) (*bitvec.Vector, bool) {
	zr, err := zlib.NewReader(bytes.NewReader(stream))
	if err != nil {
		return nil, false
	}
	n := (nbits + 7) / 8
	p, err := io.ReadAll(io.LimitReader(zr, int64(n)+1))
	if err != nil || len(p) != n {
		return nil, false
	}
	v := new(bitvec.Vector)
	if err := v.SetPayload(nbits, p); err != nil {
		t.Fatal(err)
	}
	return v, true
}

// FuzzInflateVector: the pooled zlib decoder accepts exactly the streams
// the reference accepts, and then its vector equals the reference's. Each
// input is decoded twice, around a stream rejected at its adler32
// trailer, so the second decode runs on a pooled reader left in an error
// state.
func FuzzInflateVector(f *testing.F) {
	payload := make([]byte, inflateChunk+4) // the last chunk holds half a word
	for i := range payload {
		payload[i] = byte(i % 13 * 19) // a short stream keeps minimizing cheap
	}
	good := zlibBytes(f, payload)
	seedBits := uint32(8*len(payload) - 3)
	badTrailer := append([]byte(nil), good...)
	badTrailer[len(badTrailer)-1] ^= 0xFF
	badHeader := append([]byte(nil), good...)
	badHeader[1] ^= 1 // FCHECK no longer makes the header a multiple of 31
	// FDICT set, FCHECK fixed up, then a dictionary id: the stream needs a
	// preset dictionary the store never supplies.
	flg := good[1]&0xC0 | 0x20
	flg |= byte((31 - (uint16(good[0])<<8|uint16(flg))%31) % 31)
	withDict := append([]byte{good[0], flg, 0x12, 0x34, 0x56, 0x78}, good[2:]...)
	// rejected fails only at its trailer, after a full inflate.
	rejected := zlibBytes(f, []byte("sixteen bytes!!!"))
	rejected[len(rejected)-1] ^= 0xFF

	f.Add(good, seedBits)
	f.Add(zlibBytes(f, append(append([]byte(nil), payload...), 0)), seedBits)
	f.Add(zlibBytes(f, payload[:len(payload)-1]), seedBits)
	f.Add(badTrailer, seedBits)
	f.Add(badHeader, seedBits)
	f.Add(withDict, seedBits)
	f.Add(zlibBytes(f, nil), uint32(0))
	f.Fuzz(func(t *testing.T, stream []byte, n uint32) {
		nbits := int(n % (1<<16 + 1))
		want, ok := referenceInflate(t, stream, nbits)
		for round := 0; round < 2; round++ {
			v, err := inflateVector(stream, nbits)
			if (err == nil) != ok {
				t.Fatalf("round %d: inflateVector error %v, reference accepts: %v", round, err, ok)
			}
			if ok && !v.Equal(want) {
				t.Fatalf("round %d: inflateVector vector differs from SetPayload of the inflated bytes", round)
			}
			if round == 0 {
				if _, err := inflateVector(rejected, 128); err == nil {
					t.Fatal("a stream with a damaged adler32 trailer was accepted")
				}
			}
		}
	})
}
