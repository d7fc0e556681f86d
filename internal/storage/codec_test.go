package storage

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bitmapindex/internal/core"
)

func TestParseCodecRoundTrip(t *testing.T) {
	for _, c := range []Codec{CodecRaw, CodecZlib, CodecRoaring} {
		got, err := ParseCodec(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCodec(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCodec("lz4"); err == nil {
		t.Fatal("ParseCodec accepted unknown codec")
	}
	// The empty string (descriptor predating the codec field) is raw.
	if c, err := ParseCodec(""); err != nil || c != CodecRaw {
		t.Fatalf("ParseCodec(\"\") = %v, %v", c, err)
	}
}

func TestOptionsStringCodecPrefixes(t *testing.T) {
	cases := []struct {
		opts Options
		want string
	}{
		{Options{Scheme: BitmapLevel}, "BS"},
		{Options{Scheme: BitmapLevel, Codec: CodecZlib}, "cBS"},
		{Options{Scheme: ComponentLevel, Codec: CodecZlib}, "cCS"},
		{Options{Scheme: IndexLevel, Codec: CodecRoaring}, "rIS"},
		{Options{Scheme: BitmapLevel, Codec: CodecRoaring}, "rBS"},
	}
	for _, tc := range cases {
		if got := tc.opts.String(); got != tc.want {
			t.Fatalf("Options%+v.String() = %q, want %q", tc.opts, got, tc.want)
		}
	}
}

// TestCodecDescribeAndOptions pins the descriptor plumbing for the
// codecs: reopened stores report the codec in Options and Describe.
func TestCodecDescribeAndOptions(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	for codec, want := range map[Codec]string{
		CodecZlib:    "BS/zlib range-encoded base <5,6>",
		CodecRoaring: "BS/roaring range-encoded base <5,6>",
	} {
		dir := filepath.Join(t.TempDir(), codec.String())
		if _, err := Save(ix, dir, Options{Scheme: BitmapLevel, Codec: codec}); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Describe(); got != want {
			t.Fatalf("Describe = %q, want %q", got, want)
		}
		if got := st.Options(); got != (Options{Scheme: BitmapLevel, Codec: codec}) {
			t.Fatalf("Options = %+v", got)
		}
	}
}

// TestLegacyDescriptorWithoutCodec simulates a descriptor written before
// the codec field existed: stripping the field from a zlib store must
// still open and decode as zlib.
func TestLegacyDescriptorWithoutCodec(t *testing.T) {
	ix, _, _ := buildTestIndex(t, core.RangeEncoded, false)
	dir := t.TempDir()
	if _, err := Save(ix, dir, Options{Scheme: BitmapLevel, Codec: CodecZlib}); err != nil {
		t.Fatal(err)
	}
	mp := filepath.Join(dir, metaFile)
	raw, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "codec")
	stripped, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open legacy descriptor: %v", err)
	}
	if st.Options().Codec != CodecZlib {
		t.Fatalf("legacy compress store decoded as %v", st.Options().Codec)
	}
	got, err := st.Eval(core.Le, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ix.Eval(core.Le, 10, nil)) {
		t.Fatal("legacy store answers differently")
	}
}
