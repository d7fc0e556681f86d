package catalog

import (
	"testing"

	"bitmapindex/internal/core"
)

// TestDesigns: the design descriptors mirror what Create stored.
func TestDesigns(t *testing.T) {
	rel := buildRelation(t, 500, 3)
	tbl, err := Create(t.TempDir(), rel, Options{Encoding: core.EqualityEncoded})
	if err != nil {
		t.Fatal(err)
	}
	ds := tbl.Designs()
	if len(ds) != 2 {
		t.Fatalf("Designs() returned %d entries", len(ds))
	}
	for _, d := range ds {
		if d.Encoding != "equality" {
			t.Errorf("%s encoding = %q, want equality", d.Name, d.Encoding)
		}
		if d.Codec != "raw" {
			t.Errorf("%s codec = %q, want raw", d.Name, d.Codec)
		}
		a, err := tbl.Attr(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Card != a.Dict().Card() {
			t.Errorf("%s card = %d, want %d", d.Name, d.Card, a.Dict().Card())
		}
		if !d.Base.Equal(a.Store().Index().Base()) {
			t.Errorf("%s base = %v, want %v", d.Name, d.Base, a.Store().Index().Base())
		}
	}
}
