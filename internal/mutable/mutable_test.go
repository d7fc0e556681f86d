package mutable

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/design"
)

func newTest(t *testing.T, card uint64) *Index {
	t.Helper()
	m, err := New(card, design.Knee, core.RangeEncoded)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// model mirrors the mutable index with plain slices.
type model struct {
	vals []uint64
	null []bool
	dead []bool
}

func (md *model) eval(op core.Op, v uint64) []bool {
	out := make([]bool, len(md.vals))
	for i := range md.vals {
		out[i] = !md.dead[i] && !md.null[i] && op.Matches(md.vals[i], v)
	}
	return out
}

func (md *model) live() int {
	n := 0
	for i := range md.vals {
		if !md.dead[i] {
			n++
		}
	}
	return n
}

// TestRandomizedLifecycle drives appends, deletes, compactions, and
// queries against the reference model.
func TestRandomizedLifecycle(t *testing.T) {
	const card = 60
	r := rand.New(rand.NewSource(51))
	m := newTest(t, card)
	md := &model{}
	check := func(stage string) {
		t.Helper()
		if m.Rows() != len(md.vals) {
			t.Fatalf("%s: Rows = %d, model %d", stage, m.Rows(), len(md.vals))
		}
		if m.Live() != md.live() {
			t.Fatalf("%s: Live = %d, model %d", stage, m.Live(), md.live())
		}
		for _, op := range core.AllOps {
			v := uint64(r.Intn(card + 2))
			got := m.Eval(op, v)
			want := md.eval(op, v)
			for i := range want {
				if got.Get(i) != want[i] {
					t.Fatalf("%s: A %s %d row %d: got %v want %v", stage, op, v, i, got.Get(i), want[i])
				}
			}
		}
	}
	for step := 0; step < 1200; step++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4: // append
			v := uint64(r.Intn(card))
			row, err := m.Append(v)
			if err != nil {
				t.Fatal(err)
			}
			if row != len(md.vals) {
				t.Fatalf("append row id %d, want %d", row, len(md.vals))
			}
			md.vals = append(md.vals, v)
			md.null = append(md.null, false)
			md.dead = append(md.dead, false)
		case 5: // append null
			row := m.AppendNull()
			if row != len(md.vals) {
				t.Fatalf("append-null row id %d, want %d", row, len(md.vals))
			}
			md.vals = append(md.vals, 0)
			md.null = append(md.null, true)
			md.dead = append(md.dead, false)
		case 6, 7: // delete a random row
			if len(md.vals) == 0 {
				continue
			}
			row := r.Intn(len(md.vals))
			if err := m.Delete(row); err != nil {
				t.Fatal(err)
			}
			md.dead[row] = true
		case 8: // point check
			if len(md.vals) == 0 {
				continue
			}
			row := r.Intn(len(md.vals))
			v, ok := m.Value(row)
			wantOK := !md.dead[row] && !md.null[row]
			if ok != wantOK || (ok && v != md.vals[row]) {
				t.Fatalf("Value(%d) = %d,%v; model %d dead=%v null=%v",
					row, v, ok, md.vals[row], md.dead[row], md.null[row])
			}
		case 9: // compact: renumber the model densely
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
			var nv []uint64
			var nn, nd []bool
			for i := range md.vals {
				if md.dead[i] {
					continue
				}
				nv = append(nv, md.vals[i])
				nn = append(nn, md.null[i])
				nd = append(nd, false)
			}
			md.vals, md.null, md.dead = nv, nn, nd
			if m.DeltaRows() != 0 {
				t.Fatal("delta not emptied by Compact")
			}
		}
		if step%100 == 0 {
			check("step")
		}
	}
	check("final")
}

func TestFromIndex(t *testing.T) {
	vals := []uint64{3, 2, 1, 2, 8, 2, 2, 0, 7, 5}
	ix, err := core.Build(vals, 9, core.Base{3, 3}, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := FromIndex(ix)
	if m.Rows() != 10 || m.Live() != 10 {
		t.Fatalf("rows %d live %d", m.Rows(), m.Live())
	}
	if err := m.Delete(4); err != nil { // value 8
		t.Fatal(err)
	}
	if _, err := m.Append(8); err != nil {
		t.Fatal(err)
	}
	got := m.Eval(core.Eq, 8)
	if got.Get(4) || !got.Get(10) || got.Count() != 1 {
		t.Fatalf("Eq 8 after delete+append: %s", got)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 10 || m.Base().Rows() != 10 {
		t.Fatalf("after compact: rows %d", m.Rows())
	}
	// Compaction keeps the original base design.
	if !m.Base().Base().Equal(core.Base{3, 3}) {
		t.Fatalf("design changed: %v", m.Base().Base())
	}
}

func TestMutableErrors(t *testing.T) {
	if _, err := New(9, nil, core.RangeEncoded); err == nil {
		t.Fatal("nil design must fail")
	}
	m := newTest(t, 9)
	if _, err := m.Append(9); !errors.Is(err, core.ErrValueOutOfRange) {
		t.Fatalf("Append out of range: %v", err)
	}
	if err := m.Delete(0); err == nil {
		t.Fatal("delete on empty index must fail")
	}
	if err := m.Delete(-1); err == nil {
		t.Fatal("negative row must fail")
	}
	if _, ok := m.Value(3); ok {
		t.Fatal("Value on missing row must be !ok")
	}
	// Double delete is a no-op.
	if _, err := m.Append(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(0); err != nil {
		t.Fatal(err)
	}
	if m.Live() != 0 {
		t.Fatalf("Live = %d after double delete", m.Live())
	}
}

func TestMutableConcurrent(t *testing.T) {
	m := newTest(t, 100)
	for i := 0; i < 500; i++ {
		if _, err := m.Append(uint64(i % 100)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 200; k++ {
				switch r.Intn(4) {
				case 0:
					if _, err := m.Append(uint64(r.Intn(100))); err != nil {
						t.Error(err)
						return
					}
				case 1:
					_ = m.Delete(r.Intn(m.Rows()))
				default:
					m.Eval(core.Le, uint64(r.Intn(100)))
				}
			}
		}(g)
	}
	wg.Wait()
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if m.DeltaRows() != 0 {
		t.Fatal("delta not empty after compact")
	}
}

// check compares every Value and every Eval at constants 0, card-1 and
// card against the model.
func (md *model) check(t *testing.T, stage string, m *Index, card uint64) {
	t.Helper()
	if m.Rows() != len(md.vals) || m.Live() != md.live() {
		t.Fatalf("%s: rows %d live %d, model %d and %d", stage, m.Rows(), m.Live(), len(md.vals), md.live())
	}
	for r := range md.vals {
		v, ok := m.Value(r)
		wantOK := !md.dead[r] && !md.null[r]
		if ok != wantOK || (ok && v != md.vals[r]) {
			t.Fatalf("%s: Value(%d) = %d,%v; model %d dead=%v null=%v", stage, r, v, ok, md.vals[r], md.dead[r], md.null[r])
		}
	}
	for _, op := range core.AllOps {
		for _, c := range []uint64{0, card - 1, card} {
			got, want := m.Eval(op, c), md.eval(op, c)
			if got.Len() != len(want) {
				t.Fatalf("%s: A %s %d: %d rows, model %d", stage, op, c, got.Len(), len(want))
			}
			for r := range want {
				if got.Get(r) != want[r] {
					t.Fatalf("%s: A %s %d row %d: got %v want %v", stage, op, c, r, got.Get(r), want[r])
				}
			}
		}
	}
}

func (md *model) push(v uint64, null bool) {
	md.vals = append(md.vals, v)
	md.null = append(md.null, null)
	md.dead = append(md.dead, false)
}

func (md *model) compact() {
	keep := &model{}
	for r := range md.vals {
		if !md.dead[r] {
			keep.push(md.vals[r], md.null[r])
		}
	}
	*md = *keep
}

// TestWordBoundaries runs the word-wise Eval and Compact against the model
// with base row counts around one and two words, so the append segment
// starts mid-word and crosses word boundaries, with nulls in both parts,
// deletes of the first and last base and append rows, and every encoding.
func TestWordBoundaries(t *testing.T) {
	const card = 12
	r := rand.New(rand.NewSource(17))
	for _, enc := range []core.Encoding{core.EqualityEncoded, core.RangeEncoded, core.IntervalEncoded} {
		for _, base := range []core.Base{{12}, {3, 4}, {2, 2, 3}} {
			for _, n := range []int{63, 64, 65, 127} {
				md := &model{}
				for i := 0; i < n; i++ {
					md.push(uint64(r.Intn(card)), i%7 == 3)
				}
				ix, err := core.Build(md.vals, card, base, enc, &core.BuildOptions{Nulls: md.null})
				if err != nil {
					t.Fatal(err)
				}
				m := FromIndex(ix)
				stage := func(s string) string { return enc.String() + "/" + base.String() + "/" + s }
				del := func(row int) {
					t.Helper()
					if err := m.Delete(row); err != nil {
						t.Fatal(err)
					}
					md.dead[row] = true
				}
				for round := 0; round < 2; round++ {
					rows := len(md.vals)
					del(0)
					del(rows - 1)
					for i := 0; i < 70; i++ {
						if i%5 == 2 {
							m.AppendNull()
							md.push(0, true)
							continue
						}
						v := uint64(r.Intn(card))
						if _, err := m.Append(v); err != nil {
							t.Fatal(err)
						}
						md.push(v, false)
					}
					del(rows)                     // first append row
					del(rows + 33)                // one in the middle
					del(len(md.vals) - 1)         // last append row
					del(r.Intn(len(md.vals) - 1)) // and one anywhere
					md.check(t, stage("before compact"), m, card)
					if err := m.Compact(); err != nil {
						t.Fatal(err)
					}
					md.compact()
					md.check(t, stage("after compact"), m, card)
				}
			}
		}
	}
}

// TestInterval checks the unsigned interval form of each operator against
// Op.Matches, at the ends of the value range too.
func TestInterval(t *testing.T) {
	const top = ^uint64(0)
	probe := []uint64{0, 1, 2, 5, 6, 7, top - 1, top}
	for _, op := range core.AllOps {
		for _, v := range probe {
			lo, span, neg := interval(op, v)
			for _, a := range probe {
				if got := (a-lo <= span) != neg; got != op.Matches(a, v) {
					t.Errorf("%d %s %d: interval says %v", a, op, v, got)
				}
			}
		}
	}
}
