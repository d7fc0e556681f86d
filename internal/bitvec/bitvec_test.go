package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroAndOnes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64, 65, 127, 128, 1000} {
		z := New(n)
		if z.Len() != n {
			t.Fatalf("Len = %d, want %d", z.Len(), n)
		}
		if z.Count() != 0 || z.Any() {
			t.Fatalf("n=%d: new vector not empty", n)
		}
		o := NewOnes(n)
		if o.Count() != n {
			t.Fatalf("n=%d: ones Count = %d", n, o.Count())
		}
		if !o.All() {
			t.Fatalf("n=%d: ones All = false", n)
		}
		if n > 0 && o.None() {
			t.Fatalf("n=%d: ones None = true", n)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.Count() != len(idx) {
		t.Fatalf("Count = %d, want %d", v.Count(), len(idx))
	}
	v.Clear(64)
	if v.Get(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	v.SetBool(64, true)
	if !v.Get(64) {
		t.Fatal("SetBool(64,true) did not set")
	}
	v.SetBool(64, false)
	if v.Get(64) {
		t.Fatal("SetBool(64,false) did not clear")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for name, fn := range map[string]func(){
		"Get(-1)":  func() { v.Get(-1) },
		"Get(10)":  func() { v.Get(10) },
		"Set(10)":  func() { v.Set(10) },
		"Clear(-)": func() { v.Clear(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("And on mismatched lengths did not panic")
		}
	}()
	a.And(b)
}

func TestFromBoolsAndIndices(t *testing.T) {
	bs := []bool{true, false, true, true, false}
	v := FromBools(bs)
	for i, b := range bs {
		if v.Get(i) != b {
			t.Fatalf("bit %d = %v, want %v", i, v.Get(i), b)
		}
	}
	u := FromIndices(5, []int{0, 2, 3})
	if !v.Equal(u) {
		t.Fatalf("FromBools %v != FromIndices %v", v, u)
	}
}

func TestNotMaskedTail(t *testing.T) {
	// The tail bits beyond Len must stay zero after Not, so Count is exact.
	for _, n := range []int{1, 5, 63, 64, 65, 100} {
		v := New(n)
		v.Not()
		if v.Count() != n {
			t.Fatalf("n=%d: Not of zeros Count = %d", n, v.Count())
		}
		v.Not()
		if v.Count() != 0 {
			t.Fatalf("n=%d: double Not Count = %d", n, v.Count())
		}
	}
}

func randomVec(r *rand.Rand, n int) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

func TestLogicalOpsAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(300)
		a, b := randomVec(r, n), randomVec(r, n)
		type op struct {
			name string
			run  func(x, y *Vector)
			ref  func(p, q bool) bool
		}
		ops := []op{
			{"And", (*Vector).And, func(p, q bool) bool { return p && q }},
			{"Or", (*Vector).Or, func(p, q bool) bool { return p || q }},
			{"Xor", (*Vector).Xor, func(p, q bool) bool { return p != q }},
			{"AndNot", (*Vector).AndNot, func(p, q bool) bool { return p && !q }},
		}
		for _, o := range ops {
			got := a.Clone()
			o.run(got, b)
			for i := 0; i < n; i++ {
				want := o.ref(a.Get(i), b.Get(i))
				if got.Get(i) != want {
					t.Fatalf("%s bit %d: got %v want %v", o.name, i, got.Get(i), want)
				}
			}
		}
	}
}

func TestDeMorganProperty(t *testing.T) {
	// NOT(a AND b) == NOT a OR NOT b, for random contents and lengths.
	f := func(aw, bw []byte) bool {
		n := len(aw)
		if len(bw) < n {
			n = len(bw)
		}
		n %= 200
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if aw[i]&1 == 1 {
				a.Set(i)
			}
			if bw[i]&1 == 1 {
				b.Set(i)
			}
		}
		lhs := a.Clone()
		lhs.And(b)
		lhs.Not()
		rhs := a.Clone()
		rhs.Not()
		nb := b.Clone()
		nb.Not()
		rhs.Or(nb)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXorSelfInverseProperty(t *testing.T) {
	f := func(aw, bw []byte) bool {
		n := len(aw)
		if len(bw) < n {
			n = len(bw)
		}
		n %= 200
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if aw[i]&1 == 1 {
				a.Set(i)
			}
			if bw[i]&1 == 1 {
				b.Set(i)
			}
		}
		got := a.Clone()
		got.Xor(b)
		got.Xor(b)
		return got.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountInclusionExclusion(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(500)
		a, b := randomVec(r, n), randomVec(r, n)
		and := a.Clone()
		and.And(b)
		or := a.Clone()
		or.Or(b)
		if a.Count()+b.Count() != and.Count()+or.Count() {
			t.Fatalf("inclusion-exclusion violated: |a|=%d |b|=%d |and|=%d |or|=%d",
				a.Count(), b.Count(), and.Count(), or.Count())
		}
	}
}

func TestOnesIteration(t *testing.T) {
	v := FromIndices(200, []int{0, 63, 64, 65, 130, 199})
	got := v.OnesSlice()
	want := []int{0, 63, 64, 65, 130, 199}
	if len(got) != len(want) {
		t.Fatalf("OnesSlice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OnesSlice[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Early stop.
	count := 0
	v.Ones(func(i int) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early-stop visited %d, want 3", count)
	}
}

func TestNextOne(t *testing.T) {
	v := FromIndices(200, []int{5, 64, 199})
	cases := []struct{ from, want int }{
		{-5, 5}, {0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199}, {200, -1},
	}
	for _, c := range cases {
		if got := v.NextOne(c.from); got != c.want {
			t.Fatalf("NextOne(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if New(50).NextOne(0) != -1 {
		t.Fatal("NextOne on empty vector should be -1")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(100, []int{1, 2, 3})
	b := a.Clone()
	b.Set(50)
	if a.Get(50) {
		t.Fatal("mutating clone changed original")
	}
	c := New(100)
	c.CopyFrom(a)
	if !c.Equal(a) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestStringRendering(t *testing.T) {
	v := FromIndices(5, []int{0, 2, 3})
	if s := v.String(); s != "10110" {
		t.Fatalf("String = %q, want %q", s, "10110")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 8, 9, 63, 64, 65, 500} {
		v := randomVec(r, n)
		data, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var u Vector
		if err := u.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if !u.Equal(v) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var v Vector
	if err := v.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error on truncated header")
	}
	if err := v.UnmarshalBinary([]byte{100, 0, 0, 0, 0, 0, 0, 0, 0xFF}); err == nil {
		t.Fatal("expected error on truncated payload")
	}
}

func TestPayloadBytesTailZeroed(t *testing.T) {
	// Payload of a 9-bit all-ones vector must have only the first 9 bits set.
	v := NewOnes(9)
	p := v.PayloadBytes()
	if len(p) != 2 || p[0] != 0xFF || p[1] != 0x01 {
		t.Fatalf("payload = %x, want ff01", p)
	}
}

func TestSetPayload(t *testing.T) {
	var v Vector
	if err := v.SetPayload(9, []byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if v.Count() != 9 {
		t.Fatalf("Count = %d, want 9 (tail must be masked)", v.Count())
	}
}

// TestFromWordsMatchesSetPayload: adopting words equals decoding the same
// bits from bytes, stray bits past the length included, at word and chunk
// boundaries.
func TestFromWordsMatchesSetPayload(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 64, 65, 1<<16 - 1, 1<<16 + 1, 2<<16 - 1, 2<<16 + 1} {
		words := make([]uint64, wordsFor(n))
		payload := make([]byte, (n+7)/8)
		for i := range words {
			words[i] = r.Uint64()
		}
		for i := range payload {
			payload[i] = byte(words[i/8] >> uint(8*(i%8)))
		}
		var want Vector
		if err := want.SetPayload(n, payload); err != nil {
			t.Fatal(err)
		}
		got, err := FromWords(n, words)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(&want) || got.Count() != want.Count() {
			t.Fatalf("n=%d: FromWords differs from SetPayload", n)
		}
		var back Vector
		if err := back.SetPayload(n, got.PayloadBytes()); err != nil || !back.Equal(got) {
			t.Fatalf("n=%d: PayloadBytes does not round-trip (%v)", n, err)
		}
	}
	if _, err := FromWords(65, make([]uint64, 1)); err == nil {
		t.Fatal("FromWords accepted too few words")
	}
	if _, err := FromWords(64, make([]uint64, 2)); err == nil {
		t.Fatal("FromWords accepted too many words")
	}
	if _, err := FromWords(-1, nil); err == nil {
		t.Fatal("FromWords accepted a negative length")
	}
}

func BenchmarkAnd64K(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	x, y := randomVec(r, 1<<16), randomVec(r, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkCount64K(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	x := randomVec(r, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Count()
	}
}

func TestFusedCounts(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := r.Intn(400)
		a, b := randomVec(r, n), randomVec(r, n)
		and := a.Clone()
		and.And(b)
		if got := AndCount(a, b); got != and.Count() {
			t.Fatalf("AndCount = %d, want %d", got, and.Count())
		}
		or := a.Clone()
		or.Or(b)
		if got := OrCount(a, b); got != or.Count() {
			t.Fatalf("OrCount = %d, want %d", got, or.Count())
		}
		anot := a.Clone()
		anot.AndNot(b)
		if got := AndNotCount(a, b); got != anot.Count() {
			t.Fatalf("AndNotCount = %d, want %d", got, anot.Count())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	AndCount(New(3), New(4))
}
