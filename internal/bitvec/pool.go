package bitvec

import "sync"

// The package pool recycles word slices between queries: a query's result
// destination, its scratch vectors and the words its operands are decoded
// into. Slices are pooled by exact length, so a process serving one index
// keeps one pool per distinct vector size. Pooled words hold whatever
// their last user left there; whoever takes them overwrites or clears
// every word before reading one.
var wordPools struct {
	mu sync.Mutex
	by map[int]*sync.Pool // guarded by mu; word count -> pool
}

func wordPool(n int) *sync.Pool {
	wordPools.mu.Lock()
	defer wordPools.mu.Unlock()
	p := wordPools.by[n]
	if p == nil {
		if wordPools.by == nil {
			wordPools.by = make(map[int]*sync.Pool)
		}
		p = new(sync.Pool)
		wordPools.by[n] = p
	}
	return p
}

// GetWords returns a slice of exactly n words from the package pool, or a
// new one when the pool has none. Its contents are unspecified. Hand it
// back with Recycle once it backs a vector (FromWords), or let it go.
func GetWords(n int) []uint64 {
	if n == 0 {
		return nil
	}
	if w, ok := wordPool(n).Get().([]uint64); ok {
		return w
	}
	return make([]uint64, n)
}

// Borrow returns an n-bit vector over pooled words. Its bits, the tail
// word's unused bits included, are unspecified until the caller
// overwrites every word: an evaluator destination (core.Index.EvalInto)
// is overwritten whole. Return it with Recycle.
func Borrow(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: GetWords(wordsFor(n))}
}

// Recycle returns v's words to the package pool and empties v; a nil v is
// a no-op. The caller must own v outright: no other reference to v or its
// words may be used afterwards.
//
//bix:maskok (empties the vector; a zero-length vector has no tail)
func Recycle(v *Vector) {
	if v == nil {
		return
	}
	if len(v.words) > 0 {
		wordPool(len(v.words)).Put(v.words)
	}
	v.n, v.words = 0, nil
}
