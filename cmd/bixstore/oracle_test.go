package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"bitmapindex/internal/catalog"
	"bitmapindex/internal/core"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/mutable"
	"bitmapindex/internal/reorder"
	"bitmapindex/internal/storage"
)

// The served-path differential oracle: a naive row scan, nulls included,
// against the real /query handlers. Every query runs concurrently with
// another one on the same server, so a pooled vector (a rids destination,
// a decoded operand, a conjunction's scratch) that one query hands back
// while it is still reading it shows up as a wrong answer, or as a race
// under -race.

// oracleRows are the row counts of the index-mode oracle: one row, both
// sides of a word boundary, and both sides of powers of two. At 2^16 ± 1
// a BS file ends just before or after a roaring chunk boundary, and the
// values are sorted, so that bitmaps have empty chunks. CS and IS files
// hold rows × stride bits, so their matrices cross chunk boundaries from
// 2^13 + 1 rows on; past that only BS runs, since larger CS and IS
// matrices add time and no new case.
var oracleRows = []int{1, 63, 64, 65, 1023, 1025, 1<<13 - 1, 1<<13 + 1, 1<<16 - 1, 1<<16 + 1}

const allSchemesMaxRows = 1<<13 + 1

// oracleColumn is a generated attribute: values in [0, card), a tenth of
// the rows null.
type oracleColumn struct {
	card  uint64
	vals  []uint64
	nulls []bool
}

// genColumn draws the values uniformly; sorted puts them in ascending
// order, as a reordered table stores them, so that many bitmaps hold
// long empty stretches (a roaring file then has chunks with no
// container).
func genColumn(r *rand.Rand, rows int, card uint64, sorted bool) oracleColumn {
	c := oracleColumn{card: card, vals: make([]uint64, rows), nulls: make([]bool, rows)}
	for i := range c.vals {
		c.vals[i] = uint64(r.Int63n(int64(card)))
		c.nulls[i] = r.Intn(10) == 0
	}
	if sorted {
		slices.Sort(c.vals)
	}
	return c
}

// match returns the rows satisfying (A op v) by scanning every value.
func (c oracleColumn) match(op core.Op, v uint64) []int {
	var ids []int
	for i, a := range c.vals {
		if !c.nulls[i] && op.Matches(a, v) {
			ids = append(ids, i)
		}
	}
	return ids
}

// oracleQuery is one /query request: a count, a rids=1 request at limit,
// or an analyze=1 request.
type oracleQuery struct {
	op      core.Op
	v       uint64
	rids    bool
	limit   int
	analyze bool
}

func (q oracleQuery) path() string {
	p := "/query?q=" + url.QueryEscape(fmt.Sprintf("%s %d", q.op, q.v))
	switch {
	case q.rids:
		p += fmt.Sprintf("&rids=1&limit=%d", q.limit)
	case q.analyze:
		p += "&analyze=1"
	}
	return p
}

// oracleQueries draws every operator at the smallest, a middle, the
// largest and an out-of-range constant, each as a count or as rids=1 at
// a random limit, plus one analyze=1 request.
func oracleQueries(r *rand.Rand, card uint64) []oracleQuery {
	var qs []oracleQuery
	for _, op := range core.AllOps {
		for _, v := range []uint64{0, uint64(r.Int63n(int64(card))), card - 1, card} {
			qs = append(qs, oracleQuery{op: op, v: v, rids: r.Intn(2) == 0, limit: r.Intn(70)})
		}
	}
	return append(qs, oracleQuery{op: core.AllOps[r.Intn(len(core.AllOps))], v: uint64(r.Int63n(int64(card))), analyze: true})
}

// runConcurrently runs check(i) for every i < n, split between two
// goroutines that run at once.
func runConcurrently(n int, check func(i int)) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 2 {
				check(i)
			}
		}(g)
	}
	wg.Wait()
}

// checkIndexOracle serves st with a bitmap cache of the given capacity
// and checks each query's response against the naive scan: matches, the
// first limit rids, and scans and operations equal to what the library
// Eval of the same store (through a cache of the same capacity) reports.
// An analyzed query bypasses the cache and reports the uncached scans.
func checkIndexOracle(t *testing.T, name string, col oracleColumn, st *storage.Store, cache int, qs []oracleQuery) {
	srv, err := newQueryServer(st, cache, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux := srv.mux()
	eval := st.Eval
	if cache > 0 {
		cs, err := storage.NewCached(st, cache)
		if err != nil {
			t.Fatal(err)
		}
		eval = cs.Eval
	}
	runConcurrently(len(qs), func(i int) {
		q := qs[i]
		want := col.match(q.op, q.v)
		code, body := serveGet(t, mux, q.path())
		if code != http.StatusOK {
			t.Errorf("%s %s: status %d: %s", name, q.path(), code, body)
			return
		}
		if q.analyze {
			var rep engine.PlanReport
			if err := json.Unmarshal([]byte(body), &rep); err != nil {
				t.Errorf("%s %s: %v", name, q.path(), err)
				return
			}
			var m storage.Metrics
			if _, err := st.Eval(q.op, q.v, &m); err != nil {
				t.Errorf("%s %s: Eval: %v", name, q.path(), err)
				return
			}
			if rep.Rows != len(want) || rep.MeasuredScans != m.Stats.Scans {
				t.Errorf("%s %s: rows %d scans %d, want %d rows (naive) and %d scans (Eval)",
					name, q.path(), rep.Rows, rep.MeasuredScans, len(want), m.Stats.Scans)
			}
			return
		}
		var resp queryResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Errorf("%s %s: %v", name, q.path(), err)
			return
		}
		var m storage.Metrics
		res, err := eval(q.op, q.v, &m)
		if err != nil {
			t.Errorf("%s %s: Eval: %v", name, q.path(), err)
			return
		}
		if got := res.OnesSlice(); !slices.Equal(got, want) && (len(got) > 0 || len(want) > 0) {
			t.Errorf("%s %s: Eval returned %d rows, naive scan %d", name, q.path(), len(got), len(want))
		}
		if resp.Matches != len(want) {
			t.Errorf("%s %s: matches %d, naive scan %d", name, q.path(), resp.Matches, len(want))
		}
		if q.rids {
			if k := min(q.limit, len(want)); !slices.Equal(resp.RIDs, want[:k]) && (k > 0 || len(resp.RIDs) > 0) {
				t.Errorf("%s %s: rids %v, naive scan %v", name, q.path(), resp.RIDs, want[:k])
			}
		}
		if resp.Scans != m.Stats.Scans || resp.Ops != opsOf(m.Stats) {
			t.Errorf("%s %s: scans %d ops %+v, Eval %d and %+v", name, q.path(), resp.Scans, resp.Ops, m.Stats.Scans, opsOf(m.Stats))
		}
	})
}

// oracleDesign is the index design of one oracle store: base and encoding
// over card 20 values.
func oracleDesign(i int) (core.Base, core.Encoding) {
	switch i % 3 {
	case 0:
		return core.Base{5, 4}, core.RangeEncoded
	case 1:
		return core.Base{4, 5}, core.EqualityEncoded
	default:
		return core.Base{20}, core.IntervalEncoded
	}
}

// saveOracleIndex builds the column's index with the i-th design and
// saves it under the scheme and codec.
func saveOracleIndex(t *testing.T, col oracleColumn, i int, scheme storage.Scheme, codec storage.Codec) *storage.Store {
	base, enc := oracleDesign(i)
	ix, err := core.Build(col.vals, col.card, base, enc, &core.BuildOptions{Nulls: col.nulls})
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.Save(ix, t.TempDir(), storage.Options{Scheme: scheme, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

var (
	oracleSchemes = []storage.Scheme{storage.BitmapLevel, storage.ComponentLevel, storage.IndexLevel}
	oracleCodecs  = []storage.Codec{storage.CodecRaw, storage.CodecZlib, storage.CodecRoaring}
)

// TestServedOracle checks the served query paths against a naive scan:
// index mode for every scheme, codec and bitmap-pool size (none, part of
// the stored bitmaps, all of them) at the oracleRows row counts, table
// mode for counts and rids=1 under every row order, and MutableIndex
// after appends, deletes and Compact.
func TestServedOracle(t *testing.T) {
	t.Run("index", func(t *testing.T) {
		r := rand.New(rand.NewSource(1))
		for ri, rows := range oracleRows {
			col := genColumn(r, rows, 20, rows > allSchemesMaxRows)
			t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
				for si, scheme := range oracleSchemes {
					if rows > allSchemesMaxRows && scheme != storage.BitmapLevel {
						continue
					}
					for ci, codec := range oracleCodecs {
						st := saveOracleIndex(t, col, ri+si+ci, scheme, codec)
						stored := st.Index().NumBitmaps()
						for _, cache := range []int{0, (stored + 1) / 2, stored} {
							name := fmt.Sprintf("%s cache=%d/%d", st.Describe(), cache, stored)
							checkIndexOracle(t, name, col, st, cache, oracleQueries(r, col.card))
						}
					}
				}
			})
		}
	})
	t.Run("table", testTableOracle)
	t.Run("mutable", testMutableOracle)
}

// FuzzServedOracle runs the index-mode oracle on one generated store:
// the seed draws the column and the queries, rows is taken mod 2100, and
// design picks the scheme, codec, pool size and index design, and whether
// the values are sorted.
func FuzzServedOracle(f *testing.F) {
	f.Add(int64(1), uint16(65), uint8(0))
	f.Add(int64(2), uint16(1), uint8(17))
	f.Add(int64(3), uint16(1025), uint8(107))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, design uint8) {
		r := rand.New(rand.NewSource(seed))
		col := genColumn(r, 1+int(rows)%2100, 20, design%2 == 1)
		d := int(design)
		st := saveOracleIndex(t, col, d/36, oracleSchemes[d%3], oracleCodecs[d/3%len(oracleCodecs)])
		cache := []int{0, 1, st.Index().NumBitmaps()}[d/12%3]
		checkIndexOracle(t, "fuzz", col, st, cache, oracleQueries(r, col.card))
	})
}

// testTableOracle checks table-mode /query, counts and rids=1, against a
// naive scan of the raw columns, under every row order, and its scans
// and operations against Table.Count's.
func testTableOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cols := []struct {
		name  string
		card  int64
		scale int64 // raw values are multiples of scale, so constants between them miss the dictionary
	}{{"qty", 30, 1}, {"region", 6, 1}, {"price", 50, 5}}
	for i, rows := range []int{1, 64, 65, 4097} {
		rel := engine.NewRelation("t")
		raw := make(map[string][]int64)
		for _, c := range cols {
			vals := make([]int64, rows)
			for j := range vals {
				vals[j] = c.scale * r.Int63n(c.card)
			}
			raw[c.name] = vals
			if _, err := rel.AddInt64(c.name, vals); err != nil {
				t.Fatal(err)
			}
		}
		var queries [][]engine.Pred
		for range 24 {
			var preds []engine.Pred
			for _, c := range cols[:1+r.Intn(len(cols))] {
				preds = append(preds, engine.Pred{Col: c.name, Op: core.AllOps[r.Intn(6)], Val: r.Int63n(c.card*c.scale + 2)})
			}
			queries = append(queries, preds)
		}
		for oi, ord := range []reorder.Order{reorder.None, reorder.Lex, reorder.Gray} {
			dir := filepath.Join(t.TempDir(), "tbl")
			_, err := catalog.Create(dir, rel, catalog.Options{
				Store:    storage.Options{Scheme: storage.BitmapLevel, Codec: oracleCodecs[(i+oi)%len(oracleCodecs)]},
				Encoding: []core.Encoding{core.RangeEncoded, core.EqualityEncoded, core.IntervalEncoded}[(i+oi)%3],
				Reorder:  ord,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts, err := newTableServer(dir, "")
			if err != nil {
				t.Fatal(err)
			}
			ref, err := catalog.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			mux := ts.mux()
			runConcurrently(2*len(queries), func(qi int) {
				preds, rids := queries[qi/2], qi%2 == 1
				var want []int
				for row := 0; row < rows; row++ {
					ok := true
					for _, p := range preds {
						ok = ok && rawMatches(p.Op, raw[p.Col][row], p.Val)
					}
					if ok {
						want = append(want, row)
					}
				}
				var clauses []string
				for _, p := range preds {
					clauses = append(clauses, p.String())
				}
				path := "/query?q=" + url.QueryEscape(strings.Join(clauses, " AND "))
				limit := qi % 50
				if rids {
					path += fmt.Sprintf("&rids=1&limit=%d", limit)
				}
				name := fmt.Sprintf("rows=%d %v %s", rows, ord, path)
				code, body := serveGet(t, mux, path)
				if code != http.StatusOK {
					t.Errorf("%s: status %d: %s", name, code, body)
					return
				}
				var resp tableQueryResponse
				if err := json.Unmarshal([]byte(body), &resp); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if resp.Matches != len(want) {
					t.Errorf("%s: matches %d, naive scan %d", name, resp.Matches, len(want))
				}
				if k := min(limit, len(want)); rids && !slices.Equal(resp.RIDs, want[:k]) && (k > 0 || len(resp.RIDs) > 0) {
					t.Errorf("%s: rids %v, naive scan %v", name, resp.RIDs, want[:k])
				}
				var m storage.Metrics
				if _, err := ref.Count(preds, &m); err != nil {
					t.Errorf("%s: Count: %v", name, err)
					return
				}
				if resp.Scans != m.Stats.Scans || resp.Ops != opsOf(m.Stats) {
					t.Errorf("%s: scans %d ops %+v, Table.Count %d and %+v", name, resp.Scans, resp.Ops, m.Stats.Scans, opsOf(m.Stats))
				}
			})
		}
	}
}

// rawMatches is the table oracle's predicate over raw int64 values.
func rawMatches(op core.Op, a, v int64) bool {
	switch op {
	case core.Lt:
		return a < v
	case core.Le:
		return a <= v
	case core.Gt:
		return a > v
	case core.Ge:
		return a >= v
	case core.Eq:
		return a == v
	default:
		return a != v
	}
}

// testMutableOracle checks MutableIndex.Eval, from two goroutines at
// once, against a naive scan of the live rows after appends (values and
// nulls), deletes, a Compact, and more of both.
func testMutableOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i, rows := range []int{1, 63, 64, 65, 1025} {
		col := genColumn(r, rows, 20, false)
		base, enc := oracleDesign(i)
		ix, err := core.Build(col.vals, col.card, base, enc, &core.BuildOptions{Nulls: col.nulls})
		if err != nil {
			t.Fatal(err)
		}
		mi := mutable.FromIndex(ix)
		dead := make([]bool, rows)
		mutate := func() {
			for range 1 + r.Intn(130) {
				if r.Intn(5) == 0 {
					mi.AppendNull()
					col.vals, col.nulls = append(col.vals, 0), append(col.nulls, true)
				} else {
					v := uint64(r.Int63n(int64(col.card)))
					if _, err := mi.Append(v); err != nil {
						t.Fatal(err)
					}
					col.vals, col.nulls = append(col.vals, v), append(col.nulls, false)
				}
				dead = append(dead, false)
			}
			for range r.Intn(len(dead)/3 + 1) {
				row := r.Intn(len(dead))
				if err := mi.Delete(row); err != nil {
					t.Fatal(err)
				}
				dead[row] = true
			}
		}
		check := func(stage string) {
			live := oracleColumn{card: col.card, vals: col.vals, nulls: slices.Clone(col.nulls)}
			for row, d := range dead {
				live.nulls[row] = live.nulls[row] || d
			}
			qs := oracleQueries(r, col.card)
			runConcurrently(len(qs), func(qi int) {
				q := qs[qi]
				got, want := mi.Eval(q.op, q.v).OnesSlice(), live.match(q.op, q.v)
				if !slices.Equal(got, want) && (len(got) > 0 || len(want) > 0) {
					t.Errorf("rows=%d %s: A %s %d: %d rows, naive scan %d", rows, stage, q.op, q.v, len(got), len(want))
				}
			})
		}
		mutate()
		check("after appends and deletes")
		if err := mi.Compact(); err != nil {
			t.Fatal(err)
		}
		// Compact drops deleted rows and renumbers the rest.
		var vals []uint64
		var nulls []bool
		for row, d := range dead {
			if !d {
				vals, nulls = append(vals, col.vals[row]), append(nulls, col.nulls[row])
			}
		}
		col.vals, col.nulls, dead = vals, nulls, make([]bool, len(vals))
		check("after Compact")
		mutate()
		check("after Compact, appends and deletes")
	}
}
