package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"

	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
	"bitmapindex/internal/engine"
)

type kind uint8

const (
	indexKind    kind = iota // one served single-attribute index
	tableKind                // a served catalog table
	maintainKind             // the MutableIndex library API
)

// workload is one named input set and traffic mix.
type workload struct {
	name  string
	kind  kind
	cache int // -cache capacity the index is served with, in bitmaps
	why   string
}

var workloads = []workload{
	{"disk", indexKind, 8, "working set (18 bitmaps, 9 MiB dense) exceeds the 8-bitmap cache, so storage read, CRC and decode-to-dense dominate"},
	{"cached", indexKind, 32, "same index with every bitmap cached after warm-up, so only evaluation kernels and the serve path work"},
	{"table", tableKind, 0, "the only path through the catalog: dictionary translation, interval encoding, zlib, the conjunction AND and reorder map-back"},
	{"maintain", maintainKind, 0, "the only writing workload: MutableIndex appends, deletes and Compact rebuilds beside its queries"},
}

func lookupWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// Index workloads: C=100 values under the knee base <10,10>, which stores
// 9+9 range-encoded bitmaps.
const (
	indexCard    = 100
	indexBase    = "<10,10>"
	indexBitmaps = 18
)

// The six comparison operators, uniform in every single-attribute stream.
var opNames = [...]string{"<", "<=", ">", ">=", "=", "!="}

// Streams name the seeded sequences drawn from one seed.
const (
	streamWarm uint64 = iota + 1
	streamMeasure
	streamTrace
	streamPool
	streamMaintain
)

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pick returns the i-th draw of a seeded stream.
func pick(seed int64, stream, i uint64) uint64 {
	return splitmix(splitmix(splitmix(uint64(seed))^stream) ^ i)
}

// holds is the oracle's own comparison: whether value a satisfies (a op c).
func holds(op string, a, c int64) bool {
	switch op {
	case "<":
		return a < c
	case "<=":
		return a <= c
	case ">":
		return a > c
	case ">=":
		return a >= c
	case "=":
		return a == c
	case "!=":
		return a != c
	}
	panic("bench: unknown operator " + op)
}

// query is one operation a served workload issues, with its expected count.
type query struct {
	text  string // the /query q parameter
	op    core.Op
	v     uint64        // single-attribute form
	preds []engine.Pred // table form
	want  int
}

// indexQueries returns every (operator, constant) pair over [0, card),
// counted from the value histogram.
func indexQueries(vals []uint64, card int) ([]query, error) {
	hist := make([]int, card)
	for _, v := range vals {
		hist[v]++
	}
	qs := make([]query, 0, len(opNames)*card)
	for _, name := range opNames {
		op, err := core.ParseOp(name)
		if err != nil {
			return nil, err
		}
		for c := 0; c < card; c++ {
			want := 0
			for u, n := range hist {
				if holds(name, int64(u), int64(c)) {
					want += n
				}
			}
			qs = append(qs, query{text: fmt.Sprintf("%s %d", name, c), op: op, v: uint64(c), want: want})
		}
	}
	return qs, nil
}

// tableData holds the raw table columns.
type tableData struct {
	names []string
	cols  [][]int64
}

// Table columns: qty uniform over [0,100), region zipf(1.5) over [0,16),
// price uniform over 5×[0,1000) so most constants miss the dictionary.
func genTable(rows int, seed int64) tableData {
	conv := func(c data.Column, scale int64) []int64 {
		out := make([]int64, len(c.Values))
		for i, v := range c.Values {
			out[i] = int64(v) * scale
		}
		return out
	}
	return tableData{
		names: []string{"qty", "region", "price"},
		cols: [][]int64{
			conv(data.Uniform(rows, 100, seed), 1),
			conv(data.Zipf(rows, 16, 1.5, seed+1), 1),
			conv(data.Uniform(rows, 1000, seed+2), 5),
		},
	}
}

// clause is one predicate of a table conjunction: column col op c.
type clause struct {
	col int
	op  string
	c   int64
}

// tableClauses draws conjunction i of the seeded pool: a qty range always,
// a region equality and a price range each with probability 1/2.
func tableClauses(seed int64, i int) []clause {
	rangeOps := opNames[:4]
	h := func(k uint64) uint64 { return pick(seed, streamPool, uint64(i)<<4|k) }
	cls := []clause{{col: 0, op: rangeOps[h(0)%4], c: int64(h(1) % 100)}}
	if h(2)%2 == 0 {
		cls = append(cls, clause{col: 1, op: "=", c: int64(h(3) % 16)})
	}
	if h(4)%2 == 0 {
		cls = append(cls, clause{col: 2, op: rangeOps[h(5)%4], c: int64(h(6) % 5000)})
	}
	return cls
}

// tableQueries draws the pool of n conjunctions and counts each.
func tableQueries(t tableData, seed int64, n int) ([]query, error) {
	cb := newCube(t)
	qs := make([]query, 0, n)
	for i := 0; i < n; i++ {
		cls := tableClauses(seed, i)
		q := query{want: cb.count(cls)}
		for j, cl := range cls {
			op, err := core.ParseOp(cl.op)
			if err != nil {
				return nil, err
			}
			q.preds = append(q.preds, engine.Pred{Col: t.names[cl.col], Op: op, Val: cl.c})
			if j > 0 {
				q.text += " AND "
			}
			q.text += fmt.Sprintf("%s %s %d", t.names[cl.col], cl.op, cl.c)
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// cube counts the table's rows by their (qty, region, price) values, with
// running sums along price, so that counting a conjunction takes one
// difference per admitted (qty, region) pair instead of a pass over the
// rows.
type cube struct {
	axes [3][]int64 // each column's distinct values, ascending
	// pre[(i*len(axes[1])+j)*(len(axes[2])+1)+k] counts the rows with qty
	// axes[0][i], region axes[1][j] and a price below axes[2][k].
	pre []int
}

func newCube(t tableData) *cube {
	cb := &cube{}
	var index [3]map[int64]int
	for d := range cb.axes {
		index[d] = make(map[int64]int)
		for _, v := range t.cols[d] {
			index[d][v] = 0
		}
		for v := range index[d] {
			cb.axes[d] = append(cb.axes[d], v)
		}
		sort.Slice(cb.axes[d], func(a, b int) bool { return cb.axes[d][a] < cb.axes[d][b] })
		for i, v := range cb.axes[d] {
			index[d][v] = i
		}
	}
	n1, n2 := len(cb.axes[1]), len(cb.axes[2])
	cb.pre = make([]int, len(cb.axes[0])*n1*(n2+1))
	for r := range t.cols[0] {
		i, j, k := index[0][t.cols[0][r]], index[1][t.cols[1][r]], index[2][t.cols[2][r]]
		cb.pre[(i*n1+j)*(n2+1)+k+1]++
	}
	for cell := 0; cell < len(cb.pre); cell += n2 + 1 {
		for k := cell + 1; k <= cell+n2; k++ {
			cb.pre[k] += cb.pre[k-1]
		}
	}
	return cb
}

// count returns the number of rows satisfying every clause.
func (cb *cube) count(cls []clause) int {
	var admit [3][]bool // per column, whether each distinct value passes its clauses
	for d := range admit {
		admit[d] = make([]bool, len(cb.axes[d]))
		for i, v := range cb.axes[d] {
			admit[d][i] = true
			for _, cl := range cls {
				if cl.col == d && !holds(cl.op, v, cl.c) {
					admit[d][i] = false
				}
			}
		}
	}
	// Price clauses are ranges, so the admitted prices are one run [lo, hi).
	lo, hi := 0, 0
	for lo < len(admit[2]) && !admit[2][lo] {
		lo++
	}
	for hi = lo; hi < len(admit[2]) && admit[2][hi]; hi++ {
	}
	for k := hi; k < len(admit[2]); k++ {
		if admit[2][k] {
			panic("bench: price clauses admit more than one run of values")
		}
	}
	n1, n2 := len(cb.axes[1]), len(cb.axes[2])
	total := 0
	for i, qok := range admit[0] {
		for j, rok := range admit[1] {
			if qok && rok {
				cell := (i*n1 + j) * (n2 + 1)
				total += cb.pre[cell+hi] - cb.pre[cell+lo]
			}
		}
	}
	return total
}

// writeValues writes one value per line, the input of `bixstore build`.
func writeValues(path string, vals []uint64) error {
	return writeText(path, func(w *bufio.Writer) {
		var buf []byte
		for _, v := range vals {
			buf = strconv.AppendUint(buf[:0], v, 10)
			buf = append(buf, '\n')
			w.Write(buf)
		}
	})
}

// writeCSV writes the table with a header row, the input of `bixstore csv`.
func writeCSV(path string, t tableData) error {
	return writeText(path, func(w *bufio.Writer) {
		for j, name := range t.names {
			if j > 0 {
				w.WriteByte(',')
			}
			w.WriteString(name)
		}
		w.WriteByte('\n')
		var buf []byte
		for r := range t.cols[0] {
			buf = buf[:0]
			for j := range t.cols {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, t.cols[j][r], 10)
			}
			buf = append(buf, '\n')
			w.Write(buf)
		}
	})
}

// writeText creates path and fills it through a buffered writer; the
// writer's first error is reported by Flush.
func writeText(path string, fill func(w *bufio.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fill(w)
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}
