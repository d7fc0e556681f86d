// Package catalog manages a persistent table of bitmap indexes: one
// on-disk index per attribute plus the value dictionaries needed to
// translate raw predicates into rank space. It is the multiple-index
// organization the paper motivates for data warehouses ("the database to
// be fully inverted" in Sybase IQ's terms), with a conjunctive query
// entry point evaluated entirely against the stored indexes.
//
// Layout:
//
//	dir/table.json   descriptor: rows, attribute list, dictionaries
//	dir/perm.bin     row permutation, only when rows were reordered
//	dir/<attr>/      one storage.Save output per attribute
package catalog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/bits"
	"os"
	"path/filepath"
	"sort"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/design"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/reorder"
	"bitmapindex/internal/storage"
	"bitmapindex/internal/workload"
)

const (
	tableFile = "table.json"
	permFile  = "perm.bin"
	// tableVersion is the descriptor version Create writes. Version 1
	// stored the permutation at 64 bits per entry and sorted rows in
	// column order; Open reads both.
	tableVersion = 2
)

// tableMeta is the serialized descriptor.
type tableMeta struct {
	Version int        `json:"version"`
	Name    string     `json:"name"`
	Rows    int        `json:"rows"`
	Attrs   []attrMeta `json:"attributes"`
	// Reorder names the row sort applied before bitmap construction
	// ("none", "lex", "gray"). When not "none", perm.bin holds the row
	// permutation perm[newPos] = origRow, packed by packPerm at
	// permWidth bits per entry, and PermChecksum its CRC-32, so stored
	// bitmaps — built over sorted rows — can be mapped back to original
	// row ids at query time.
	Reorder string `json:"reorder,omitempty"`
	// SortKey names the attributes the rows were sorted by, most
	// significant first. A version-1 descriptor has none: its rows were
	// sorted in column order.
	SortKey      []string `json:"sort_key,omitempty"`
	PermChecksum uint32   `json:"perm_checksum,omitempty"`
}

type attrMeta struct {
	Name string `json:"name"`
	Dir  string `json:"dir"`
	// Dict holds the sorted distinct raw values; rank i maps to Dict[i].
	Dict []int64 `json:"dictionary"`
}

// Options configures table creation.
type Options struct {
	// Store selects the physical layout of every attribute index; zero
	// value means uncompressed bitmap-level storage.
	Store storage.Options
	// BaseFor picks the index design per attribute cardinality; nil means
	// the knee design.
	BaseFor func(card uint64) (core.Base, error)
	// Encoding for every attribute index; default RangeEncoded.
	Encoding core.Encoding
	// Reorder sorts rows by their attribute-rank tuples before building
	// the bitmaps, multiplying run-length compression (arXiv:0901.3751).
	// The tuple lists the attributes by ascending dictionary cardinality,
	// ties in column order (see sortKey). Query maps its result back to
	// original row ids; Count needs no map-back.
	Reorder reorder.Order
}

// Table is an open catalog of attribute indexes.
type Table struct {
	dir   string
	meta  tableMeta
	attrs map[string]*Attr
	// perm is the build-time row permutation (perm[newPos] = origRow),
	// nil when rows were not reordered. Stored bitmaps are positioned in
	// sorted row space; Query maps results back through it.
	perm []int
}

// Attr is one open attribute: its dictionary and its on-disk index.
type Attr struct {
	Name  string
	dict  *engine.Dict
	store *storage.Store
}

// Dict returns the attribute's value dictionary.
func (a *Attr) Dict() *engine.Dict { return a.dict }

// Store returns the attribute's on-disk index.
func (a *Attr) Store() *storage.Store { return a.store }

// Create builds and persists one bitmap index per relation column. The
// relation's columns must already be loaded (RID/bitmap indexes on the
// relation itself are not required).
func Create(dir string, rel *engine.Relation, opts Options) (*Table, error) {
	if rel.Rows() == 0 {
		return nil, fmt.Errorf("catalog: empty relation")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	baseFor := opts.BaseFor
	if baseFor == nil {
		baseFor = design.Knee
	}
	meta := tableMeta{Version: tableVersion, Name: rel.Name, Rows: rel.Rows(), Reorder: opts.Reorder.String()}
	var perm []int
	if opts.Reorder != reorder.None {
		key, rankCols, err := sortKey(rel)
		if err != nil {
			return nil, err
		}
		perm = reorder.Permutation(opts.Reorder, rankCols)
		meta.SortKey = key
	}
	for _, name := range rel.ColumnNames() {
		col, err := rel.Column(name)
		if err != nil {
			return nil, err
		}
		base, err := baseFor(col.Card())
		if err != nil {
			return nil, fmt.Errorf("catalog: attribute %q: %w", name, err)
		}
		ranks := col.Ranks()
		if perm != nil {
			ranks = reorder.Apply(perm, ranks)
		}
		ix, err := core.Build(ranks, col.Card(), base, opts.Encoding, nil)
		if err != nil {
			return nil, fmt.Errorf("catalog: attribute %q: %w", name, err)
		}
		sub := fmt.Sprintf("attr_%03d", len(meta.Attrs))
		if _, err := storage.Save(ix, filepath.Join(dir, sub), opts.Store); err != nil {
			return nil, fmt.Errorf("catalog: attribute %q: %w", name, err)
		}
		meta.Attrs = append(meta.Attrs, attrMeta{Name: name, Dir: sub, Dict: col.Dict().Values()})
	}
	mj, pb, err := encodeTable(meta, perm)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if perm != nil {
		if err := os.WriteFile(filepath.Join(dir, permFile), pb, 0o644); err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, tableFile), mj, 0o644); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	return Open(dir)
}

// sortKey orders the relation's columns by ascending dictionary
// cardinality, ties in column order, and returns their names and rank
// columns in that order. A leading low-cardinality attribute cuts the
// rows into few long runs that each later attribute subdivides, so the
// bitmaps of every attribute compress better than under column order
// (histogram-aware sorting, arXiv:0808.2083).
func sortKey(rel *engine.Relation) ([]string, [][]uint64, error) {
	names := rel.ColumnNames()
	cols := make([]*engine.Column, len(names))
	for i, name := range names {
		col, err := rel.Column(name)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = col
	}
	sort.SliceStable(cols, func(i, j int) bool { return cols[i].Card() < cols[j].Card() })
	ranks := make([][]uint64, len(cols))
	for i, col := range cols {
		names[i], ranks[i] = col.Name, col.Ranks()
	}
	return names, ranks, nil
}

// permWidth returns the bits per perm.bin entry: 64 in version 1, and
// from version 2 on the fewest that hold every row id below rows.
func permWidth(version, rows int) int {
	if version == 1 {
		return 64
	}
	return max(1, bits.Len(uint(rows-1)))
}

// packedBytes returns the size of rows entries packed at w bits.
func packedBytes(rows, w int) int { return 8 * ((rows*w + 63) / 64) }

// packPerm packs perm at w bits per entry into little-endian uint64
// words, entry i at bits [i·w, (i+1)·w) of the stream. The padding bits
// above the last entry are zero.
func packPerm(perm []int, w int) []byte {
	words := make([]uint64, packedBytes(len(perm), w)/8)
	for i, p := range perm {
		k, s := i*w/64, i*w%64
		words[k] |= uint64(p) << s
		if s+w > 64 {
			words[k+1] |= uint64(p) >> (64 - s)
		}
	}
	out := make([]byte, 0, 8*len(words))
	for _, x := range words {
		out = binary.LittleEndian.AppendUint64(out, x)
	}
	return out
}

// unpackPerm reverses packPerm for rows entries of w bits. It rejects a
// buffer of any other length or with a padding bit set; whether the
// entries form a permutation is reorder.Validate's check.
func unpackPerm(pb []byte, rows, w int) ([]int, error) {
	// Every entry takes at least one bit, so rows·w cannot overflow once
	// rows fits in the buffer's bits.
	if rows > 8*len(pb) || len(pb) != packedBytes(rows, w) {
		return nil, corrupt("%s holds %d bytes, not %d entries of %d bits", permFile, len(pb), rows, w)
	}
	word := func(k int) uint64 { return binary.LittleEndian.Uint64(pb[8*k:]) }
	mask := ^uint64(0) >> (64 - w)
	perm := make([]int, rows)
	for i := range perm {
		k, s := i*w/64, i*w%64
		x := word(k) >> s
		if s+w > 64 {
			x |= word(k+1) << (64 - s)
		}
		perm[i] = int(x & mask)
	}
	if tail := rows * w % 64; tail != 0 && word(len(pb)/8-1)>>tail != 0 {
		return nil, corrupt("%s has non-zero padding bits", permFile)
	}
	return perm, nil
}

// encodeTable serializes a descriptor and, for a reordered table, its
// permutation at the descriptor version's width; it sets PermChecksum.
// decodeTable inverts it.
func encodeTable(meta tableMeta, perm []int) (tableJSON, permBin []byte, err error) {
	if perm != nil {
		permBin = packPerm(perm, permWidth(meta.Version, meta.Rows))
		meta.PermChecksum = crc32.ChecksumIEEE(permBin)
	}
	tableJSON, err = json.MarshalIndent(meta, "", "  ")
	return tableJSON, permBin, err
}

// decodeTable parses and checks a descriptor and its permutation file
// (nil when there is none). It reads no files, so the trust boundary of
// Open can be fuzzed on its own. The permutation is nil when rows were
// not reordered. Every error wraps storage.ErrCorrupt.
func decodeTable(tableJSON, permBin []byte) (tableMeta, []int, error) {
	var meta tableMeta
	if err := json.Unmarshal(tableJSON, &meta); err != nil {
		return meta, nil, corrupt("bad %s: %v", tableFile, err)
	}
	if meta.Version != 1 && meta.Version != tableVersion {
		return meta, nil, corrupt("%s version %d, want 1 or %d", tableFile, meta.Version, tableVersion)
	}
	if meta.Rows < 1 {
		return meta, nil, corrupt("%s has %d rows", tableFile, meta.Rows)
	}
	names := make(map[string]bool, len(meta.Attrs))
	for _, am := range meta.Attrs {
		if names[am.Name] {
			return meta, nil, corrupt("%s repeats attribute %q", tableFile, am.Name)
		}
		names[am.Name] = true
	}
	ord, err := reorder.ParseOrder(meta.Reorder)
	if err != nil {
		return meta, nil, corrupt("%v", err)
	}
	if ord == reorder.None || meta.Version == 1 {
		if meta.SortKey != nil {
			return meta, nil, corrupt("%s has a sort key but no version-%d sort", tableFile, tableVersion)
		}
	} else if len(meta.SortKey) != len(meta.Attrs) {
		return meta, nil, corrupt("%s sort key has %d attributes, table %d", tableFile, len(meta.SortKey), len(meta.Attrs))
	} else {
		for _, name := range meta.SortKey {
			if !names[name] {
				return meta, nil, corrupt("%s sort key names %q twice or not at all", tableFile, name)
			}
			delete(names, name)
		}
	}
	if ord == reorder.None {
		return meta, nil, nil
	}
	if permBin == nil {
		return meta, nil, corrupt("%s is missing", permFile)
	}
	if got := crc32.ChecksumIEEE(permBin); got != meta.PermChecksum {
		return meta, nil, corrupt("%s crc %08x, want %08x", permFile, got, meta.PermChecksum)
	}
	perm, err := unpackPerm(permBin, meta.Rows, permWidth(meta.Version, meta.Rows))
	if err != nil {
		return meta, nil, err
	}
	if err := reorder.Validate(perm, meta.Rows); err != nil {
		return meta, nil, corrupt("%s: %v", permFile, err)
	}
	return meta, perm, nil
}

// corrupt reports a table file that does not hold what Create wrote.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("catalog: %w: %s", storage.ErrCorrupt, fmt.Sprintf(format, args...))
}

// Open loads a table created by Create.
func Open(dir string) (*Table, error) {
	mj, err := os.ReadFile(filepath.Join(dir, tableFile))
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	pb, err := os.ReadFile(filepath.Join(dir, permFile))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	meta, perm, err := decodeTable(mj, pb)
	if err != nil {
		return nil, err
	}
	t := &Table{dir: dir, meta: meta, perm: perm, attrs: make(map[string]*Attr, len(meta.Attrs))}
	for _, am := range meta.Attrs {
		dict, err := engine.DictFromValues(am.Dict)
		if err != nil {
			return nil, corrupt("attribute %q: %v", am.Name, err)
		}
		st, err := storage.Open(filepath.Join(dir, am.Dir))
		if err != nil {
			return nil, fmt.Errorf("catalog: attribute %q: %w", am.Name, err)
		}
		if ix := st.Index(); ix.Rows() != meta.Rows || ix.Cardinality() != dict.Card() {
			return nil, corrupt("attribute %q index has %d rows of %d values, table %d rows of %d",
				am.Name, ix.Rows(), ix.Cardinality(), meta.Rows, dict.Card())
		}
		t.attrs[am.Name] = &Attr{Name: am.Name, dict: dict, store: st}
	}
	return t, nil
}

// Name returns the relation name.
func (t *Table) Name() string { return t.meta.Name }

// Rows returns the relation cardinality.
func (t *Table) Rows() int { return t.meta.Rows }

// Reorder returns the row sort order the indexes were built under.
func (t *Table) Reorder() reorder.Order {
	ord, _ := reorder.ParseOrder(t.meta.Reorder)
	return ord
}

// Permutation returns the build-time row permutation (perm[sortedPos] =
// originalRow), or nil when rows were not reordered. Callers evaluating
// directly against an Attr's Store get bitmaps in sorted row space and
// must map them through this (reorder.MapBack) to reach original row
// ids; Table.Query does so automatically.
func (t *Table) Permutation() []int { return t.perm }

// PermutationBytes returns the size of the permutation on disk, 0 when
// rows were not reordered.
func (t *Table) PermutationBytes() int {
	if t.perm == nil {
		return 0
	}
	return packedBytes(t.meta.Rows, permWidth(t.meta.Version, t.meta.Rows))
}

// SortKey returns the attributes the rows were sorted by, most
// significant first, or nil when rows were not reordered.
func (t *Table) SortKey() []string {
	switch {
	case t.perm == nil:
		return nil
	case t.meta.SortKey == nil: // version 1: column order
		return t.Attributes()
	}
	return append([]string(nil), t.meta.SortKey...)
}

// Attributes returns the attribute names in creation order.
func (t *Table) Attributes() []string {
	out := make([]string, len(t.meta.Attrs))
	for i, am := range t.meta.Attrs {
		out[i] = am.Name
	}
	return out
}

// ErrNoAttribute reports a predicate or lookup naming an attribute the
// table does not have: a fault of the request, not of the stored table.
var ErrNoAttribute = errors.New("no such attribute")

// Attr returns the named attribute. An unknown name fails with an error
// wrapping ErrNoAttribute.
func (t *Table) Attr(name string) (*Attr, error) {
	a, ok := t.attrs[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %s: %w: %q", t.meta.Name, ErrNoAttribute, name)
	}
	return a, nil
}

// Query evaluates a conjunction of raw-value predicates entirely against
// the stored indexes (plan P3 with bitmap indexes) and returns the
// qualifying record bitmap over original row ids. Physical costs
// accumulate into m when non-nil.
func (t *Table) Query(preds []engine.Pred, m *storage.Metrics) (*bitvec.Vector, error) {
	out, _, err := t.conjunction(preds, m, true)
	if err != nil {
		return nil, err
	}
	if t.perm != nil {
		mapped := reorder.MapBack(t.perm, out)
		bitvec.Recycle(out)
		out = mapped
	}
	return out, nil
}

// Count returns the number of rows matching the conjunction. A count does
// not change under the build-time row permutation, so Count takes it in
// sorted row space and skips the map-back Query pays for row ids. Its
// last AND is fused with the count (bitvec.AndCount), and a single
// predicate builds no vector at all.
func (t *Table) Count(preds []engine.Pred, m *storage.Metrics) (int, error) {
	_, n, err := t.conjunction(preds, m, false)
	return n, err
}

// conjunction ANDs the predicates' bitmaps in the stored (sorted) row
// space, accounting physical costs into m when non-nil. With keep set it
// returns the result out, a vector the caller owns; without it, it
// returns the number of matching rows instead, fusing the last AND with
// that count. The first predicate is evaluated into out, each later one
// into a pooled scratch vector; a lone predicate that is only counted is
// counted by the evaluator.
func (t *Table) conjunction(preds []engine.Pred, m *storage.Metrics, keep bool) (out *bitvec.Vector, matches int, err error) {
	if len(preds) == 0 {
		return nil, 0, fmt.Errorf("catalog: empty predicate list")
	}
	rows := t.meta.Rows
	for i, p := range preds {
		a, err := t.Attr(p.Col)
		if err != nil {
			bitvec.Recycle(out)
			return nil, 0, err
		}
		rop, rank, all, none := a.dict.Translate(p.Op, p.Val)
		// dst receives this predicate's bitmap: out for the first one,
		// scratch for the rest, nothing for a lone predicate only counted.
		last := i == len(preds)-1
		var dst *bitvec.Vector
		switch {
		case out != nil:
			dst = bitvec.Borrow(rows)
		case keep || !last:
			out = bitvec.Borrow(rows)
			dst = out
		}
		var n int
		switch {
		case none:
			if dst != nil {
				dst.ClearAll()
			}
		case all:
			n = rows
			if dst != nil {
				dst.SetAll()
			}
		default:
			n, err = a.store.Count(rop, rank, dst, m)
			if err != nil {
				if dst != out {
					bitvec.Recycle(dst)
				}
				bitvec.Recycle(out)
				return nil, 0, fmt.Errorf("catalog: attribute %q: %w", p.Col, err)
			}
		}
		switch {
		case dst == nil || dst == out:
			matches = n
		case !keep && last:
			matches = bitvec.AndCount(out, dst)
			bitvec.Recycle(dst)
		default:
			out.And(dst)
			bitvec.Recycle(dst)
		}
	}
	if !keep {
		bitvec.Recycle(out)
		out = nil
	}
	return out, matches, nil
}

// Designs describes the current physical design of every attribute in
// creation order — the advisor's "what is on disk" input.
func (t *Table) Designs() []workload.AttrDesign {
	out := make([]workload.AttrDesign, len(t.meta.Attrs))
	for i, am := range t.meta.Attrs {
		a := t.attrs[am.Name]
		ix := a.store.Index()
		out[i] = workload.NewAttrDesign(am.Name, a.dict.Card(), ix.Base(),
			ix.Encoding(), a.store.Options().Codec.String(), t.meta.Reorder)
	}
	return out
}

// Exists reports whether dir holds a table descriptor.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, tableFile))
	return err == nil
}
