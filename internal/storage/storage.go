// Package storage implements the paper's Section 9 physical organizations
// of a bitmap index and their compressed variants:
//
//   - BS (bitmap-level storage): each stored bitmap in its own file; a
//     query reads only the bitmaps it scans.
//   - CS (component-level storage): each component's bit-matrix in one file
//     in row-major order; a query touching a component reads the whole
//     component file and extracts the columns it needs.
//   - IS (index-level storage): the entire index bit-matrix in one
//     row-major file; every query reads everything.
//
// Compression (the "c" prefix in the paper: cBS, cCS, cIS) is zlib
// DEFLATE, the same algorithm family as the zlib C library the paper
// used: files are written by the standard library's compress/zlib and
// read by the package's own decoder for the same format (inflate.go),
// which inflates a file of known length into one flat buffer. Range- and
// equality-encoded component rows are far more regular in row-major order
// than value-distribution-dependent bitmap files, which is why cCS
// compresses best (Table 4) while cBS keeps the per-query I/O advantage
// (Figure 16).
package storage

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/roaring"
	"bitmapindex/internal/telemetry"
)

// Scheme selects the physical layout.
type Scheme uint8

const (
	// BitmapLevel stores each bitmap in its own file (BS).
	BitmapLevel Scheme = iota
	// ComponentLevel stores each component row-major in one file (CS).
	ComponentLevel
	// IndexLevel stores the whole index row-major in one file (IS).
	IndexLevel
)

// String returns the paper's abbreviation for the scheme.
func (s Scheme) String() string {
	switch s {
	case BitmapLevel:
		return "BS"
	case ComponentLevel:
		return "CS"
	case IndexLevel:
		return "IS"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// ParseScheme parses "BS", "CS" or "IS" (case-sensitive).
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "BS":
		return BitmapLevel, nil
	case "CS":
		return ComponentLevel, nil
	case "IS":
		return IndexLevel, nil
	}
	return 0, fmt.Errorf("storage: unknown scheme %q", s)
}

// Codec selects the compression applied to every stored file. Zlib is
// the paper's byte-level "c" prefix; Roaring is a bitmap-aware codec that
// encodes each file's bit payload in its compressed form (for CS/IS the
// row-major matrix is treated as one long bit string).
type Codec uint8

const (
	// CodecRaw stores payloads uncompressed.
	CodecRaw Codec = iota
	// CodecZlib DEFLATE-compresses file bytes (cBS / cCS / cIS).
	CodecZlib
	// CodecRoaring stores each file as a roaring hybrid-container bitmap.
	CodecRoaring
)

// String returns the codec name used in descriptors and flags.
func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecZlib:
		return "zlib"
	case CodecRoaring:
		return "roaring"
	default:
		return fmt.Sprintf("Codec(%d)", uint8(c))
	}
}

// ParseCodec parses "raw", "zlib" or "roaring".
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "raw", "":
		return CodecRaw, nil
	case "zlib":
		return CodecZlib, nil
	case "roaring":
		return CodecRoaring, nil
	}
	return 0, fmt.Errorf("storage: unknown codec %q", s)
}

// Options selects the physical organization of a saved index.
type Options struct {
	Scheme Scheme
	Codec  Codec
}

// String renders the paper's abbreviation, with a codec prefix: "BS",
// "cCS" (zlib), "rBS" (roaring).
func (o Options) String() string {
	switch o.Codec {
	case CodecZlib:
		return "c" + o.Scheme.String()
	case CodecRoaring:
		return "r" + o.Scheme.String()
	default:
		return o.Scheme.String()
	}
}

const metaFile = "meta.json"

// meta is the serialized index descriptor.
type meta struct {
	Version  int    `json:"version"`
	Scheme   string `json:"scheme"`
	Compress bool   `json:"compress"`
	// Codec names the file codec ("raw", "zlib", "roaring").
	// Absent in descriptors written before the codec knob existed, where
	// Compress alone distinguishes raw from zlib.
	Codec    string   `json:"codec,omitempty"`
	Base     []uint64 `json:"base"` // little-endian: Base[0] is b_1
	Encoding string   `json:"encoding"`
	Card     uint64   `json:"cardinality"`
	Rows     int      `json:"rows"`
	HasNulls bool     `json:"has_nulls"`
	// Checksums maps each stored file to the CRC-32 (IEEE) of its on-disk
	// bytes; reads verify it so silent corruption surfaces as an error
	// instead of wrong query results.
	Checksums map[string]uint32 `json:"checksums"`
}

// Metrics accumulates the physical cost of evaluating queries against a
// Store. A single Metrics may be reused across queries. It is the only
// record of these costs: served queries copy it into their flight record
// and /query response.
type Metrics struct {
	Queries      int
	FilesRead    int
	BytesRead    int64 // on-disk bytes read (compressed size when compressed)
	ReadNS       int64 // file read time
	DecompressNS int64 // codec decode time: zlib inflate or roaring decode
	ExtractNS    int64 // row-major column extraction time
	// CacheHits and CacheMisses count this Metrics' own bitmap-pool reads
	// (CachedStore): one per distinct stored bitmap a query references.
	CacheHits   int64
	CacheMisses int64
	Stats       core.Stats
	// Trace, when non-nil, receives per-phase durations (fetch,
	// decompress, extract, bool_ops) for each query evaluated with this
	// Metrics.
	Trace *telemetry.Trace
}

// Store is an on-disk bitmap index opened for query evaluation.
type Store struct {
	dir        string
	meta       meta
	codec      Codec
	shell      *core.Index
	valueBytes int64 // on-disk bytes of the value bitmap files
}

type storageErr struct{ err error }

// Save writes the index to dir (created if needed) in the given physical
// organization and returns the opened store.
func Save(ix *core.Index, dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	m := meta{
		Version:   1,
		Scheme:    opts.Scheme.String(),
		Compress:  opts.Codec == CodecZlib,
		Codec:     opts.Codec.String(),
		Base:      ix.Base(),
		Encoding:  ix.Encoding().String(),
		Card:      ix.Cardinality(),
		Rows:      ix.Rows(),
		HasNulls:  ix.HasNulls(),
		Checksums: make(map[string]uint32),
	}
	if _, err := ParseScheme(m.Scheme); err != nil {
		return nil, err
	}
	// write encodes one file's bit payload (nbits logical bits, byte
	// little-endian within each byte as bitvec lays them out) with the
	// store codec, checksums the on-disk bytes, and writes the file.
	write := func(name string, payload []byte, nbits int) error {
		switch opts.Codec {
		case CodecZlib:
			var buf bytes.Buffer
			zw := zlib.NewWriter(&buf)
			if _, err := zw.Write(payload); err != nil {
				return fmt.Errorf("storage: compress %s: %w", name, err)
			}
			if err := zw.Close(); err != nil {
				return fmt.Errorf("storage: compress %s: %w", name, err)
			}
			payload = buf.Bytes()
		case CodecRoaring:
			var v bitvec.Vector
			if err := v.SetPayload(nbits, payload); err != nil {
				return fmt.Errorf("storage: encode %s: %w", name, err)
			}
			enc, err := roaring.FromVector(&v).MarshalBinary()
			if err != nil {
				return fmt.Errorf("storage: encode %s: %w", name, err)
			}
			payload = enc
		}
		m.Checksums[name] = crc32.ChecksumIEEE(payload)
		if err := os.WriteFile(filepath.Join(dir, name), payload, 0o644); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		return nil
	}
	rows := ix.Rows()
	if err := write("nn.bm", ix.NonNull().PayloadBytes(), rows); err != nil {
		return nil, err
	}
	switch opts.Scheme {
	case BitmapLevel:
		for i := 0; i < ix.Components(); i++ {
			for j := 0; j < ix.ComponentBitmaps(i); j++ {
				if err := write(bitmapFile(i, j), ix.StoredBitmap(i, j).PayloadBytes(), rows); err != nil {
					return nil, err
				}
			}
		}
	case ComponentLevel:
		for i := 0; i < ix.Components(); i++ {
			ni := ix.ComponentBitmaps(i)
			payload := rowMajor(ix, i, i+1, ni)
			if err := write(componentFile(i), payload, rows*ni); err != nil {
				return nil, err
			}
		}
	case IndexLevel:
		stride := totalBitmaps(ix)
		payload := rowMajor(ix, 0, ix.Components(), stride)
		if err := write("index.is", payload, rows*stride); err != nil {
			return nil, err
		}
	}
	// The descriptor is written last so a crash mid-save never leaves a
	// readable-but-incomplete index behind.
	mj, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), mj, 0o644); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return Open(dir)
}

func bitmapFile(i, j int) string { return fmt.Sprintf("c%d_%d.bm", i, j) }
func componentFile(i int) string { return fmt.Sprintf("c%d.cs", i) }
func totalBitmaps(ix *core.Index) int {
	n := 0
	for i := 0; i < ix.Components(); i++ {
		n += ix.ComponentBitmaps(i)
	}
	return n
}

// rowMajor packs components [lo, hi) into a row-major bit matrix with the
// given stride (bits per row): bit (r*stride + col) is bit r of the col-th
// stored bitmap in the range.
func rowMajor(ix *core.Index, lo, hi, stride int) []byte {
	rows := ix.Rows()
	out := make([]byte, (rows*stride+7)/8)
	col := 0
	for i := lo; i < hi; i++ {
		for j := 0; j < ix.ComponentBitmaps(i); j++ {
			c := col
			ix.StoredBitmap(i, j).Ones(func(r int) bool {
				k := r*stride + c
				out[k/8] |= 1 << uint(k%8)
				return true
			})
			col++
		}
	}
	return out
}

// Open loads the descriptor and non-null bitmap of an index saved by Save.
// Value bitmaps are read lazily per query.
func Open(dir string) (*Store, error) {
	mj, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var m meta
	if err := json.Unmarshal(mj, &m); err != nil {
		return nil, fmt.Errorf("storage: bad %s: %w", metaFile, err)
	}
	if _, err := ParseScheme(m.Scheme); err != nil {
		return nil, err
	}
	enc, err := core.ParseEncoding(m.Encoding)
	if err != nil {
		return nil, err
	}
	codec, err := ParseCodec(m.Codec)
	if err != nil {
		return nil, err
	}
	if codec == CodecRaw && m.Compress {
		codec = CodecZlib // descriptor written before the codec field existed
	}
	s := &Store{dir: dir, meta: m, codec: codec}
	nn, err := s.readFile("nn.bm", m.Rows, nil, false)
	if err != nil {
		return nil, err
	}
	shell, err := core.NewShell(core.Base(m.Base), enc, m.Card, nn, m.HasNulls)
	if err != nil {
		return nil, err
	}
	s.shell = shell
	if s.valueBytes, err = s.computeValueBytes(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) computeValueBytes() (int64, error) {
	var names []string
	switch s.meta.Scheme {
	case "BS":
		for i := 0; i < s.shell.Components(); i++ {
			for j := 0; j < s.shell.ComponentBitmaps(i); j++ {
				names = append(names, bitmapFile(i, j))
			}
		}
	case "CS":
		for i := 0; i < s.shell.Components(); i++ {
			names = append(names, componentFile(i))
		}
	case "IS":
		names = append(names, "index.is")
	}
	var total int64
	for _, n := range names {
		fi, err := os.Stat(filepath.Join(s.dir, n))
		if err != nil {
			return 0, fmt.Errorf("storage: %w", err)
		}
		total += fi.Size()
	}
	return total, nil
}

// Index returns the shell descriptor of the stored index (base, encoding,
// cardinality, rows, non-null bitmap). Its bitmaps are not in memory.
func (s *Store) Index() *core.Index { return s.shell }

// Options returns the physical organization of the store.
func (s *Store) Options() Options {
	sc, _ := ParseScheme(s.meta.Scheme)
	return Options{Scheme: sc, Codec: s.codec}
}

// ValueBytes returns the total on-disk size of the value bitmap files (the
// paper's space metric for Table 4 and Figure 16(b); the non-null bitmap
// and descriptor are excluded).
func (s *Store) ValueBytes() int64 { return s.valueBytes }

// Describe returns a one-line plan summary of the store's physical design
// — scheme, compression, encoding and base — the string slow-log entries
// carry so a retained query names the index design that served it (e.g. "bitvector/zlib range-encoded base <4,3>").
func (s *Store) Describe() string {
	return fmt.Sprintf("%s/%s %s-encoded base %s",
		s.meta.Scheme, s.codec, s.meta.Encoding, core.Base(s.meta.Base).String())
}

// readFile reads one file, verifies its checksum over the on-disk bytes
// and decodes it exactly once, straight into the words of the returned
// nbits-bit vector, accounting into m. pooled selects where those words
// come from: the package pool (bitvec.GetWords) for a query that returns
// them when it ends, fresh memory for a vector that is kept. A file that
// fails to decode, or decodes to any other length, is rejected as
// ErrCorrupt: without checksums in the descriptor (older writers), the
// codec's own checks and the length check are all that stand between a
// torn or stale file and a wrong answer.
func (s *Store) readFile(name string, nbits int, m *Metrics, pooled bool) (*bitvec.Vector, error) {
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	t0 := time.Now()
	raw, err := readInto(filepath.Join(s.dir, name), (*buf)[:0])
	*buf = raw
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	readNS := time.Since(t0).Nanoseconds()
	onDisk := int64(len(raw))
	if want, ok := s.meta.Checksums[name]; ok {
		if got := crc32.ChecksumIEEE(raw); got != want {
			return nil, fmt.Errorf("storage: %w: %s (crc %08x, want %08x)", ErrCorrupt, name, got, want)
		}
	}
	v, decompNS, err := s.decode(raw, nbits, pooled)
	if err != nil {
		return nil, fmt.Errorf("storage: %w: %s: %w", ErrCorrupt, name, err)
	}
	if m != nil {
		m.FilesRead++
		m.BytesRead += onDisk
		m.ReadNS += readNS
		m.DecompressNS += decompNS
		if decompNS > 0 {
			m.Trace.Add(telemetry.PhaseDecompress, time.Duration(decompNS))
		}
	}
	return v, nil
}

// readBufs holds the buffers files are read into on their way to the
// decoder, which copies what it needs out of them. A buffer grows to the
// largest file it has held.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// readInto reads the whole file at path into buf's spare capacity,
// growing it as needed, like os.ReadFile without the allocation.
func readInto(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && int64(cap(buf)) <= fi.Size() {
		buf = make([]byte, 0, fi.Size()+1) // +1 so the read that finds EOF needs no growth
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// words returns n words for a decoder to fill: pooled ones, whose contents
// are unspecified, or fresh ones.
func words(n int, pooled bool) []uint64 {
	if pooled {
		return bitvec.GetWords(n)
	}
	return make([]uint64, n)
}

// decode turns one file's on-disk bytes into its nbits-bit vector and
// reports the time of the codec step (zero for raw files). Each codec
// checks the length: raw files and inflated zlib streams must hold
// exactly ceil(nbits/8) bytes, and the roaring header must declare
// nbits. Every decoder writes into words(pooled), and overwrites every
// word of them.
func (s *Store) decode(raw []byte, nbits int, pooled bool) (*bitvec.Vector, int64, error) {
	if nbits < 0 {
		return nil, 0, fmt.Errorf("negative length %d", nbits)
	}
	t0 := time.Now()
	nw := (nbits + 63) / 64
	var w []uint64
	switch s.codec {
	case CodecZlib:
		w = words(nw, pooled)
		if err := inflateWords(raw, nbits, w); err != nil {
			return nil, 0, fmt.Errorf("inflate: %w", err)
		}
	case CodecRoaring:
		// The file opens with an 8-byte little-endian bit length, checked
		// before any words are taken for that many bits.
		if len(raw) < 8 || binary.LittleEndian.Uint64(raw) != uint64(nbits) {
			return nil, 0, fmt.Errorf("header does not declare %d bits", nbits)
		}
		w = words(nw, pooled)
		if err := roaring.DecodeWords(raw, w); err != nil {
			return nil, 0, err
		}
	default:
		if len(raw) != (nbits+7)/8 {
			return nil, 0, fmt.Errorf("payload size mismatch: have %d bytes, need exactly %d", len(raw), (nbits+7)/8)
		}
		w = words(nw, pooled)
		putBytes(w, raw)
	}
	var ns int64
	if s.codec != CodecRaw {
		ns = time.Since(t0).Nanoseconds()
	}
	v, err := bitvec.FromWords(nbits, w)
	return v, ns, err
}

// putBytes stores p into the words from w[0] on, 8 little-endian bytes
// per word, assigning every word it reaches: a last partial word gets p's
// remaining bytes and zeros above them, whatever w held before.
func putBytes(w []uint64, p []byte) {
	full := len(p) / 8
	// Four words a step: per word, the bounds checks and slice steps
	// cost more than the load and store.
	ws, q := w[:full], p[:8*full]
	for ; len(ws) >= 4 && len(q) >= 32; ws, q = ws[4:], q[32:] {
		ws[0] = binary.LittleEndian.Uint64(q[0:8])
		ws[1] = binary.LittleEndian.Uint64(q[8:16])
		ws[2] = binary.LittleEndian.Uint64(q[16:24])
		ws[3] = binary.LittleEndian.Uint64(q[24:32])
	}
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(q[8*i:])
	}
	if rest := p[8*full:]; len(rest) > 0 {
		var t uint64
		for i, b := range rest {
			t |= uint64(b) << (8 * i)
		}
		w[full] = t
	}
}

// query is the per-query fetch context: every file is read and decoded at
// most once per query regardless of how many bitmaps come out of it. A
// pooled query decodes into words from the package pool and hands every
// vector it made back to the pool in release, once the evaluation that
// read them has returned; the reads NewCached pins are not pooled.
type query struct {
	s      *Store
	m      *Metrics
	pooled bool
	files  map[string]*bitvec.Vector
	owned  []*bitvec.Vector // what release recycles: decoded files, extracted columns
}

// file returns the decoded contents of the named file, an nbits-bit vector.
func (q *query) file(name string, nbits int) *bitvec.Vector {
	if v, ok := q.files[name]; ok {
		return v
	}
	v, err := q.s.readFile(name, nbits, q.m, q.pooled)
	if err != nil {
		panic(storageErr{err})
	}
	if q.files == nil {
		q.files = make(map[string]*bitvec.Vector, 4)
	}
	q.files[name] = v
	q.own(v)
	return v
}

// own records a vector release hands back to the pool.
func (q *query) own(v *bitvec.Vector) {
	if q.pooled {
		q.owned = append(q.owned, v)
	}
}

// release returns every vector the query decoded to the package pool. It
// runs after the evaluation, whose result never aliases an operand.
func (q *query) release() {
	for _, v := range q.owned {
		bitvec.Recycle(v)
	}
	q.owned, q.files = nil, nil
}

// fetch implements core.EvalOptions.Fetch against the store's layout. A BS
// file is the bitmap itself; CS and IS files are row-major matrices whose
// columns are extracted.
func (q *query) fetch(comp, slot int) *bitvec.Vector {
	s := q.s
	rows := s.shell.Rows()
	switch s.meta.Scheme {
	case "BS":
		return q.file(bitmapFile(comp, slot), rows)
	case "CS":
		stride := s.shell.ComponentBitmaps(comp)
		return q.extract(q.file(componentFile(comp), rows*stride), stride, slot)
	default: // IS
		off := 0
		for i := 0; i < comp; i++ {
			off += s.shell.ComponentBitmaps(i)
		}
		stride := totalBitmaps(s.shell)
		return q.extract(q.file("index.is", rows*stride), stride, off+slot)
	}
}

// extract pulls one column out of a row-major bit matrix.
func (q *query) extract(matrix *bitvec.Vector, stride, col int) *bitvec.Vector {
	t0 := time.Now()
	rows := q.s.shell.Rows()
	src := matrix.Words()
	w := words((rows+63)/64, q.pooled)
	clear(w) // the loop below only sets bits
	k := col
	for r := 0; r < rows; r++ {
		w[r>>6] |= (src[k>>6] >> uint(k&63) & 1) << uint(r&63)
		k += stride
	}
	v, err := bitvec.FromWords(rows, w)
	if err != nil {
		panic("storage: internal: " + err.Error())
	}
	q.own(v)
	extractNS := time.Since(t0).Nanoseconds()
	if q.m != nil {
		q.m.ExtractNS += extractNS
		q.m.Trace.Add(telemetry.PhaseExtract, time.Duration(extractNS))
	}
	return v
}

// Eval evaluates (A op v) against the on-disk index, accounting physical
// costs into m (which may be nil). The returned vector is the caller's.
func (s *Store) Eval(op core.Op, v uint64, m *Metrics) (*bitvec.Vector, error) {
	res := bitvec.New(s.shell.Rows())
	q := &query{s: s, m: m, pooled: true}
	if _, err := s.eval(op, v, m, q, &core.EvalOptions{Fetch: q.fetch}, res, false); err != nil {
		return nil, err
	}
	return res, nil
}

// Count evaluates (A op v) against the on-disk index and returns the
// number of qualifying records, accounting physical costs into m (which
// may be nil) exactly as Eval does. With dst nil no result vector is
// built (core.Index.Count); with dst non-nil (Rows() bits, owned by the
// caller) the bitmap is also written there.
func (s *Store) Count(op core.Op, v uint64, dst *bitvec.Vector, m *Metrics) (int, error) {
	q := &query{s: s, m: m, pooled: true}
	return s.eval(op, v, m, q, &core.EvalOptions{Fetch: q.fetch}, dst, true)
}

// eval evaluates (A op v) with opt's bitmap wiring into dst, counting the
// result when count is set (core.Index.Count, else EvalInto), and
// accounting the query into m (which may be nil). A read that fails
// inside a fetch becomes the returned error. The operands q decoded go
// back to the pool when the evaluation ends.
func (s *Store) eval(op core.Op, v uint64, m *Metrics, q *query, opt *core.EvalOptions, dst *bitvec.Vector, count bool) (n int, err error) {
	defer q.release()
	if m != nil {
		m.Queries++
		opt.Stats = &m.Stats
		opt.Trace = m.Trace
	}
	err = catch(func() {
		if count {
			n = s.shell.Count(op, v, dst, opt)
		} else {
			s.shell.EvalInto(op, v, dst, opt)
		}
	})
	return n, err
}

// catch runs fn and returns the error of a read that failed inside it: a
// fetch cannot return an error, so query.file panics with a storageErr.
func catch(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(storageErr)
			if !ok {
				panic(r)
			}
			err = se.err
		}
	}()
	fn()
	return nil
}

// ErrNotFound reports a missing index directory.
var ErrNotFound = errors.New("storage: index not found")

// ErrCorrupt reports a stored file whose contents no longer match the
// checksum recorded at save time, fail to decode, or decode to a length
// other than the descriptor's. The catalog wraps it for a damaged table
// descriptor or row permutation.
var ErrCorrupt = errors.New("storage: corrupt file")

// Exists reports whether dir contains a saved index.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, metaFile))
	return err == nil
}
