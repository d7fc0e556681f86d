// Package bitmapindex implements the bitmap index design framework of
// Chan & Ioannidis, "Bitmap Index Design and Evaluation" (SIGMOD 1998):
// multi-component bitmap indexes over any mixed-radix attribute value
// decomposition, equality and range bitmap encodings, the RangeEval-Opt
// selection query evaluator, and the paper's physical design results —
// space-optimal, time-optimal, knee, and space-constrained index
// selection — plus bitmap buffering and three on-disk storage layouts
// with optional compression.
//
// # Quick start
//
//	vals := []uint64{3, 2, 1, 2, 8, 2, 2, 0, 7, 5} // values in [0, C)
//	ix, err := bitmapindex.New(vals, 9)             // C = 9, knee design
//	if err != nil { ... }
//	rows := ix.Eval(bitmapindex.Le, 4, nil)          // bitmap of rows with A <= 4
//	rows.Ones(func(r int) bool { fmt.Println(r); return true })
//
// New defaults to a range-encoded index with the knee base — the design
// with the best space-time tradeoff (paper Section 7). Use the options to
// pick any other point in the design space, and the *Base functions to
// reason about designs without building them.
//
// Attribute values must be consecutive integers 0..C-1; map arbitrary
// values to ranks first (the paper's lookup-table device). The engine
// package used by the examples shows a complete value dictionary.
package bitmapindex

import (
	"fmt"
	"io"
	"net/http"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/buffer"
	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
	"bitmapindex/internal/design"
	"bitmapindex/internal/mutable"
	"bitmapindex/internal/storage"
	"bitmapindex/internal/telemetry"
	"bitmapindex/internal/workload"
)

// Core types. Aliases re-export the full method sets.
type (
	// Index is a multi-component bitmap index over one attribute.
	Index = core.Index
	// Base is the mixed-radix base sequence <b_n, ..., b_1> of an index,
	// stored little-endian (Base[0] is b_1).
	Base = core.Base
	// Op is a selection comparison operator.
	Op = core.Op
	// Encoding selects equality or range bitmap encoding.
	Encoding = core.Encoding
	// Stats counts bitmap scans and logical operations during evaluation.
	Stats = core.Stats
	// EvalOptions tunes one evaluation (instrumentation, buffering).
	EvalOptions = core.EvalOptions
	// Bitmap is a dense result bit vector; bit r set means row r matches.
	Bitmap = bitvec.Vector
	// BufferAssignment holds per-component buffered bitmap counts.
	BufferAssignment = buffer.Assignment
	// Store is an on-disk index opened for query evaluation.
	Store = storage.Store
	// StoreOptions selects the physical layout and compression of a
	// saved index.
	StoreOptions = storage.Options
	// StoreScheme is one of the three physical layouts (BS, CS, IS).
	StoreScheme = storage.Scheme
	// StoreCodec selects the per-file compression codec of a saved index
	// (raw, zlib, roaring).
	StoreCodec = storage.Codec
	// StoreMetrics accumulates bytes read and timing during on-disk
	// query evaluation.
	StoreMetrics = storage.Metrics
)

// Comparison operators for selection predicates (A op v).
const (
	Lt = core.Lt // A < v
	Le = core.Le // A <= v
	Gt = core.Gt // A > v
	Ge = core.Ge // A >= v
	Eq = core.Eq // A = v
	Ne = core.Ne // A != v
)

// Bitmap encodings: the paper's two (Section 2(2)) plus interval
// encoding, an extension that stores ceil(b_i/2) bitmaps per component
// and answers any digit comparison from at most two of them.
const (
	EqualityEncoded = core.EqualityEncoded
	RangeEncoded    = core.RangeEncoded
	IntervalEncoded = core.IntervalEncoded
)

// Physical storage layouts (paper Section 9).
const (
	BitmapLevel    = storage.BitmapLevel    // one file per bitmap (BS)
	ComponentLevel = storage.ComponentLevel // one row-major file per component (CS)
	IndexLevel     = storage.IndexLevel     // one row-major file for the index (IS)
)

// Storage codecs: the paper's zlib byte compression plus one bitmap-aware
// encoding, roaring hybrid containers (array/bitmap/run chunks).
const (
	CodecRaw     = storage.CodecRaw
	CodecZlib    = storage.CodecZlib
	CodecRoaring = storage.CodecRoaring
)

// Option configures New.
type Option func(*config) error

type config struct {
	base  Base
	baseF func(card uint64) (Base, error)
	enc   Encoding
	nulls []bool
}

// WithBase selects an explicit base sequence (paper notation big-endian:
// use ParseBase("<10,10,10>"), or construct a little-endian Base directly).
func WithBase(b Base) Option {
	return func(c *config) error {
		c.base = b.Clone()
		c.baseF = nil
		return nil
	}
}

// WithEncoding selects the bitmap encoding; the default is RangeEncoded,
// which Section 5 shows has the better space-time tradeoff for the mixed
// selection query workload.
func WithEncoding(e Encoding) Option {
	return func(c *config) error {
		c.enc = e
		return nil
	}
}

// WithComponents selects the n-component space-optimal base (the most
// time-efficient one when several tie).
func WithComponents(n int) Option {
	return func(c *config) error {
		c.base = nil
		c.baseF = func(card uint64) (Base, error) { return design.SpaceOptimalBest(card, n) }
		return nil
	}
}

// WithKneeBase selects the knee of the space-time tradeoff (the default).
func WithKneeBase() Option {
	return func(c *config) error {
		c.base = nil
		c.baseF = design.Knee
		return nil
	}
}

// WithTimeOptimalBase selects the time-optimal design: the
// single-component base-C index (paper point (D)).
func WithTimeOptimalBase() Option {
	return func(c *config) error {
		c.base = nil
		c.baseF = func(card uint64) (Base, error) { return design.TimeOptimal(card, 1) }
		return nil
	}
}

// WithSpaceOptimalBase selects the space-optimal design: the base-2 index
// (paper point (A)).
func WithSpaceOptimalBase() Option {
	return func(c *config) error {
		c.base = nil
		c.baseF = func(card uint64) (Base, error) {
			return design.SpaceOptimal(card, design.MaxComponents(card))
		}
		return nil
	}
}

// WithSpaceBudget selects the most time-efficient design that stores at
// most m bitmaps, via the paper's near-optimal heuristic (paper point (B)).
func WithSpaceBudget(m int) Option {
	return func(c *config) error {
		c.base = nil
		c.baseF = func(card uint64) (Base, error) { return design.TimeOptHeuristic(card, m) }
		return nil
	}
}

// WithNulls marks null rows; they match no predicate. The slice must have
// one entry per value.
func WithNulls(nulls []bool) Option {
	return func(c *config) error {
		c.nulls = nulls
		return nil
	}
}

// New builds a bitmap index over values with attribute cardinality card.
// Every non-null value must be in [0, card). The default design is the
// range-encoded knee index; see the Options for the rest of the design
// space.
func New(values []uint64, card uint64, opts ...Option) (*Index, error) {
	cfg := config{enc: RangeEncoded, baseF: design.Knee}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	base := cfg.base
	if base == nil {
		var err error
		base, err = cfg.baseF(card)
		if err != nil {
			return nil, err
		}
	}
	var bo *core.BuildOptions
	if cfg.nulls != nil {
		bo = &core.BuildOptions{Nulls: cfg.nulls}
	}
	return core.Build(values, card, base, cfg.enc, bo)
}

// Builder accumulates a column row by row (values and nulls) and builds
// the index in one shot — the natural loading pattern for the paper's
// read-mostly DSS environment.
type Builder = core.Builder

// NewStreamingBuilder prepares a row-at-a-time index build with an
// explicit design.
func NewStreamingBuilder(card uint64, base Base, enc Encoding) (*Builder, error) {
	return core.NewBuilder(card, base, enc)
}

// BatchQuery is one predicate for Index.EvalBatch, the concurrent
// many-query entry point.
type BatchQuery = core.Query

// SegConfig tunes segmented (intra-query parallel) evaluation; the zero
// value selects the default segment width and GOMAXPROCS workers. Pass it
// to Index.SegmentedEval.
type SegConfig = core.SegConfig

// DefaultSegBits is log2 of the default segment width in bits used by
// segmented evaluation.
const DefaultSegBits = core.DefaultSegBits

// MutableIndex layers batch maintenance (tombstone deletes, an append
// segment, and Compact) over the immutable index — the read-mostly
// warehouse lifecycle.
type MutableIndex = mutable.Index

// NewMutable creates an empty mutable index with the knee design.
func NewMutable(card uint64, enc Encoding) (*MutableIndex, error) {
	return mutable.New(card, design.Knee, enc)
}

// NewMutableFrom wraps an existing index for maintenance; compactions
// keep its base sequence.
func NewMutableFrom(ix *Index) *MutableIndex { return mutable.FromIndex(ix) }

// Parse helpers.
var (
	// ParseOp parses "<", "<=", ">", ">=", "=", "==", "!=", "<>".
	ParseOp = core.ParseOp
	// ParseBase parses the paper's big-endian notation, e.g. "<10,10>".
	ParseBase = core.ParseBase
	// ParseEncoding parses "equality" or "range".
	ParseEncoding = core.ParseEncoding
	// ParseStoreScheme parses "BS", "CS" or "IS".
	ParseStoreScheme = storage.ParseScheme
	// ParseStoreCodec parses "raw", "zlib" or "roaring".
	ParseStoreCodec = storage.ParseCodec
)

// --- Design-space analysis (paper Sections 4-8) ---

// MaxComponents returns ceil(log2 C), the number of components of the
// smallest possible index (the base-2 index).
func MaxComponents(card uint64) int { return design.MaxComponents(card) }

// SpaceOptimalBase returns the n-component base with the fewest stored
// bitmaps (Theorem 6.1(1)); among ties it returns the most time-efficient.
func SpaceOptimalBase(card uint64, n int) (Base, error) {
	return design.SpaceOptimalBest(card, n)
}

// TimeOptimalBase returns the n-component base with the fewest expected
// bitmap scans per query (Theorem 6.1(3)).
func TimeOptimalBase(card uint64, n int) (Base, error) { return design.TimeOptimal(card, n) }

// KneeBase returns the design at the knee of the space-time tradeoff: the
// most time-efficient 2-component space-optimal base (Theorem 7.1).
func KneeBase(card uint64) (Base, error) { return design.Knee(card) }

// BestBaseUnderSpace returns the most time-efficient base that stores at
// most m bitmaps, using Algorithm TimeOptHeur (near-optimal, fast).
func BestBaseUnderSpace(card uint64, m int) (Base, error) {
	return design.TimeOptHeuristic(card, m)
}

// BestBaseUnderSpaceExact returns the exactly time-optimal base under the
// space constraint, using Algorithm TimeOptAlg (exhaustive within proven
// bounds; can be slow for large C and mid-range m).
func BestBaseUnderSpaceExact(card uint64, m int) (Base, error) {
	return design.TimeOptUnderSpace(card, m)
}

// BestDesignUnderSpace searches base AND encoding together: the most
// time-efficient design with at most m stored bitmaps over the combined
// frontier of all three encodings. Interval encoding's time is measured,
// so keep card moderate (a few thousand) for interactive use.
func BestDesignUnderSpace(card uint64, m int) (Base, Encoding, error) {
	return design.BestDesignUnderSpace(card, m)
}

// NumBitmaps returns the paper's space metric for a design: the number of
// stored bitmaps.
func NumBitmaps(base Base, enc Encoding) int { return cost.Space(base, enc) }

// ExpectedScans returns the paper's time metric for a range-encoded
// design: the expected number of bitmap scans per query, for queries
// uniform over all six operators and all constants in [0, C).
func ExpectedScans(base Base, card uint64) float64 { return cost.TimeRange(base, card) }

// ExpectedScansExact computes the time metric by enumerating all 6C
// queries, for either encoding.
func ExpectedScansExact(base Base, enc Encoding, card uint64) float64 {
	return cost.ExactTime(base, enc, card)
}

// Allocation is a per-attribute division of a shared disk budget (see
// AllocateBudget).
type Allocation = design.Allocation

// AllocateBudget divides a disk budget of m stored bitmaps across one
// range-encoded index per attribute (cards holds the attribute
// cardinalities) minimizing the summed expected scans per query. Exact via
// dynamic programming over the per-attribute optimal frontiers.
func AllocateBudget(cards []uint64, m int) (Allocation, error) {
	return design.AllocateBudget(cards, m)
}

// GreedyAllocateBudget is the fast near-optimal alternative to
// AllocateBudget (steepest time-saved-per-bitmap first).
func GreedyAllocateBudget(cards []uint64, m int) (Allocation, error) {
	return design.GreedyAllocate(cards, m)
}

// AttrDemand is one attribute's observed demand for the weighted
// allocator: cardinality, query weight (relative frequency) and the
// fraction of its one-sided evaluations that are range predicates
// (negative selects the paper's default 2/3 mix).
type AttrDemand = design.AttrDemand

// AllocateBudgetWeighted is AllocateBudget under a measured workload:
// attribute frontiers are priced at their observed operator mixes and the
// shared-budget DP minimizes the frequency-weighted expected scans per
// query. With uniform demands it reproduces AllocateBudget exactly. Feed
// it WorkloadProfile.Demands from a live accumulator.
func AllocateBudgetWeighted(demands []AttrDemand, m int) (Allocation, error) {
	return design.AllocateBudgetWeighted(demands, m)
}

// --- Workload accounting and the design advisor (internal/workload) ---

// Workload accounting aliases: the always-on per-attribute access
// accountant and its serializable profile. Over a fixed attribute set, an
// accumulator counts the predicates a live query stream evaluates on each
// attribute in each operator class (equality, range, interval); its
// snapshots feed AllocateBudgetWeighted and the design advisor.
type (
	// WorkloadAccumulator is the bounded atomic per-attribute accountant.
	WorkloadAccumulator = workload.Accumulator
	// WorkloadAttrInfo names one attribute of an accumulator's fixed set.
	WorkloadAttrInfo = workload.AttrInfo
	// WorkloadEvent is one observed predicate: its attribute and operator
	// class.
	WorkloadEvent = workload.Event
	// WorkloadProfile is a serializable point-in-time workload snapshot.
	WorkloadProfile = workload.Profile
	// AttrDesign describes one attribute's current physical design.
	AttrDesign = workload.AttrDesign
	// AdvisorReport prices a current design against the weighted optimum
	// under an observed profile.
	AdvisorReport = workload.Report
)

// WorkloadOpClass classifies a predicate for workload accounting:
// equality, one-sided range, or two-sided interval.
type WorkloadOpClass = workload.OpClass

// Operator classes for WorkloadEvent.Class.
const (
	// WorkloadEq marks an equality or inequality predicate.
	WorkloadEq = workload.EqClass
	// WorkloadRange marks a one-sided range predicate.
	WorkloadRange = workload.RangeClass
	// WorkloadInterval marks a two-sided interval predicate.
	WorkloadInterval = workload.IntervalClass
)

// NewWorkloadAccumulator builds an accumulator over a fixed attribute
// set.
func NewWorkloadAccumulator(attrs []WorkloadAttrInfo) *WorkloadAccumulator {
	return workload.New(attrs)
}

// NewAttrDesign fills an AttrDesign — one attribute's current physical
// design — from typed fields, for feeding Advise.
func NewAttrDesign(name string, card uint64, base Base, enc Encoding, codec, reorder string) AttrDesign {
	return workload.NewAttrDesign(name, card, base, enc, codec, reorder)
}

// Advise compares a current physical design against the weighted
// recommendation under an observed workload profile, holding the disk
// budget fixed at the space the current design uses. The report carries
// the workload's drift from the uniform assumption and the expected-scan
// gain of adopting the recommendation.
func Advise(table string, designs []AttrDesign, p WorkloadProfile) (*AdvisorReport, error) {
	return workload.Advise(table, designs, p)
}

// --- Bitmap buffering (paper Section 10) ---

// OptimalBuffer returns the optimal assignment of m memory-resident
// bitmaps across the components of a range-encoded design (Theorem 10.1).
// Pass assignment.For() as EvalOptions.Buffered to reflect it in scan
// counts.
func OptimalBuffer(base Base, card uint64, m int) BufferAssignment {
	return buffer.Optimal(base, card, m)
}

// ExpectedScansBuffered returns the expected scans per query under a
// buffer assignment (paper eq. (5)).
func ExpectedScansBuffered(base Base, card uint64, a BufferAssignment) float64 {
	return buffer.Time(base, card, a)
}

// BufferedTimeOptimalBase returns the time-optimal design when m bitmaps
// can be buffered, with its optimal assignment (Theorem 10.2).
func BufferedTimeOptimalBase(card uint64, m int) (Base, BufferAssignment, error) {
	return buffer.TimeOptimalIndex(card, m)
}

// --- Storage (paper Section 9) ---

// SaveIndex writes the index to dir in the given physical layout
// (BitmapLevel / ComponentLevel / IndexLevel, optionally compressed) and
// returns the opened store.
func SaveIndex(ix *Index, dir string, opts StoreOptions) (*Store, error) {
	return storage.Save(ix, dir, opts)
}

// OpenIndex opens an index saved by SaveIndex for on-disk query
// evaluation.
func OpenIndex(dir string) (*Store, error) { return storage.Open(dir) }

// CachedStore is a Store behind a static pool of decompressed bitmaps;
// pool hits cost no I/O and are excluded from scan counts (a running
// version of the paper's Section 10 buffering model).
type CachedStore = storage.CachedStore

// NewCachedStore wraps an open store with a pool of up to capacity
// bitmaps, chosen and read once: Theorem 10.1's optimal assignment on a
// range-encoded index, the lowest (component, slot) pairs otherwise. A
// damaged pinned file fails it with the same corruption error a query
// reading that file would return.
func NewCachedStore(s *Store, capacity int) (*CachedStore, error) {
	return storage.NewCached(s, capacity)
}

// --- Observability (internal/telemetry) ---

// Telemetry aliases: the process-wide metrics registry and per-query
// traces. Evaluation publishes nothing to the default registry: it counts
// served queries, fed once per query by bixstore's query path, so a
// library caller that wants the paper's cost measures reads them from the
// Stats it passes in. Traces are opt-in per query via EvalOptions.Trace /
// StoreMetrics.Trace.
type (
	// TelemetryRegistry is a named collection of atomic counters and
	// fixed-bucket histograms with Prometheus and JSON exporters.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time JSON-serializable registry view.
	TelemetrySnapshot = telemetry.Snapshot
	// QueryTrace records per-phase wall-clock durations of one evaluation.
	QueryTrace = telemetry.Trace
	// QueryPhase names one evaluation phase (fetch, bool_ops, ...).
	QueryPhase = telemetry.Phase
)

// Telemetry returns the process-wide metrics registry. The metric names,
// labels and histogram bucket layouts are documented in DESIGN.md.
func Telemetry() *TelemetryRegistry { return telemetry.Default() }

// NewQueryTrace starts a per-query trace; pass it via EvalOptions.Trace
// (in-memory evaluation) or StoreMetrics.Trace (on-disk evaluation).
func NewQueryTrace(name string) *QueryTrace { return telemetry.NewTrace(name) }

// MetricsHandler serves the default registry over HTTP: Prometheus text
// exposition by default, a JSON snapshot with ?format=json. Mount it at
// /metrics.
func MetricsHandler() http.Handler { return telemetry.Handler(telemetry.Default()) }

// WriteMetrics dumps the default registry in Prometheus text format.
func WriteMetrics(w io.Writer) error { return telemetry.Default().WritePrometheus(w) }

// BufferHitStats counts buffer-assignment hits and misses during
// evaluation; pass assignment.CountingFor(&stats) as EvalOptions.Buffered.
type BufferHitStats = buffer.HitStats

// Describe summarizes a design in one line, e.g. for advisor output.
func Describe(base Base, enc Encoding, card uint64) string {
	var t float64
	switch enc {
	case RangeEncoded:
		t = cost.TimeRange(base, card)
	case EqualityEncoded:
		t = cost.ExactTimeEquality(base, card)
	default:
		t = cost.ExactTime(base, enc, card)
	}
	return fmt.Sprintf("base %v, %s-encoded: %d bitmaps, %.3f expected scans/query",
		base, enc, cost.Space(base, enc), t)
}
