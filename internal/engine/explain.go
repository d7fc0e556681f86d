package engine

import (
	"math"
	"slices"
	"sync"
	"time"

	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
	"bitmapindex/internal/telemetry"
)

// PlanReport is the structured EXPLAIN ANALYZE result: the cost model's
// predictions (scans from the paper's digit-level analysis, time from the
// live ns-per-scan calibration) side by side with the measured actuals of
// one real execution, plus the relative error per dimension. The report is
// JSON-marshalable; /query?analyze=1 and `bixstore query -analyze` return
// it verbatim.
//
// ModelApplies reports whether the executed plan exercised the bitmap cost
// model at all: only the bitmap-merge plan (and direct index evaluations)
// read stored bitmaps, so scan/time errors are recorded and the time
// calibration fed only then.
// TimeError is -1 when the time model was not yet calibrated (the first
// analyzed query seeds the calibration; see predictNS).
type PlanReport struct {
	Query   string `json:"query"`
	Method  string `json:"method"`
	TraceID string `json:"trace_id,omitempty"`
	Rows    int    `json:"rows"`
	TotalNS int64  `json:"ns"`

	BytesRead    int64 `json:"bytes_read,omitempty"`
	EstBytesRead int64 `json:"est_bytes_read,omitempty"`

	ModelApplies   bool    `json:"model_applies"`
	PredictedScans int     `json:"predicted_scans"`
	MeasuredScans  int     `json:"measured_scans"`
	ScansError     float64 `json:"scans_error"`

	// MeasuredEvalNS is the bitmap-evaluation time alone (per-predicate
	// sums, excluding cross-predicate ANDs and popcounts), the quantity the
	// scan-proportional time model predicts.
	MeasuredEvalNS int64   `json:"measured_eval_ns,omitempty"`
	PredictedNS    float64 `json:"predicted_ns,omitempty"`
	TimeError      float64 `json:"time_error"`

	AllocBytes   int64 `json:"alloc_bytes,omitempty"`
	AllocObjects int64 `json:"alloc_objects,omitempty"`

	Preds  []PredReport            `json:"preds,omitempty"`
	Phases []telemetry.PhaseRecord `json:"phases,omitempty"`
}

// PredReport is one predicate's node in the plan tree: the index design
// that would serve it (encoding, base, stored-bitmap space), the model's
// predicted scans for exactly this predicate, and — when the executed plan
// evaluated the predicate through its bitmap index — the measured scans
// and time of that evaluation alone.
type PredReport struct {
	Pred         string `json:"pred"`
	Col          string `json:"col,omitempty"`
	Encoding     string `json:"encoding,omitempty"`
	Base         string `json:"base,omitempty"`
	SpaceBitmaps int    `json:"space_bitmaps,omitempty"`
	// Trivial marks predicates the dictionary resolves without touching
	// the index: "all" (every row matches) or "none".
	Trivial string `json:"trivial,omitempty"`

	PredictedScans int     `json:"predicted_scans"`
	MeasuredScans  int     `json:"measured_scans"`
	ScansError     float64 `json:"scans_error"`
	MeasuredNS     int64   `json:"measured_ns,omitempty"`
}

// calibration is the live ns-per-scan estimate behind the time model:
// the median of the last calibrationWindow analyzed executions' ns/scan,
// shared process-wide so every ExplainAnalyze refines it. A median, not a
// moving average: one descheduled query would inflate an average, and the
// predictions after it would overshoot by orders of magnitude. Predictions
// are made with the value as of before the analyzed query updates it, so
// reported time errors are out-of-sample.
var calibration struct {
	mu      sync.Mutex
	samples [calibrationWindow]float64 // ring of the most recent ns/scan
	fed     int                        // samples ever fed; 0 means uncalibrated
}

const calibrationWindow = 15

// predictNS returns the predicted evaluation time for scans bitmap scans,
// or 0 when uncalibrated.
func predictNS(scans int) float64 {
	calibration.mu.Lock()
	window := calibration.samples
	n := min(calibration.fed, calibrationWindow)
	calibration.mu.Unlock()
	if n == 0 {
		return 0
	}
	w := window[:n]
	slices.Sort(w)
	median := w[n/2]
	if n%2 == 0 {
		median = (w[n/2-1] + w[n/2]) / 2
	}
	return median * float64(scans)
}

// calibrate adds one measured (scans, elapsed) pair to the window.
func calibrate(scans int, ns int64) {
	if scans <= 0 || ns <= 0 {
		return
	}
	calibration.mu.Lock()
	calibration.samples[calibration.fed%calibrationWindow] = float64(ns) / float64(scans)
	calibration.fed++
	calibration.mu.Unlock()
}

// relErr is |predicted - measured| / max(measured, 1), the error measure
// of PlanReport's ScansError and TimeError.
func relErr(predicted, measured float64) float64 {
	denom := measured
	if denom < 1 {
		denom = 1
	}
	return math.Abs(predicted-measured) / denom
}

// ExplainAnalyze executes the conjunction with the given method (Auto
// resolves as usual) and returns a PlanReport comparing the paper's cost
// model against the measured execution. When the executed plan is the
// bitmap merge, predicted scans are exact (the digit-level model counts
// the very bitmaps each predicate's compiled program reads), and the
// measured time feeds the calibration. opt may be nil; a
// profiled trace is created when opt carries none, so the report's phase
// breakdown includes per-phase allocation deltas.
func (r *Relation) ExplainAnalyze(preds []Pred, m Method, opt *SelectOptions) (*PlanReport, error) {
	var o SelectOptions
	if opt != nil {
		o = *opt
	}
	query := predsSummary(preds)
	if o.Trace == nil {
		o.Trace = telemetry.NewTrace(query).Profile()
	}
	var actuals []predActual
	o.perPred = &actuals

	t0 := time.Now()
	_, c, err := r.SelectOpts(preds, m, &o)
	if err != nil {
		return nil, err
	}
	total := time.Since(t0)

	rep := &PlanReport{
		Query:   query,
		Method:  c.Method.String(),
		TraceID: o.Trace.ID(),
		Rows:    c.Rows,
		TotalNS: total.Nanoseconds(),

		BytesRead:     c.BytesRead,
		MeasuredScans: c.Stats.Scans,
		TimeError:     -1,

		AllocBytes:   c.AllocBytes,
		AllocObjects: c.AllocObjects,
		Phases:       o.Trace.Phases(),
	}
	if est, eerr := r.EstimateBytes(preds, c.Method); eerr == nil {
		rep.EstBytesRead = est
	}

	// Per-predicate prediction nodes, built from the dictionary-translated
	// predicate (the form the evaluator actually runs).
	rep.Preds = make([]PredReport, len(preds))
	for i, p := range preds {
		col, _ := r.Column(p.Col)
		node := PredReport{Pred: p.String(), Col: p.Col}
		if col.bitmap != nil {
			rop, rank, all, none := col.dict.Translate(p.Op, p.Val)
			node.Encoding = col.bitmap.Encoding().String()
			node.Base = col.bitmap.Base().String()
			node.SpaceBitmaps = cost.Space(col.bitmap.Base(), col.bitmap.Encoding())
			switch {
			case all:
				node.Trivial = "all"
			case none:
				node.Trivial = "none"
			default:
				node.PredictedScans = cost.ScansFor(
					col.bitmap.Base(), col.bitmap.Encoding(), col.Card(), rop, rank)
			}
			rep.PredictedScans += node.PredictedScans
		}
		rep.Preds[i] = node
	}

	// Measured per-predicate actuals exist only when the bitmap plan ran.
	if c.Method == BitmapMerge && len(actuals) == len(preds) {
		rep.ModelApplies = true
		var evalNS int64
		for i := range rep.Preds {
			rep.Preds[i].MeasuredScans = actuals[i].Scans
			rep.Preds[i].MeasuredNS = actuals[i].NS
			rep.Preds[i].ScansError = relErr(
				float64(rep.Preds[i].PredictedScans), float64(actuals[i].Scans))
			evalNS += actuals[i].NS
		}
		rep.MeasuredEvalNS = evalNS
		rep.ScansError = relErr(float64(rep.PredictedScans), float64(rep.MeasuredScans))
		if pred := predictNS(rep.PredictedScans); pred > 0 {
			rep.PredictedNS = pred
			rep.TimeError = relErr(pred, float64(evalNS))
		}
		calibrate(rep.MeasuredScans, evalNS)
	}
	return rep, nil
}

// AnalyzeIndexQuery builds a single-node PlanReport for a direct index
// evaluation — the path bixstore's /query endpoint takes, where one stored
// index answers one predicate without a relation or plan choice. st and
// elapsed are the evaluation's measured stats and wall time; plan names
// the evaluator (e.g. a storage Describe string). The time calibration
// is fed as for ExplainAnalyze.
func AnalyzeIndexQuery(query, plan string, base core.Base, enc core.Encoding, card uint64,
	op core.Op, v uint64, st core.Stats, elapsed time.Duration, tr *telemetry.Trace) *PlanReport {
	predicted := cost.ScansFor(base, enc, card, op, v)
	rep := &PlanReport{
		Query:   query,
		Method:  plan,
		TraceID: tr.ID(),
		Rows:    -1,
		TotalNS: elapsed.Nanoseconds(),

		ModelApplies:   true,
		PredictedScans: predicted,
		MeasuredScans:  st.Scans,
		ScansError:     relErr(float64(predicted), float64(st.Scans)),
		MeasuredEvalNS: elapsed.Nanoseconds(),
		TimeError:      -1,
		Phases:         tr.Phases(),

		Preds: []PredReport{{
			Pred:           query,
			Encoding:       enc.String(),
			Base:           base.String(),
			SpaceBitmaps:   cost.Space(base, enc),
			PredictedScans: predicted,
			MeasuredScans:  st.Scans,
			ScansError:     relErr(float64(predicted), float64(st.Scans)),
			MeasuredNS:     elapsed.Nanoseconds(),
		}},
	}
	if pred := predictNS(predicted); pred > 0 {
		rep.PredictedNS = pred
		rep.TimeError = relErr(pred, float64(elapsed.Nanoseconds()))
	}
	calibrate(st.Scans, elapsed.Nanoseconds())
	return rep
}
