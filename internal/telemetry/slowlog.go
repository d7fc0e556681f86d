package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// SlowEntry is one retained slow query. TraceID carries the trace's unique
// identifier so slow-log lines can be joined against flight-recorder
// records and exemplar buckets; Plan is the caller's one-line plan summary
// (evaluator kind or engine plan), empty when the caller has none.
type SlowEntry struct {
	Query   string        `json:"query"`
	TraceID string        `json:"trace_id,omitempty"`
	Plan    string        `json:"plan,omitempty"`
	Total   time.Duration `json:"ns"`
	Phases  []PhaseRecord `json:"phases,omitempty"`
}

// SlowLog retains (and optionally writes) queries whose total evaluation
// time meets a threshold. It keeps the most recent entries in a ring.
// Safe for concurrent use, including concurrent Observe calls sharing one
// io.Writer.
type SlowLog struct {
	threshold time.Duration
	w         io.Writer // may be nil: retain only; writes guarded by mu

	mu   sync.Mutex
	ring []SlowEntry // guarded by mu
	next int         // guarded by mu
	full bool        // guarded by mu
}

// NewSlowLog creates a slow-query log. Traces at or over threshold are
// kept (the most recent keep entries; keep <= 0 defaults to 32) and, when
// w is non-nil, written as one line each.
func NewSlowLog(threshold time.Duration, w io.Writer, keep int) *SlowLog {
	if keep <= 0 {
		keep = 32
	}
	return &SlowLog{threshold: threshold, w: w, ring: make([]SlowEntry, keep)}
}

// Threshold returns the configured threshold.
func (l *SlowLog) Threshold() time.Duration { return l.threshold }

// Observe finishes the trace and records it if it is slow, returning
// whether it was recorded. A nil trace is ignored. The entry's TraceID is
// taken from the trace; use ObserveWithPlan to attach a plan summary too.
func (l *SlowLog) Observe(query string, t *Trace) bool {
	return l.ObserveWithPlan(query, "", t)
}

// ObserveWithPlan is Observe with a plan-summary string retained (and
// written) alongside the query, so slow-log output joins against the
// flight recorder's plan-tagged records.
func (l *SlowLog) ObserveWithPlan(query, plan string, t *Trace) bool {
	if t == nil {
		return false
	}
	total := t.Finish()
	if total < l.threshold {
		return false
	}
	e := SlowEntry{Query: query, TraceID: t.ID(), Plan: plan, Total: total, Phases: t.Phases()}
	l.mu.Lock()
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	if l.next == 0 {
		l.full = true
	}
	// The line write stays under mu: interleaving Fprintf calls on a shared
	// writer from concurrent Observes is a data race on plain writers
	// (bytes.Buffer, bufio) and garbles output even on race-safe ones.
	if l.w != nil {
		var phases string
		for i, r := range e.Phases {
			if i > 0 {
				phases += " "
			}
			phases += fmt.Sprintf("%s=%v", r.Phase, r.Duration)
		}
		detail := ""
		if e.Plan != "" {
			detail = " plan=" + e.Plan
		}
		fmt.Fprintf(l.w, "slow query (%v >= %v): %s trace=%s%s [%s]\n",
			total, l.threshold, query, e.TraceID, detail, phases)
	}
	l.mu.Unlock()
	return true
}

// Entries returns the retained slow queries, oldest first.
func (l *SlowLog) Entries() []SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []SlowEntry
	if l.full {
		out = append(out, l.ring[l.next:]...)
	}
	out = append(out, l.ring[:l.next]...)
	return out
}
