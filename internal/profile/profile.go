// Package profile is the stdlib-only resource-profiling layer: pprof
// labels that attribute CPU samples to individual queries, whole-process
// CPU/heap profile capture for the CLIs, and an HTTP handler exposing a
// point-in-time runtime snapshot (heap, objects, goroutines, GC cycles,
// bytes allocated) at /debug/runtime, read fresh on each request.
//
// The package deliberately builds only on runtime/pprof and
// runtime/metrics. Attribution granularity follows from that: pprof
// labels tag goroutines exactly (every CPU sample taken while a labeled
// query runs carries bix_query_id/bix_phase), while allocation deltas
// (telemetry.ReadAllocs, used by trace spans and engine plans) are
// process-global and therefore exact only under serial evaluation.
package profile

import (
	"bufio"
	"bytes"
	"context"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
)

// Pprof label keys attached by Do. Dashboards and `go tool pprof -tagshow`
// filters key on these names; changing them is a tooling-breaking change.
const (
	// LabelQueryID carries the telemetry trace ID ("name#seq") of the
	// evaluation the goroutine is working on.
	LabelQueryID = "bix_query_id"
	// LabelPhase carries the coarse execution phase: "eval" for the
	// query's own goroutine, "segment" for pool workers combining
	// segments on its behalf.
	LabelPhase = "bix_phase"
)

// Do runs fn with the pprof labels bix_query_id=queryID and
// bix_phase=phase attached to the calling goroutine (and inherited by any
// goroutines fn starts). CPU profile samples taken while fn runs carry
// the labels, which is what links a flame graph back to one query. The
// previous label set is restored when fn returns. An empty queryID runs
// fn unlabeled — callers can pass a trace's ID unconditionally since a
// nil trace's ID is "".
func Do(queryID, phase string, fn func()) {
	if queryID == "" {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(LabelQueryID, queryID, LabelPhase, phase),
		func(context.Context) { fn() })
}

// QueryLabel is one (query, phase) pair observed on a live goroutine.
type QueryLabel struct {
	QueryID string `json:"query_id"`
	Phase   string `json:"phase"`
}

// labelPairRE matches one "key":"value" pair inside the `# labels: {...}`
// line of a debug=1 goroutine profile.
var labelPairRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)":"((?:[^"\\]|\\.)*)"`)

// ActiveQueryLabels reports the distinct (bix_query_id, bix_phase) label
// pairs currently attached to any goroutine, sorted for determinism. It
// answers "which queries is this process executing right now?" from
// nothing but the runtime's own goroutine profile — the same data a
// /debug/pprof/goroutine?debug=1 fetch would show — so it needs no
// registration or bookkeeping in the evaluators.
func ActiveQueryLabels() []QueryLabel {
	p := pprof.Lookup("goroutine")
	if p == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return nil
	}
	seen := make(map[QueryLabel]bool)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "# labels:") {
			continue
		}
		var ql QueryLabel
		for _, m := range labelPairRE.FindAllStringSubmatch(line, -1) {
			switch m[1] {
			case LabelQueryID:
				ql.QueryID = m[2]
			case LabelPhase:
				ql.Phase = m[2]
			}
		}
		if ql.QueryID != "" {
			seen[ql] = true
		}
	}
	out := make([]QueryLabel, 0, len(seen))
	for ql := range seen {
		out = append(out, ql)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].QueryID != out[j].QueryID {
			return out[i].QueryID < out[j].QueryID
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}
