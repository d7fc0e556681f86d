package main

import (
	"encoding/json"
	"errors"
	"net/http"

	"bitmapindex/internal/catalog"
	"bitmapindex/internal/flight"
	"bitmapindex/internal/storage"
	"bitmapindex/internal/telemetry"
	"bitmapindex/internal/workload"
)

// tableServer is serve's catalog mode: conjunctive queries against a
// table built by `bixstore csv`, with the always-on workload accumulator
// and the design advisor exposed under /debug.
type tableServer struct {
	tbl     *catalog.Table
	designs []workload.AttrDesign
	// wl accounts every predicate of every served query against its
	// attribute; /debug/workload and /debug/advisor read it.
	wl   *workload.Accumulator
	slow *slowWriter // nil when disabled
}

// newTableServer opens the table and, when wlPath names a saved profile,
// replays it into the server's workload accumulator.
func newTableServer(dir, wlPath string) (*tableServer, error) {
	tbl, err := catalog.Open(dir)
	if err != nil {
		return nil, err
	}
	designs := tbl.Designs()
	s := &tableServer{tbl: tbl, designs: designs, wl: newWorkload(designs)}
	if wlPath != "" {
		if err := loadWorkload(s.wl, wlPath); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// mux routes /query (a conjunction), /debug/workload, /debug/advisor,
// /debug/queries and the shared metrics/health/pprof endpoints.
func (s *tableServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/debug/workload", serveWorkload(s.wl))
	mux.HandleFunc("/debug/advisor", serveAdvisor(s.tbl.Name(), s.designs, s.wl))
	mux.HandleFunc("/debug/queries", handleDebugQueries)
	addCommonRoutes(mux)
	return mux
}

// tableQueryResponse is the JSON body of a table-mode /query evaluation.
type tableQueryResponse struct {
	Query     string   `json:"query"`
	TraceID   string   `json:"trace_id"`
	Matches   int      `json:"matches"`
	Rows      int      `json:"rows"`
	Scans     int      `json:"scans"`
	Ops       opCounts `json:"ops"`
	FilesRead int      `json:"files_read"`
	BytesRead int64    `json:"bytes_read"`
	ElapsedNS int64    `json:"elapsed_ns"`
	RIDs      []int    `json:"rids,omitempty"`
}

// handleQuery evaluates q=<col> <op> <val> [AND ...]; rids=1 includes
// matching record ids (capped by limit, default 20). Only rids=1 maps the
// result back to original row ids; a bare count is taken in sorted row
// space. Each predicate of a query that succeeds is accounted against its
// attribute in the workload profile.
func (s *tableServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	preds, err := parseConjunction(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rids := r.URL.Query().Get("rids") == "1"
	limit, ok := ridLimit(r.URL.Query())
	if rids && !ok {
		http.Error(w, "bad limit", http.StatusBadRequest)
		return
	}
	m := storage.Metrics{Trace: telemetry.NewTrace(q)}
	matches, res, err := evalConjunction(s.tbl, preds, &m, rids)
	if err != nil {
		code := http.StatusInternalServerError // a stored file could not be read
		if errors.Is(err, catalog.ErrNoAttribute) {
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
		return
	}
	rec := flight.Record{Query: q, Plan: "table-query", Rows: int64(matches)}
	elapsed := finishQuery(&rec, &m, s.slow, s.wl, preds)

	resp := tableQueryResponse{
		Query:     q,
		TraceID:   m.Trace.ID(),
		Matches:   matches,
		Rows:      s.tbl.Rows(),
		Scans:     m.Stats.Scans,
		Ops:       opsOf(m.Stats),
		FilesRead: m.FilesRead,
		BytesRead: m.BytesRead,
		ElapsedNS: int64(elapsed),
	}
	if rids {
		resp.RIDs = firstIDs(res, limit)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
