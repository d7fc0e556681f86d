package main

import (
	"encoding/json"
	"net/http"
	"time"

	"bitmapindex/internal/catalog"
	"bitmapindex/internal/flight"
	"bitmapindex/internal/storage"
	"bitmapindex/internal/telemetry"
)

// tableServer is serve's catalog mode: conjunctive queries against a
// table built by `bixstore csv`, with the always-on workload accumulator
// and the design advisor exposed under /debug.
type tableServer struct {
	tbl *catalog.Table
}

// newTableServer opens the table and, when wlPath names a saved profile,
// replays it into the table's workload accumulator.
func newTableServer(dir, wlPath string) (*tableServer, error) {
	tbl, err := catalog.Open(dir)
	if err != nil {
		return nil, err
	}
	if wlPath != "" {
		if err := loadWorkload(tbl.Workload(), wlPath); err != nil {
			return nil, err
		}
	}
	return &tableServer{tbl: tbl}, nil
}

// mux routes /query (a conjunction), /debug/workload, /debug/advisor,
// /debug/queries and the shared metrics/health/pprof endpoints.
func (s *tableServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/debug/workload", serveWorkload(s.tbl.Workload()))
	mux.HandleFunc("/debug/advisor", s.handleAdvisor)
	mux.HandleFunc("/debug/queries", handleDebugQueries)
	addCommonRoutes(mux)
	return mux
}

// tableQueryResponse is the JSON body of a table-mode /query evaluation.
type tableQueryResponse struct {
	Query     string `json:"query"`
	TraceID   string `json:"trace_id"`
	Matches   int    `json:"matches"`
	Rows      int    `json:"rows"`
	Scans     int    `json:"scans"`
	FilesRead int    `json:"files_read"`
	BytesRead int64  `json:"bytes_read"`
	ElapsedNS int64  `json:"elapsed_ns"`
	RIDs      []int  `json:"rids,omitempty"`
}

// handleQuery evaluates q=<col> <op> <val> [AND ...]; rids=1 includes
// matching record ids (capped by limit, default 20). Only rids=1 maps the
// result back to original row ids; a bare count is taken in sorted row
// space. Each predicate is accounted against its attribute in the
// workload profile by the catalog itself.
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
	start := time.Now()
	matches, res, err := evalConjunction(s.tbl, preds, &m, rids)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	elapsed := time.Since(start)
	frec := flight.Record{
		TraceID: m.Trace.ID(), Query: q, Plan: "table-query",
		Total: elapsed, Rows: int64(matches), BytesRead: m.BytesRead,
		Scans: m.Stats.Scans, Ands: m.Stats.Ands, Ors: m.Stats.Ors,
		Xors: m.Stats.Xors, Nots: m.Stats.Nots,
	}
	flight.Default().Add(&frec, m.Trace)

	resp := tableQueryResponse{
		Query:     q,
		TraceID:   m.Trace.ID(),
		Matches:   matches,
		Rows:      s.tbl.Rows(),
		Scans:     m.Stats.Scans,
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

// handleAdvisor serves GET /debug/advisor for table mode: the advisor
// report comparing the stored per-attribute designs against the weighted
// recommendation under the live profile.
func (s *tableServer) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	rep, err := s.tbl.Advise()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}
