package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bitmapindex"
	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/catalog"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/flight"
	"bitmapindex/internal/profile"
	"bitmapindex/internal/telemetry"
	"bitmapindex/internal/workload"
)

// cmdServe exposes one on-disk index — or a whole catalog table, when
// -dir holds a table descriptor — over HTTP: GET /query evaluates a
// predicate (a conjunction in table mode) and returns JSON including the
// per-phase trace (with allocation attribution), GET /metrics serves the
// telemetry registry (Prometheus text, ?format=json for JSON), GET
// /debug/runtime a live runtime snapshot including the queries currently
// executing, GET /debug/workload the accumulated per-attribute workload
// profile, GET /debug/advisor the design advisor's report under that
// profile, GET /healthz and /readyz liveness/readiness probes, and
// /debug/pprof/* the standard Go profiling endpoints — CPU samples carry
// bix_query_id/bix_phase labels tying them to individual queries.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "index or table directory (required)")
		addr    = fs.String("addr", ":8317", "listen address")
		cache   = fs.Int("cache", 0, "bitmaps held in memory, pinned at boot by the paper's Section 10 placement (0 = none; index mode only)")
		slow    = fs.Duration("slow", 0, "log queries at or over this duration to stderr (0 = off)")
		profOut = fs.String("profile", "", "write a whole-run profile on shutdown (cpu.out = CPU, heap.out/mem* = heap)")
		wlPath  = fs.String("workload", "", "workload profile JSON: loaded at boot when present, saved on graceful shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("serve needs -dir")
	}
	var (
		handler      http.Handler
		saveWorkload = func() error { return nil }
	)
	if catalog.Exists(*dir) {
		ts, err := newTableServer(*dir, *wlPath)
		if err != nil {
			return err
		}
		ts.slow = newSlowWriter(*slow, os.Stderr)
		handler = ts.mux()
		if *wlPath != "" {
			path := *wlPath
			saveWorkload = func() error { return ts.wl.Snapshot().Save(path) }
		}
	} else {
		st, err := bitmapindex.OpenIndex(*dir)
		if err != nil {
			return err
		}
		srv, err := newQueryServer(st, *cache, *slow, os.Stderr)
		if err != nil {
			return err
		}
		if *wlPath != "" {
			if err := loadWorkload(srv.wl, *wlPath); err != nil {
				return err
			}
			path := *wlPath
			saveWorkload = func() error { return srv.wl.Snapshot().Save(path) }
		}
		handler = srv.mux()
	}

	// Whole-run profile: CPU runs boot-to-shutdown, heap snapshots at
	// shutdown. Either way the file is complete only on graceful exit.
	writeProfile := func() error { return nil }
	if *profOut != "" {
		switch profile.KindForPath(*profOut) {
		case profile.CPUProfile:
			stop, err := profile.StartCPUProfile(*profOut)
			if err != nil {
				return err
			}
			writeProfile = stop
		case profile.HeapProfile:
			path := *profOut
			writeProfile = func() error { return profile.WriteHeapProfile(path) }
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %s on %s (cache=%d, slow>=%v)\n", *dir, ln.Addr(), *cache, *slow)
	onShutdown := func() error {
		werr := saveWorkload()
		if perr := writeProfile(); perr != nil {
			return perr
		}
		return werr
	}
	return serveLoop(newHTTPServer(handler), ln, onShutdown)
}

// newHTTPServer bounds what one client can hold: the time to send the
// request headers and the request, the time an idle keep-alive
// connection stays open, and the header size. WriteTimeout outlasts a
// default 30 s /debug/pprof/profile capture.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
}

// newWorkload builds an accumulator over the served attributes.
func newWorkload(designs []workload.AttrDesign) *workload.Accumulator {
	infos := make([]workload.AttrInfo, len(designs))
	for i, d := range designs {
		infos[i] = workload.AttrInfo{Name: d.Name, Card: d.Card}
	}
	return workload.New(infos)
}

// loadWorkload replays a previously saved profile into the accumulator so
// a restarted server does not advise from a cold uniform assumption. A
// missing file is not an error (first boot).
func loadWorkload(wl *workload.Accumulator, path string) error {
	p, err := workload.LoadProfile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return wl.AddProfile(p)
}

// serveLoop runs the server on ln until it fails or the process receives
// SIGINT/SIGTERM, then drains gracefully: in-flight queries get up to five
// seconds to complete before the listener's goroutines are abandoned.
// Split from cmdServe so the signal-drain path is testable against a real
// listener.
func serveLoop(server *http.Server, ln net.Listener, writeProfile func() error) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()

	select {
	case err := <-errCh:
		_ = writeProfile()
		return err
	case <-ctx.Done():
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := server.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = writeProfile()
		return err
	}
	return writeProfile()
}

// queryServer evaluates predicates against one opened index, optionally
// through a bitmap cache, and logs slow queries.
type queryServer struct {
	// count evaluates a predicate through the cache when there is one,
	// writing its bitmap into dst when dst is non-nil (Store.Count).
	count func(op bitmapindex.Op, v uint64, dst *bitmapindex.Bitmap, m *bitmapindex.StoreMetrics) (int, error)
	st    *bitmapindex.Store
	desc  string // one-line index-design summary (Store.Describe)
	rows  int
	slow  *slowWriter // nil when disabled
	// wl accounts every /query against the index's single attribute
	// ("value"); /debug/workload and /debug/advisor read it.
	wl      *workload.Accumulator
	designs []workload.AttrDesign

	// testDelay, when set, runs at the start of every /query — test hook
	// that holds a request in flight while a shutdown signal arrives.
	testDelay func()
}

func newQueryServer(st *bitmapindex.Store, cache int, slow time.Duration, slowW io.Writer) (*queryServer, error) {
	ix := st.Index()
	designs := []workload.AttrDesign{workload.NewAttrDesign("value", ix.Cardinality(),
		ix.Base(), ix.Encoding(), st.Options().Codec.String(), "")}
	s := &queryServer{
		count: st.Count, st: st, desc: st.Describe(), rows: ix.Rows(),
		wl: newWorkload(designs), designs: designs,
	}
	if cache > 0 {
		cs, err := bitmapindex.NewCachedStore(st, cache)
		if err != nil {
			return nil, err
		}
		s.count = cs.Count
	}
	s.slow = newSlowWriter(slow, slowW)
	return s, nil
}

// slowWriter writes the -slow line of each query whose total reaches
// threshold.
type slowWriter struct {
	threshold time.Duration
	mu        sync.Mutex
	w         io.Writer // guarded by mu
}

// newSlowWriter returns the -slow line writer on w, or nil when the
// threshold is off (<= 0).
func newSlowWriter(threshold time.Duration, w io.Writer) *slowWriter {
	if threshold <= 0 {
		return nil
	}
	return &slowWriter{threshold: threshold, w: w}
}

// write logs rec, with the phase breakdown of its trace tr, when rec's
// total reaches the threshold; a nil writer writes nothing. The line
// carries the record's trace ID and plan tag, so it joins its flight
// record and exemplar. The write holds mu: concurrent writes to a plain
// writer race and interleave.
func (l *slowWriter) write(rec *flight.Record, tr *telemetry.Trace) {
	if l == nil || rec.Total < l.threshold {
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "slow query (%v >= %v): %s trace=%s plan=%s [",
		rec.Total, l.threshold, rec.Query, rec.TraceID, rec.Plan)
	for i, p := range tr.Phases() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%v", p.Phase, p.Duration)
	}
	sb.WriteString("]\n")
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.w, sb.String())
}

// finishQuery is the one place a query that succeeded is accounted: both
// /query modes and `bixstore query` end here. It finishes m's trace once
// and completes rec, whose Query, Plan, Op, Value and Rows the caller
// fills, with the trace's ID and total and m's cost counters. Every sink
// is fed from that one record: the flight recorder, the telemetry
// registry and, when slow is set, the slow line. When wl is set, each of
// the query's predicates adds one event of its operator class to its
// attribute. The returned total is the response's elapsed_ns.
func finishQuery(rec *flight.Record, m *bitmapindex.StoreMetrics, slow *slowWriter, wl *workload.Accumulator, preds []engine.Pred) time.Duration {
	rec.TraceID, rec.Total = m.Trace.ID(), m.Trace.Finish()
	rec.FilesRead, rec.BytesRead = m.FilesRead, m.BytesRead
	rec.CacheHits, rec.CacheMisses = m.CacheHits, m.CacheMisses
	st := m.Stats
	rec.Scans, rec.Ands, rec.Ors, rec.Xors, rec.Nots = st.Scans, st.Ands, st.Ors, st.Xors, st.Nots
	flight.Default().Add(rec, m.Trace)
	publish(rec)
	slow.write(rec, m.Trace)
	if wl != nil {
		for _, p := range preds {
			wl.Observe(workload.Event{Attr: p.Col, Class: workload.ClassOf(p.Op)})
		}
	}
	return rec.Total
}

// publish adds one query's record to the telemetry registry: its scans
// and operation counts, one query, and its total as latency with the
// trace ID as the bucket's exemplar. It is the registry's one writer.
func publish(rec *flight.Record) {
	telemetry.QueriesTotal.Inc()
	telemetry.ScansTotal.Add(int64(rec.Scans))
	telemetry.AndsTotal.Add(int64(rec.Ands))
	telemetry.OrsTotal.Add(int64(rec.Ors))
	telemetry.XorsTotal.Add(int64(rec.Xors))
	telemetry.NotsTotal.Add(int64(rec.Nots))
	telemetry.QueryLatency.ObserveExemplar(rec.Total.Seconds(), rec.TraceID)
}

// mux routes /query, /metrics, the health probes, /debug/runtime,
// /debug/queries, /debug/workload, /debug/advisor and the pprof
// endpoints.
func (s *queryServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/debug/workload", serveWorkload(s.wl))
	mux.HandleFunc("/debug/advisor", serveAdvisor("", s.designs, s.wl))
	mux.HandleFunc("/debug/queries", handleDebugQueries)
	addCommonRoutes(mux)
	return mux
}

// addCommonRoutes mounts the endpoints both serve modes share: metrics,
// health probes, the runtime snapshot and the pprof family.
func addCommonRoutes(mux *http.ServeMux) {
	mux.Handle("/metrics", bitmapindex.MetricsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// The store (or table) is fully opened before the listener exists, so
	// readiness coincides with liveness; the probe still gets its own
	// path so orchestration configs don't couple to that coincidence.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/runtime", profile.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
}

// serveWorkload returns a handler for GET /debug/workload: the
// accumulated per-attribute profile as JSON.
func serveWorkload(wl *workload.Accumulator) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wl.Snapshot())
	}
}

// serveAdvisor returns a handler for GET /debug/advisor: the design
// advisor's report comparing the served design against the weighted
// recommendation under the live profile.
func serveAdvisor(table string, designs []workload.AttrDesign, wl *workload.Accumulator) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rep, err := workload.Advise(table, designs, wl.Snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	}
}

// queryResponse is the JSON body of a /query evaluation.
type queryResponse struct {
	Query     string      `json:"query"`
	TraceID   string      `json:"trace_id"`
	Matches   int         `json:"matches"`
	Rows      int         `json:"rows"`
	Scans     int         `json:"scans"`
	Ops       opCounts    `json:"ops"`
	FilesRead int         `json:"files_read"`
	BytesRead int64       `json:"bytes_read"`
	ElapsedNS int64       `json:"elapsed_ns"`
	Phases    []phaseJSON `json:"phases"`
	RIDs      []int       `json:"rids,omitempty"`
}

type opCounts struct {
	And int `json:"and"`
	Or  int `json:"or"`
	Xor int `json:"xor"`
	Not int `json:"not"`
}

// opsOf is the response form of a query's operation counts.
func opsOf(st bitmapindex.Stats) opCounts {
	return opCounts{And: st.Ands, Or: st.Ors, Xor: st.Xors, Not: st.Nots}
}

// phaseJSON is one trace phase: call count, summed duration with per-call
// extremes, and the heap allocation attributed to the phase (profiled
// traces; process-global counters, see telemetry.PhaseRecord).
type phaseJSON struct {
	Phase        string `json:"phase"`
	Calls        int    `json:"calls"`
	NS           int64  `json:"ns"`
	MinNS        int64  `json:"min_ns"`
	MaxNS        int64  `json:"max_ns"`
	AllocBytes   int64  `json:"alloc_bytes,omitempty"`
	AllocObjects int64  `json:"alloc_objects,omitempty"`
}

// handleQuery evaluates q=<op> <value>; rids=1 includes matching record
// ids (capped by limit, default 20); analyze=1 returns the structured
// EXPLAIN ANALYZE PlanReport (cost-model predictions vs this execution's
// actuals) instead of the plain query response. Analyzed queries bypass
// the bitmap cache: the cost model predicts the stored-bitmap scans of
// the uncached evaluator, and a pool hit would otherwise be
// misreported as model error. Only rids=1 materializes the result, in a
// pooled vector the handler returns once the response is written; every
// other query is counted without one.
func (s *queryServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.testDelay != nil {
		s.testDelay()
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	op, v, err := parsePredicate(q)
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
	analyze := r.URL.Query().Get("analyze") == "1"
	count := s.count
	if analyze {
		count = s.st.Count
	}
	var res *bitmapindex.Bitmap
	if rids {
		res = bitvec.Borrow(s.rows)
		defer bitvec.Recycle(res)
	}
	m := bitmapindex.StoreMetrics{Trace: bitmapindex.NewQueryTrace(q).Profile()}
	matches, err := count(op, v, res, &m)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rec := flight.Record{Query: q, Plan: "http-query", Op: op.String(), Value: v, Rows: int64(matches)}
	elapsed := finishQuery(&rec, &m, s.slow, s.wl, []engine.Pred{{Col: "value", Op: op}})

	if analyze {
		ix := s.st.Index()
		rep := engine.AnalyzeIndexQuery(q, s.desc, ix.Base(), ix.Encoding(),
			ix.Cardinality(), op, v, m.Stats, elapsed, m.Trace)
		rep.Rows = matches
		rep.BytesRead = m.BytesRead
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
		return
	}
	resp := queryResponse{
		Query:     q,
		TraceID:   m.Trace.ID(),
		Matches:   matches,
		Rows:      s.rows,
		Scans:     m.Stats.Scans,
		Ops:       opsOf(m.Stats),
		FilesRead: m.FilesRead,
		BytesRead: m.BytesRead,
		ElapsedNS: int64(elapsed),
	}
	for _, p := range m.Trace.Phases() {
		resp.Phases = append(resp.Phases, phaseJSON{
			Phase: string(p.Phase), Calls: p.Calls, NS: int64(p.Duration),
			MinNS: int64(p.Min), MaxNS: int64(p.Max),
			AllocBytes: p.AllocBytes, AllocObjects: p.AllocObjects,
		})
	}
	if rids {
		resp.RIDs = firstIDs(res, limit)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// ridLimit reads the limit parameter of a rids=1 request: a non-negative
// integer, 20 when absent. ok is false for any other value.
func ridLimit(q url.Values) (limit int, ok bool) {
	ls := q.Get("limit")
	if ls == "" {
		return 20, true
	}
	limit, err := strconv.Atoi(ls)
	return limit, err == nil && limit >= 0
}

// debugQueriesResponse is the JSON body of /debug/queries.
type debugQueriesResponse struct {
	// TotalCaptured counts every record accepted since process start,
	// including ones the ring has since overwritten.
	TotalCaptured uint64          `json:"total_captured"`
	Count         int             `json:"count"`
	Records       []flight.Record `json:"records"`
}

// handleDebugQueries serves the flight recorder: the last-N retained
// query records (oldest first), or the retained latency outliers with
// outliers=1. Filters: plan=<substring> and min_ns=<ns> narrow the set;
// sort=ns orders slowest-first (default is arrival order); limit=<n>
// keeps the most recent n (or the top n under sort=ns).
func handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	rec := flight.Default()
	q := r.URL.Query()
	var records []flight.Record
	if q.Get("outliers") == "1" {
		records = rec.Outliers()
	} else {
		records = rec.Snapshot()
	}

	if plan := q.Get("plan"); plan != "" {
		kept := records[:0]
		for _, rc := range records {
			if strings.Contains(rc.Plan, plan) {
				kept = append(kept, rc)
			}
		}
		records = kept
	}
	if ms := q.Get("min_ns"); ms != "" {
		minNS, err := strconv.ParseInt(ms, 10, 64)
		if err != nil {
			http.Error(w, "bad min_ns: "+err.Error(), http.StatusBadRequest)
			return
		}
		kept := records[:0]
		for _, rc := range records {
			if rc.Total.Nanoseconds() >= minNS {
				kept = append(kept, rc)
			}
		}
		records = kept
	}
	byNS := q.Get("sort") == "ns"
	if byNS {
		sort.Slice(records, func(i, j int) bool { return records[i].Total > records[j].Total })
	}
	if ls := q.Get("limit"); ls != "" {
		limit, err := strconv.Atoi(ls)
		if err != nil || limit < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		if limit < len(records) {
			if byNS {
				records = records[:limit] // top-N slowest
			} else {
				records = records[len(records)-limit:] // most recent N
			}
		}
	}

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(debugQueriesResponse{
		TotalCaptured: rec.Seq(), Count: len(records), Records: records,
	})
}
