package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"bitmapindex"
	"bitmapindex/internal/flight"
	"bitmapindex/internal/telemetry"
)

// flightRecord returns the retained flight record of one trace.
func flightRecord(t *testing.T, traceID string) flight.Record {
	t.Helper()
	for _, rc := range flight.Default().Snapshot() {
		if rc.TraceID == traceID {
			return rc
		}
	}
	t.Fatalf("no flight record for trace %q", traceID)
	return flight.Record{}
}

// registryCounts reads the default registry's counters.
func registryCounts() map[string]int64 { return telemetry.Default().Snapshot().Counters }

// checkRegistryDelta compares the growth of the cost counters since before
// with the counts of one query.
func checkRegistryDelta(t *testing.T, what string, before map[string]int64, queries int64, rc flight.Record) {
	t.Helper()
	want := map[string]int64{
		"bix_queries_total": queries, "bix_scans_total": int64(rc.Scans),
		`bix_ops_total{kind="and"}`: int64(rc.Ands), `bix_ops_total{kind="or"}`: int64(rc.Ors),
		`bix_ops_total{kind="xor"}`: int64(rc.Xors), `bix_ops_total{kind="not"}`: int64(rc.Nots),
	}
	after := registryCounts()
	for id, w := range want {
		if got := after[id] - before[id]; got != w {
			t.Errorf("%s: %s grew by %d, want %d", what, id, got, w)
		}
	}
}

// TestServeOneRecordPerQuery: a served /query lands exactly one flight
// record in either mode, and the record carries the response's numbers.
// The registry grows by the same record: one query, the response's scans
// and operation counts. A direct Store.Eval publishes nothing.
func TestServeOneRecordPerQuery(t *testing.T) {
	ixDir := buildTestIndex(t)
	index := newTestServer(t, ixDir).mux()
	seq := flight.Default().Seq()
	before := registryCounts()
	code, body := serveGet(t, index, "/query?q="+url.QueryEscape("<= 17"))
	if code != 200 {
		t.Fatalf("index /query = %d: %s", code, body)
	}
	if got := flight.Default().Seq() - seq; got != 1 {
		t.Errorf("index query landed %d flight records, want 1", got)
	}
	var ir queryResponse
	if err := json.Unmarshal([]byte(body), &ir); err != nil {
		t.Fatal(err)
	}
	rc := flightRecord(t, ir.TraceID)
	if rc.Plan != "http-query" || rc.Scans != ir.Scans || rc.BytesRead != ir.BytesRead ||
		rc.FilesRead != ir.FilesRead || rc.Rows != int64(ir.Matches) || int64(rc.Total) != ir.ElapsedNS {
		t.Errorf("index record %+v does not match response %+v", rc, ir)
	}
	if ops := (opCounts{And: rc.Ands, Or: rc.Ors, Xor: rc.Xors, Not: rc.Nots}); ops != ir.Ops {
		t.Errorf("index record ops %+v, response ops %+v", ops, ir.Ops)
	}
	checkRegistryDelta(t, "index query", before, 1, rc)

	ts, err := newTableServer(buildTestTable(t), "")
	if err != nil {
		t.Fatal(err)
	}
	table := ts.mux()
	seq = flight.Default().Seq()
	before = registryCounts()
	code, body = serveGet(t, table, "/query?q="+url.QueryEscape("quantity <= 30 AND price > 100 AND quantity != 7"))
	if code != 200 {
		t.Fatalf("table /query = %d: %s", code, body)
	}
	if got := flight.Default().Seq() - seq; got != 1 {
		t.Errorf("3-predicate table query landed %d flight records, want 1", got)
	}
	var tr tableQueryResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	rc = flightRecord(t, tr.TraceID)
	if rc.Plan != "table-query" || rc.Scans != tr.Scans || rc.BytesRead != tr.BytesRead ||
		rc.FilesRead != tr.FilesRead || rc.Rows != int64(tr.Matches) || int64(rc.Total) != tr.ElapsedNS {
		t.Errorf("table record %+v does not match response %+v", rc, tr)
	}
	if rc.Ands == 0 {
		t.Errorf("3-predicate table record counts no AND: %+v", rc)
	}
	if ops := (opCounts{And: rc.Ands, Or: rc.Ors, Xor: rc.Xors, Not: rc.Nots}); ops != tr.Ops {
		t.Errorf("table record ops %+v, response ops %+v", ops, tr.Ops)
	}
	checkRegistryDelta(t, "3-predicate table query", before, 1, rc)

	st, err := bitmapindex.OpenIndex(ixDir)
	if err != nil {
		t.Fatal(err)
	}
	before = registryCounts()
	if _, err := st.Eval(bitmapindex.Le, 17, &bitmapindex.StoreMetrics{}); err != nil {
		t.Fatal(err)
	}
	checkRegistryDelta(t, "direct Store.Eval", before, 0, flight.Record{})
}

// TestServeRecordCacheCountsPerQuery: with queries running concurrently
// through a small bitmap cache, each record counts its own query's pool
// reads — one hit or miss per distinct stored bitmap it references — and
// none of the other query's.
func TestServeRecordCacheCountsPerQuery(t *testing.T) {
	st, err := bitmapindex.OpenIndex(buildTestIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	// Through an empty pool, every distinct stored bitmap a query
	// references is a miss.
	empty, err := bitmapindex.NewCachedStore(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"<= 17", "> 40"}
	refs := map[string]int64{}
	for _, q := range queries {
		op, v, err := parsePredicate(q)
		if err != nil {
			t.Fatal(err)
		}
		var m bitmapindex.StoreMetrics
		if _, err := empty.Eval(op, v, &m); err != nil {
			t.Fatal(err)
		}
		refs[q] = m.CacheMisses
	}
	srv, err := newQueryServer(st, 2, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	mux := srv.mux()

	const rounds = 20
	traces := make([][]string, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				code, body := serveGet(t, mux, "/query?q="+url.QueryEscape(q))
				var resp queryResponse
				if code != 200 || json.Unmarshal([]byte(body), &resp) != nil {
					t.Errorf("/query %q = %d: %s", q, code, body)
					return
				}
				traces[i] = append(traces[i], resp.TraceID)
			}
		}(i, q)
	}
	wg.Wait()

	var misses int64
	for i, q := range queries {
		for _, id := range traces[i] {
			rc := flightRecord(t, id)
			if got := rc.CacheHits + rc.CacheMisses; got != refs[q] {
				t.Errorf("%q record %s: %d hits + %d misses, want %d references",
					q, id, rc.CacheHits, rc.CacheMisses, refs[q])
			}
			misses += rc.CacheMisses
		}
	}
	if misses == 0 {
		t.Error("no record counted a cache miss")
	}
}

// slowLines splits slow-log output into its lines.
func slowLines(out string) []string {
	return strings.Split(strings.TrimSuffix(out, "\n"), "\n")
}

// checkServedSlowLine serves q on mux, whose -slow threshold is 1ns, and
// checks that out holds one line naming the query's flight record's total,
// trace ID and plan tag, with the record's phase breakdown. It returns the
// record.
func checkServedSlowLine(t *testing.T, mux *http.ServeMux, q string, out *bytes.Buffer) flight.Record {
	t.Helper()
	code, body := serveGet(t, mux, "/query?q="+url.QueryEscape(q))
	if code != 200 {
		t.Fatalf("/query = %d: %s", code, body)
	}
	var resp struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	rc := flightRecord(t, resp.TraceID)
	lines := slowLines(out.String())
	if len(lines) != 1 {
		t.Fatalf("slow log wrote %d lines, want 1: %q", len(lines), out.String())
	}
	var phases []string
	for _, p := range rc.Phases {
		phases = append(phases, fmt.Sprintf("%s=%v", p.Phase, p.Duration))
	}
	want := fmt.Sprintf("slow query (%v >= 1ns): %s trace=%s plan=%s [%s]",
		rc.Total, q, rc.TraceID, rc.Plan, strings.Join(phases, " "))
	if lines[0] != want || len(phases) < 2 {
		t.Errorf("slow line\n got %q\nwant %q (>= 2 phases)", lines[0], want)
	}
	return rc
}

// TestServeSlowLine: in index mode a query at or over -slow writes one
// line built from its flight record; a query under the threshold writes
// nothing.
func TestServeSlowLine(t *testing.T) {
	st, err := bitmapindex.OpenIndex(buildTestIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	qs, err := newQueryServer(st, 0, time.Nanosecond, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rc := checkServedSlowLine(t, qs.mux(), "<= 17", &out); rc.Plan != "http-query" {
		t.Errorf("record plan = %q, want http-query", rc.Plan)
	}

	var fastOut bytes.Buffer
	fast, err := newQueryServer(st, 0, time.Hour, &fastOut)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := serveGet(t, fast.mux(), "/query?q="+url.QueryEscape("<= 17")); code != 200 {
		t.Fatalf("fast /query = %d: %s", code, body)
	}
	if fastOut.Len() != 0 {
		t.Errorf("query under the threshold wrote %q", fastOut.String())
	}
}

// TestServeTableSlowLog: table mode writes the slow line of its one
// flight record, a whole conjunction, tagged table-query.
func TestServeTableSlowLog(t *testing.T) {
	ts, err := newTableServer(buildTestTable(t), "")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ts.slow = newSlowWriter(time.Nanosecond, &out)
	if rc := checkServedSlowLine(t, ts.mux(), "quantity <= 10 AND price > 500", &out); rc.Plan != "table-query" {
		t.Errorf("record plan = %q, want table-query", rc.Plan)
	}
}

// slowTrace returns a trace with one fetch phase of d.
func slowTrace(name string, d time.Duration) *telemetry.Trace {
	tr := telemetry.NewTrace(name)
	tr.Add(telemetry.PhaseFetch, d)
	return tr
}

// TestSlowWriterLine pins the line format: total, threshold, query, trace
// ID, plan tag and the trace's phases.
func TestSlowWriterLine(t *testing.T) {
	var out bytes.Buffer
	l := newSlowWriter(time.Millisecond, &out)
	tr := slowTrace("A <= 7", 10*time.Millisecond)
	l.write(&flight.Record{Query: "A <= 7", Plan: "http-query", TraceID: tr.ID(), Total: 20 * time.Millisecond}, tr)
	want := "slow query (20ms >= 1ms): A <= 7 trace=" + tr.ID() + " plan=http-query [fetch=10ms]\n"
	if out.String() != want {
		t.Errorf("slow line\n got %q\nwant %q", out.String(), want)
	}
}

// TestSlowWriterTraceIDAndPlan: the line carries the record's trace ID and
// plan tag, so it joins its flight record and exemplar.
func TestSlowWriterTraceIDAndPlan(t *testing.T) {
	var out bytes.Buffer
	l := newSlowWriter(time.Nanosecond, &out)
	for _, plan := range []string{"http-query", "table-query", "cli-query"} {
		out.Reset()
		tr := slowTrace("B", time.Millisecond)
		l.write(&flight.Record{Query: "B", Plan: plan, TraceID: tr.ID(), Total: time.Second}, tr)
		if !strings.Contains(out.String(), " trace="+tr.ID()+" plan="+plan+" [") {
			t.Errorf("plan %s: line lacks its trace ID and plan: %q", plan, out.String())
		}
	}
}

// TestSlowWriterThresholdEdge: a total at the threshold is slow, one under
// it writes nothing, and a threshold <= 0 turns the line off.
func TestSlowWriterThresholdEdge(t *testing.T) {
	var out bytes.Buffer
	l := newSlowWriter(10*time.Millisecond, &out)
	tr := slowTrace("q", time.Millisecond)
	l.write(&flight.Record{Query: "under", TraceID: tr.ID(), Total: 10*time.Millisecond - 1}, tr)
	if out.Len() != 0 {
		t.Errorf("total under the threshold wrote %q", out.String())
	}
	l.write(&flight.Record{Query: "edge", TraceID: tr.ID(), Total: 10 * time.Millisecond}, tr)
	if lines := slowLines(out.String()); len(lines) != 1 || !strings.Contains(lines[0], ": edge trace=") {
		t.Errorf("total at the threshold wrote %q, want one edge line", out.String())
	}
	for _, off := range []time.Duration{0, -time.Second} {
		if newSlowWriter(off, &out) != nil {
			t.Errorf("threshold %v: slow line not off", off)
		}
	}
	var off *slowWriter
	off.write(&flight.Record{Total: time.Hour}, tr) // a nil writer writes nothing
}

// TestPublishFeedsDefaultRegistry: publish adds one record to the default
// registry: one query, its scans and operation counts, and its total as a
// latency observation whose bucket names its trace ID.
func TestPublishFeedsDefaultRegistry(t *testing.T) {
	before := registryCounts()
	lat := func() telemetry.HistogramSnapshot {
		return telemetry.Default().Snapshot().Histograms["bix_query_latency_seconds"]
	}
	latBefore := lat()
	rc := flight.Record{TraceID: "publish-test#1", Total: 1500 * time.Microsecond,
		Scans: 3, Ands: 2, Ors: 1, Xors: 0, Nots: 1}
	publish(&rc)
	checkRegistryDelta(t, "publish", before, 1, rc)
	latAfter := lat()
	if d := latAfter.Count - latBefore.Count; d != 1 {
		t.Fatalf("latency count grew by %d, want 1", d)
	}
	for _, b := range latAfter.Buckets {
		if rc.Total.Seconds() <= b.LE {
			if b.Exemplar == nil || b.Exemplar.TraceID != rc.TraceID {
				t.Errorf("bucket le=%v exemplar = %+v, want trace %s", b.LE, b.Exemplar, rc.TraceID)
			}
			return
		}
	}
	t.Errorf("no bucket holds %v", rc.Total)
}

// TestServeSlowLineConcurrent: concurrent slow queries sharing one plain
// writer each write one whole line (the race detector flags an unguarded
// write).
func TestServeSlowLineConcurrent(t *testing.T) {
	st, err := bitmapindex.OpenIndex(buildTestIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	srv, err := newQueryServer(st, 0, time.Nanosecond, &out)
	if err != nil {
		t.Fatal(err)
	}
	mux := srv.mux()
	const clients, rounds = 4, 10
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if code, body := serveGet(t, mux, "/query?q="+url.QueryEscape("<= 17")); code != 200 {
					t.Errorf("/query = %d: %s", code, body)
				}
			}
		}()
	}
	wg.Wait()
	whole := regexp.MustCompile(`^slow query \(\S+ >= 1ns\): <= 17 trace=<= 17#\d+ plan=http-query \[[^][]*\]$`)
	lines := slowLines(out.String())
	if len(lines) != clients*rounds {
		t.Fatalf("slow log wrote %d lines, want %d", len(lines), clients*rounds)
	}
	for _, line := range lines {
		if !whole.MatchString(line) {
			t.Errorf("torn slow line %q", line)
		}
	}
}
