package main

import (
	"encoding/json"
	"io"
	"net/url"
	"sync"
	"testing"

	"bitmapindex"
	"bitmapindex/internal/flight"
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

// TestServeOneRecordPerQuery: a served /query lands exactly one flight
// record in either mode, and the record carries the response's numbers.
func TestServeOneRecordPerQuery(t *testing.T) {
	index := newTestServer(t, buildTestIndex(t)).mux()
	seq := flight.Default().Seq()
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

	ts, err := newTableServer(buildTestTable(t), "")
	if err != nil {
		t.Fatal(err)
	}
	table := ts.mux()
	seq = flight.Default().Seq()
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
	// Uncached, every distinct stored bitmap a query references is a scan.
	queries := []string{"<= 17", "> 40"}
	refs := map[string]int{}
	for _, q := range queries {
		op, v, err := parsePredicate(q)
		if err != nil {
			t.Fatal(err)
		}
		var m bitmapindex.StoreMetrics
		if _, err := st.Eval(op, v, &m); err != nil {
			t.Fatal(err)
		}
		refs[q] = m.Stats.Scans
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
			if got := rc.CacheHits + rc.CacheMisses; got != int64(refs[q]) {
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

// TestServeTableSlowLog: table mode feeds the slow log the trace of its
// one flight record.
func TestServeTableSlowLog(t *testing.T) {
	ts, err := newTableServer(buildTestTable(t), "")
	if err != nil {
		t.Fatal(err)
	}
	ts.slow = bitmapindex.NewSlowQueryLog(0, nil, 0) // threshold 0: every query is slow
	code, body := serveGet(t, ts.mux(), "/query?q="+url.QueryEscape("quantity <= 10 AND price > 500"))
	if code != 200 {
		t.Fatalf("/query = %d: %s", code, body)
	}
	var resp tableQueryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	rc := flightRecord(t, resp.TraceID)
	entries := ts.slow.Entries()
	if len(entries) != 1 {
		t.Fatalf("slow log holds %d entries, want 1", len(entries))
	}
	if e := entries[0]; e.Plan != "table-query" || e.TraceID != rc.TraceID || e.Total != rc.Total {
		t.Errorf("slow entry %+v does not match flight record %+v", e, rc)
	}
}
