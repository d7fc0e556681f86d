package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/catalog"
	"bitmapindex/internal/core"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/reorder"
	"bitmapindex/internal/storage"
)

// span is one call into a layer, timed from outside the layer. Spans of
// one operation share Req; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	// What the layer itself reported about the call: storage.Metrics for
	// storage reads, the server's elapsed_ns for an HTTP round trip.
	ReadNS    int64 `json:"read_ns,omitempty"`
	DecodeNS  int64 `json:"decode_ns,omitempty"`
	Files     int   `json:"files,omitempty"`
	Bytes     int64 `json:"bytes,omitempty"`
	HandlerNS int64 `json:"handler_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how a replay runs with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span now; end closes it.
func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.add(span{Req: req, Parent: parent, Name: name, Start: t.since(time.Now())})
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = t.since(time.Now())
	}
}

// storage copies a storage call's own accounting onto its span.
func (t *tracer) storage(id int, m *storage.Metrics) {
	if t != nil {
		s := &t.spans[id-1]
		s.ReadNS, s.DecodeNS, s.Files, s.Bytes = m.ReadNS, m.DecompressNS, m.FilesRead, m.BytesRead
	}
}

// selfTimes sets every span's Self to its duration minus the part of it
// that its children cover. Children are clipped to the parent's interval
// and overlapping children count once, so Self is never negative and the
// children never account for more than the parent.
func selfTimes(spans []span) {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		var iv [][2]int64
		for _, k := range kids[p.ID] {
			lo, hi := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
			}
			reach = max(reach, x[1])
		}
		p.Self = max(p.End-p.Start, 0) - covered
	}
}

// spanSum totals the spans of one name.
type spanSum struct {
	dur              int64
	readNS, decodeNS int64
	files            int
	bytes, handlerNS int64
	durs             []float64
}

func (t *tracer) sum(name string) spanSum {
	var s spanSum
	for _, sp := range t.spans {
		if sp.Name != name {
			continue
		}
		d := sp.End - sp.Start
		s.dur += d
		s.readNS += sp.ReadNS
		s.decodeNS += sp.DecodeNS
		s.files += sp.Files
		s.bytes += sp.Bytes
		s.handlerNS += sp.HandlerNS
		s.durs = append(s.durs, float64(d))
	}
	return s
}

// p50us is the median span duration in microseconds.
func (s spanSum) p50us() float64 {
	sort.Float64s(s.durs)
	return percentile(s.durs, 50) / 1e3
}

// save writes the spans, with their self times, as JSON.
func (t *tracer) save(path, workload string, seed int64) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// answerErr reports an evaluation error or a count the oracle disagrees with.
func answerErr(q *query, count int, err error) error {
	if err != nil {
		return fmt.Errorf("%q: %w", q.text, err)
	}
	if count != q.want {
		return fmt.Errorf("%q: %d matches, want %d", q.text, count, q.want)
	}
	return nil
}

// answer evaluates q in-process through eval as operation req, spanning
// the call into the layer named layer and the count of its result.
func answer(eval evalFunc, q *query, tr *tracer, req int, layer string) error {
	root := tr.begin(req, 0, "op")
	id := tr.begin(req, root, layer)
	var m storage.Metrics
	res, err := eval(q, &m)
	tr.end(id)
	tr.storage(id, &m)
	n := -1
	if err == nil {
		cid := tr.begin(req, root, "bitvec.count")
		n = res.Count()
		tr.end(cid)
	}
	tr.end(root)
	return answerErr(q, n, err)
}

// traceServed is the traced pass of a served workload. For each operation
// of a seeded stream it sends the query over HTTP from one client,
// recording the round trip and the server's own elapsed time. It then
// answers the query in-process on two twins of the served index, one with
// spans around each layer's public calls and one without, and on
// in-memory indexes for the core layer. Interleaving per operation keeps
// all of them at the same host speed, which wanders from second to second.
// A 2-client closed loop at the end measures the server's CPU per query
// and the load generator's share of the machine.
func traceServed(ctx context.Context, cfg config, s *served, srv *server, c *client, ixDir string, rep *report) error {
	layer := "cache.eval"
	if s.wl.kind == tableKind {
		layer = "catalog.query"
	}
	// open opens the index the way `bixstore serve` does and gives it the
	// server's warm-up, so a twin's cache sees the server's hits.
	var tbl *catalog.Table
	open := func() (evalFunc, *storage.CachedStore, error) {
		var eval evalFunc
		var cs *storage.CachedStore
		if s.wl.kind == tableKind {
			t, err := catalog.Open(ixDir)
			if err != nil {
				return nil, nil, err
			}
			tbl = t
			eval = func(q *query, m *storage.Metrics) (*bitvec.Vector, error) { return t.Query(q.preds, m) }
		} else {
			st, err := storage.Open(ixDir)
			if err != nil {
				return nil, nil, err
			}
			if cs, err = storage.NewCached(st, s.wl.cache); err != nil {
				return nil, nil, err
			}
			eval = func(q *query, m *storage.Metrics) (*bitvec.Vector, error) { return cs.Eval(q.op, q.v, m) }
		}
		for _, qi := range s.warmSeq(cfg) {
			rep.check(answer(eval, &s.queries[qi], nil, 0, layer))
		}
		return eval, cs, nil
	}
	off, _, err := open()
	if err != nil {
		return err
	}
	on, cs, err := open()
	if err != nil {
		return err
	}
	var coreEval func(q *query, st *core.Stats)
	var decomposed func(tr *tracer, req int, q *query) error
	if s.wl.kind == tableKind {
		tl, err := newTableLayers(s, tbl)
		if err != nil {
			return err
		}
		coreEval, decomposed = tl.core, tl.decomposed
	} else {
		base, err := core.ParseBase(indexBase)
		if err != nil {
			return err
		}
		ix, err := core.Build(s.vals, indexCard, base, core.RangeEncoded, nil)
		if err != nil {
			return err
		}
		coreEval = func(q *query, st *core.Stats) { ix.Eval(q.op, q.v, &core.EvalOptions{Stats: st}) }
	}

	var h0, m0 int64
	if cs != nil {
		h0, m0 = cs.Hits(), cs.Misses()
	}
	tr := newTracer()
	var stats core.Stats
	var onT, offT time.Duration
	var respBytes, preds int
	next := streamNext(cfg.seed, streamTrace, len(s.queries))
	deadline := time.Now().Add(time.Duration(cfg.seconds * 0.75 * float64(time.Second)))
	n := 0
	for ; ctx.Err() == nil && time.Now().Before(deadline); n++ {
		qi, _ := next(n)
		q, req := &s.queries[qi], n+1
		sm := c.ask(ctx, q)
		rep.check(sm.err)
		respBytes += sm.bytes
		preds += len(q.preds)
		tr.add(span{Req: req, Name: "serve.roundtrip", Start: tr.since(sm.start),
			End: tr.since(sm.start.Add(sm.lat)), HandlerNS: sm.handlerNS})
		for k := 0; k < 2; k++ { // the twins take turns at going first
			t0 := time.Now()
			if (n+k)%2 == 0 {
				rep.check(answer(off, q, nil, req, layer))
				offT += time.Since(t0)
			} else {
				rep.check(answer(on, q, tr, req, layer))
				onT += time.Since(t0)
			}
		}
		id := tr.begin(req, 0, "core.eval")
		coreEval(q, &stats)
		tr.end(id)
		if decomposed != nil {
			rep.check(decomposed(tr, req, q))
		}
	}
	if n == 0 {
		return fmt.Errorf("%s: no traced queries completed", s.wl.name)
	}
	hitRate := 0.0
	if cs != nil {
		hits, misses := cs.Hits()-h0, cs.Misses()-m0
		hitRate = float64(hits) / float64(max(hits+misses, 1))
		rep.detail("cache: %d hits, %d misses in the traced twin", hits, misses)
	}

	pid := srv.cmd.Process.Pid
	self0, srv0, err := cpuPair(pid)
	if err != nil {
		return err
	}
	t0 := time.Now()
	load := closedLoop(ctx, c, s.queries, streamNext(cfg.seed, streamMeasure, len(s.queries)), clients,
		t0.Add(time.Duration(cfg.seconds*0.25*float64(time.Second))))
	wall := time.Since(t0)
	self1, srv1, err := cpuPair(pid)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	rep.add(tallySamples(load))
	if len(load) == 0 {
		return fmt.Errorf("%s: no queries completed under load", s.wl.name)
	}

	selfTimes(tr.spans)
	nf := float64(n)
	per := func(name string) float64 { return float64(tr.sum(name).dur) / nf }
	rt := tr.sum("serve.roundtrip")
	e2e, handler := float64(rt.dur)/nf, float64(rt.handlerNS)/nf
	share := func(ns float64) float64 { return ns / e2e }
	evalNS, countNS, coreNS := per(layer), per("bitvec.count"), per("core.eval")
	reads := tr.sum(layer)
	for _, name := range []string{"catalog.and_share", "reorder.mapback_share", "catalog.other_share",
		"mutable.write_share", "mutable.compact_share", "mutable.other_share", "mutable.delta_rows"} {
		rep.set(name, 0)
	}
	storeNS := evalNS
	if s.wl.kind == tableKind {
		reads = tr.sum("storage.eval")
		storeNS = float64(reads.dur) / nf
		andNS, mapNS := per("bitvec.and"), per("reorder.mapback")
		rep.set("catalog.and_share", share(andNS))
		rep.set("reorder.mapback_share", share(mapNS))
		rep.set("catalog.other_share", share(evalNS-storeNS-andNS-mapNS))
		rep.detail("reorder.mapback_us %.1f mean", mapNS/1e3)
	}
	readNS, decodeNS := float64(reads.readNS)/nf, float64(reads.decodeNS)/nf
	rep.set("trace.op_us", e2e/1e3)
	rep.set("serve.overhead_share", share(e2e-handler))
	rep.set("storage.read_share", share(readNS))
	rep.set("storage.decode_share", share(decodeNS))
	rep.set("storage.other_share", share(storeNS-readNS-decodeNS-coreNS))
	rep.set("core.share", share(coreNS))
	rep.set("bitvec.count_share", share(countNS))
	rep.set("trace.unattributed_share", share(handler-evalNS-countNS))
	rep.set("trace.overhead_share", onT.Seconds()/offT.Seconds()-1)
	rep.set("core.eval_us", coreNS/1e3)
	rep.set("core.scans_per_query", float64(stats.Scans)/nf)
	rep.set("core.ops_per_query", float64(stats.Ops())/nf)
	rep.set("storage.files_per_query", float64(reads.files)/nf)
	rep.set("storage.bytes_per_query", float64(reads.bytes)/nf)
	rep.set("cache.hit_rate", hitRate)
	rep.set("serve.response_bytes", float64(respBytes)/nf)
	rep.set("catalog.preds_per_query", float64(preds)/nf)
	rep.set("process.cpu_us_per_query", (srv1-srv0).Seconds()*1e6/float64(len(load)))
	rep.set("process.peak_rss_mb", rss)
	rep.set("loadgen.cpu_share", (self1-self0).Seconds()/(wall.Seconds()*clients))
	setKernels(rep, s.rows, cfg.seed)
	rep.detail("traced: %d queries; serve.roundtrip_us %.1f mean, %.1f p50; serve.handler_us %.1f mean",
		n, e2e/1e3, rt.p50us(), handler/1e3)
	rep.detail("%s_us %.1f mean, %.1f p50; core.eval_us %.1f p50", layer, evalNS/1e3, tr.sum(layer).p50us(), tr.sum("core.eval").p50us())
	if reads.bytes > 0 {
		rep.detail("storage: read_us %.1f, decode_us %.1f, decode_ns_per_byte %.3f per query",
			readNS/1e3, decodeNS/1e3, float64(reads.decodeNS)/float64(reads.bytes))
	}
	if cfg.spans != "" {
		return tr.save(cfg.spans, s.wl.name, cfg.seed)
	}
	return nil
}

// tableLayers holds what the table's traced pass needs beside Table.Query:
// an in-memory index of each attribute for the core layer, and the
// catalog's public pieces for a decomposed replay.
type tableLayers struct {
	tbl   *catalog.Table
	perm  []int
	rows  int
	attrs map[string]tableAttr
}

type tableAttr struct {
	a   *catalog.Attr
	mem *core.Index
}

func newTableLayers(s *served, tbl *catalog.Table) (*tableLayers, error) {
	tl := &tableLayers{tbl: tbl, perm: tbl.Permutation(), rows: s.rows, attrs: make(map[string]tableAttr)}
	for j, name := range s.table.names {
		a, err := tbl.Attr(name)
		if err != nil {
			return nil, err
		}
		d, ranks := engine.NewDict(s.table.cols[j])
		if tl.perm != nil {
			ranks = reorder.Apply(tl.perm, ranks)
		}
		shell := a.Store().Index()
		mem, err := core.Build(ranks, d.Card(), shell.Base(), shell.Encoding(), nil)
		if err != nil {
			return nil, err
		}
		tl.attrs[name] = tableAttr{a, mem}
	}
	return tl, nil
}

// core evaluates q's translated predicates on the in-memory indexes.
func (tl *tableLayers) core(q *query, st *core.Stats) {
	for _, p := range q.preds {
		at := tl.attrs[p.Col]
		if rop, rank, all, none := at.a.Dict().Translate(p.Op, p.Val); !all && !none {
			at.mem.Eval(rop, rank, &core.EvalOptions{Stats: st})
		}
	}
}

// decomposed answers q through the catalog's public pieces — dictionary
// translation, each attribute's Store.Eval, the conjunction AND and the
// reorder map-back — with a span around each, and checks that the result
// equals Table.Query's.
func (tl *tableLayers) decomposed(tr *tracer, req int, q *query) error {
	root := tr.begin(req, 0, "catalog.replay")
	out, err := tl.pieces(tr, req, root, q)
	tr.end(root)
	if err != nil {
		return fmt.Errorf("%q: %w", q.text, err)
	}
	ref, err := tl.tbl.Query(q.preds, nil)
	if err != nil {
		return fmt.Errorf("%q: %w", q.text, err)
	}
	if !ref.Equal(out) {
		return fmt.Errorf("%q: decomposed catalog replay differs from Table.Query", q.text)
	}
	return nil
}

func (tl *tableLayers) pieces(tr *tracer, req, root int, q *query) (*bitvec.Vector, error) {
	var out *bitvec.Vector
	for _, p := range q.preds {
		a := tl.attrs[p.Col].a
		tid := tr.begin(req, root, "engine.translate")
		rop, rank, all, none := a.Dict().Translate(p.Op, p.Val)
		tr.end(tid)
		var res *bitvec.Vector
		switch {
		case none:
			res = bitvec.New(tl.rows)
		case all:
			res = bitvec.NewOnes(tl.rows)
		default:
			var m storage.Metrics
			sid := tr.begin(req, root, "storage.eval")
			r, err := a.Store().Eval(rop, rank, &m)
			tr.end(sid)
			tr.storage(sid, &m)
			if err != nil {
				return nil, err
			}
			res = r
		}
		if out == nil {
			out = res
			continue
		}
		aid := tr.begin(req, root, "bitvec.and")
		out.And(res)
		tr.end(aid)
	}
	if tl.perm != nil {
		mid := tr.begin(req, root, "reorder.mapback")
		out = reorder.MapBack(tl.perm, out)
		tr.end(mid)
	}
	return out, nil
}

// kernelSink keeps the count kernel's result alive.
var kernelSink int

// setKernels times each bitvec kernel on two random vectors of the
// workload's row count, as the median over rounds of ns per 64-bit word.
func setKernels(rep *report, rows int, seed int64) {
	a, b := bitvec.New(rows), bitvec.New(rows)
	for i := 0; i < rows; i++ {
		h := pick(seed, 0, uint64(i))
		if h&1 != 0 {
			a.Set(i)
		}
		if h&2 != 0 {
			b.Set(i)
		}
	}
	words := (rows + 63) / 64
	reps := max(1, (1<<20)/words)
	kernels := []struct {
		name string
		fn   func()
	}{
		{"and", func() { a.And(b) }},
		{"or", func() { a.Or(b) }},
		{"xor", func() { a.Xor(b) }},
		{"andnot", func() { a.AndNot(b) }},
		{"not", func() { a.Not() }},
		{"count", func() { kernelSink += a.Count() }},
	}
	for _, k := range kernels {
		rounds := make([]float64, 15)
		for r := range rounds {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				k.fn()
			}
			rounds[r] = float64(time.Since(t0).Nanoseconds()) / float64(reps*words)
		}
		sort.Float64s(rounds)
		rep.set("bitvec."+k.name+"_ns_per_word", percentile(rounds, 50))
	}
}
