package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"bitmapindex"
	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
	"bitmapindex/internal/mutable"
)

// mirror is the maintain workload's oracle: every row's value and
// tombstone in the index's current row numbering, plus a histogram of live
// values. Compact renumbers it the way MutableIndex.Compact does.
type mirror struct {
	vals []uint8
	dead []bool
	hist [indexCard]int
}

func newMirror(vals []uint64) *mirror {
	m := &mirror{vals: make([]uint8, len(vals)), dead: make([]bool, len(vals))}
	for i, v := range vals {
		m.vals[i] = uint8(v)
		m.hist[v]++
	}
	return m
}

func (m *mirror) rows() int { return len(m.vals) }

func (m *mirror) apply(w write) {
	if !w.del {
		m.vals = append(m.vals, uint8(w.v))
		m.dead = append(m.dead, false)
		m.hist[w.v]++
		return
	}
	if !m.dead[w.row] {
		m.dead[w.row] = true
		m.hist[m.vals[w.row]]--
	}
}

func (m *mirror) count(op string, c int64) int {
	n := 0
	for v, k := range m.hist {
		if holds(op, int64(v), c) {
			n += k
		}
	}
	return n
}

func (m *mirror) compact() {
	keep := 0
	for r, d := range m.dead {
		if !d {
			m.vals[keep] = m.vals[r]
			keep++
		}
	}
	m.vals = m.vals[:keep]
	m.dead = make([]bool, keep)
}

// write is one maintain mutation: an Append of v or a Delete of row.
type write struct {
	del bool
	row int
	v   uint64
}

// step draws the writes and the query of maintain step i. Writes are
// appends and deletes with equal odds, so the index keeps its size and a
// step costs the same early and late in a run; a delete picks a row id of
// the row space as it stands when it runs. The query's operator and
// constant are uniform.
func step(seed int64, i, n, rows int, ws []write) ([]write, string, uint64) {
	ws = ws[:0]
	draw := func(k int) uint64 { return pick(seed, streamMaintain, uint64(i)<<8|uint64(k)) }
	for k := 0; k < n; k++ {
		h := draw(k)
		if h%2 == 0 {
			ws = append(ws, write{del: true, row: int((h >> 8) % uint64(rows))})
		} else {
			ws = append(ws, write{v: (h >> 8) % indexCard})
			rows++
		}
	}
	h := draw(n)
	return ws, opNames[h%uint64(len(opNames))], (h >> 8) % indexCard
}

// maintainStats accumulates one index's share of a maintain loop.
type maintainStats struct {
	steps, writes, compacts int
	busy, writeT, compactT  time.Duration // busy: every MutableIndex call of a step
	done                    []completion  // per step, on the clock of busy time outside Compact; lat is its query's Eval + Count
	deltaRows               int           // summed DeltaRows at query time
	tally
}

// stepCosts is what one step cost one index.
type stepCosts struct {
	busy, write, query, compact time.Duration
	count, delta                int
	compacted                   bool
	err                         error
}

// runStep applies one step to mi: its writes, its query (Eval + Count)
// and, once the append segment reaches compactAt, Compact. With a tracer,
// the step is a span with a child per call, and the core layer is timed
// on the step's base index in a span of its own.
func runStep(mi *mutable.Index, ws []write, op core.Op, c uint64, compactAt int, tr *tracer, req int, stats *core.Stats) stepCosts {
	var sc stepCosts
	t0 := time.Now()
	root := tr.begin(req, 0, "step")
	for _, w := range ws {
		if w.del {
			id := tr.begin(req, root, "mutable.delete")
			sc.err = mi.Delete(w.row)
			tr.end(id)
		} else {
			id := tr.begin(req, root, "mutable.append")
			_, sc.err = mi.Append(w.v)
			tr.end(id)
		}
		if sc.err != nil {
			break
		}
	}
	t1 := time.Now()
	id := tr.begin(req, root, "mutable.eval")
	res := mi.Eval(op, c)
	tr.end(id)
	id = tr.begin(req, root, "bitvec.count")
	sc.count = res.Count()
	tr.end(id)
	t2 := time.Now()
	sc.delta = mi.DeltaRows()
	base := mi.Base()
	if sc.delta >= compactAt {
		id = tr.begin(req, root, "mutable.compact")
		if err := mi.Compact(); sc.err == nil {
			sc.err = err
		}
		tr.end(id)
		sc.compacted = true
	}
	tr.end(root)
	t3 := time.Now()
	sc.busy, sc.write, sc.query, sc.compact = t3.Sub(t0), t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	if tr != nil {
		id = tr.begin(req, 0, "core.eval")
		base.Eval(op, c, &core.EvalOptions{Stats: stats})
		tr.end(id)
	}
	return sc
}

// maintainLoop drives indexes built from the same base through the same
// steps in lockstep, taking turns at going first, until the deadline or
// until ctx ends. One mirror checks every answer; its bookkeeping runs
// outside the timed calls. tracers[k], when non-nil, records mis[k]'s
// spans, and stats its core-layer counts.
func maintainLoop(ctx context.Context, cfg config, mis []*mutable.Index, tracers []*tracer, mir *mirror, deadline time.Time, stats *core.Stats) []maintainStats {
	ms := make([]maintainStats, len(mis))
	costs := make([]stepCosts, len(mis))
	var ws []write
	for i := 0; ctx.Err() == nil && time.Now().Before(deadline); i++ {
		var opName string
		var c uint64
		ws, opName, c = step(cfg.seed, i, cfg.size.stepWrites, mir.rows(), ws)
		op, err := core.ParseOp(opName)
		if err != nil {
			ms[0].check(err)
			return ms
		}
		for k := range mis {
			j := (i + k) % len(mis)
			costs[j] = runStep(mis[j], ws, op, c, cfg.size.compactAt, tracers[j], i+1, stats)
		}
		for _, w := range ws {
			mir.apply(w)
		}
		want := mir.count(opName, int64(c))
		compacted := false
		for j, sc := range costs {
			m := &ms[j]
			m.steps++
			m.writes += len(ws)
			m.busy += sc.busy
			m.writeT += sc.write
			m.deltaRows += sc.delta
			if sc.compacted {
				m.compacts++
				m.compactT += sc.compact
				compacted = true
			}
			m.done = append(m.done, completion{at: m.busy - m.compactT, lat: sc.query})
			if sc.err == nil && sc.count != want {
				sc.err = fmt.Errorf("step %d: %s %d: %d matches, want %d", i, opName, c, sc.count, want)
			}
			m.check(sc.err)
		}
		if compacted {
			mir.compact()
		}
	}
	return ms
}

// runMaintain builds the mutable index in-process and runs the measured
// loop or the traced pass.
func runMaintain(ctx context.Context, cfg config) (*report, error) {
	rep := newReport("maintain")
	vals := data.Uniform(cfg.size.maintainRows, indexCard, cfg.seed).Values
	var ix *core.Index
	var builds []float64
	for b := 0; b < cfg.size.libBuilds; b++ {
		runtime.GC() // every build starts from a collected heap, as each bixstore build starts from a fresh process
		t0 := time.Now()
		var err error
		if ix, err = bitmapindex.New(vals, indexCard); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	build := median(builds)
	rep.set("setup_s", build)
	rep.set("setup.build_s", build)
	rep.set("setup.ready_s", 0) // nothing is served
	rep.detail("setup: median in-process build %.4f s of %d", build, len(builds))
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	if cfg.trace {
		return rep, traceMaintain(ctx, cfg, ix, vals, deadline, rep)
	}

	mi := mutable.FromIndex(ix)
	ms := maintainLoop(ctx, cfg, []*mutable.Index{mi}, []*tracer{nil}, newMirror(vals), deadline, nil)[0]
	rep.add(ms.tally)
	if ms.steps == 0 {
		return nil, fmt.Errorf("maintain: no steps completed")
	}
	final := mi.Base()
	rep.set("index_bytes_per_row", float64(final.SizeBytes())/float64(final.Rows()))
	// A Compact comes about every 1024 steps, so a chunk holds one or none.
	// The chunks run on the clock of time outside Compact, and qps adds
	// back the whole run's Compact time per step.
	rate, p50, p99, kept, chunks := fastHalf(ms.done)
	rep.set("qps", 1/(1/rate+ms.compactT.Seconds()/float64(ms.steps)))
	rep.set("latency_p50_ms", p50)
	rep.set("latency_p99_ms", p99)
	rep.detail("measured: %d steps (%d writes, %d compactions) in %.3f s busy; metrics over the fastest %d of %d chunks",
		ms.steps, ms.writes, ms.compacts, ms.busy.Seconds(), kept, chunks)
	all := latenciesMS(ms.done)
	rep.detail("whole run: %.1f steps/s, p50 %.4g ms, p99 %.4g ms",
		float64(ms.steps)/ms.busy.Seconds(), percentile(all, 50), percentile(all, 99))
	rep.detail("writes_per_s %.1f (Append/Delete/Compact time), mutable.compact_ms %.1f mean",
		float64(ms.writes)/(ms.writeT+ms.compactT).Seconds(), ms.compactT.Seconds()*1e3/float64(max(ms.compacts, 1)))
	return rep, nil
}

// traceMaintain runs two twins of the mutable index through the same
// steps in lockstep: one untraced, which gives the end-to-end time per
// step, and one with spans around every call.
func traceMaintain(ctx context.Context, cfg config, ix *core.Index, vals []uint64, deadline time.Time, rep *report) error {
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	tr := newTracer()
	var stats core.Stats
	self0, t0 := selfCPU(), time.Now()
	ms := maintainLoop(ctx, cfg, []*mutable.Index{mutable.FromIndex(ix), mutable.FromIndex(ix)},
		[]*tracer{nil, tr}, newMirror(vals), deadline, &stats)
	wall, cpu := time.Since(t0), selfCPU()-self0
	off, on := ms[0], ms[1]
	rep.add(off.tally)
	rep.add(on.tally)
	if off.steps == 0 {
		return fmt.Errorf("maintain: no steps completed")
	}
	selfTimes(tr.spans)

	n := float64(off.steps)
	per := func(name string) float64 { return float64(tr.sum(name).dur) / n }
	e2e := float64(off.busy.Nanoseconds()) / n
	share := func(ns float64) float64 { return ns / e2e }
	writeNS := per("mutable.append") + per("mutable.delete")
	compactNS, evalNS, countNS, coreNS := per("mutable.compact"), per("mutable.eval"), per("bitvec.count"), per("core.eval")
	for _, name := range []string{"serve.overhead_share", "storage.read_share", "storage.decode_share",
		"storage.other_share", "catalog.and_share", "catalog.other_share", "reorder.mapback_share",
		"storage.files_per_query", "storage.bytes_per_query", "cache.hit_rate", "serve.response_bytes",
		"catalog.preds_per_query"} {
		rep.set(name, 0)
	}
	rep.set("trace.op_us", e2e/1e3)
	rep.set("mutable.write_share", share(writeNS))
	rep.set("mutable.compact_share", share(compactNS))
	rep.set("mutable.other_share", share(evalNS-coreNS))
	rep.set("core.share", share(coreNS))
	rep.set("bitvec.count_share", share(countNS))
	rep.set("trace.unattributed_share", share(e2e-writeNS-compactNS-evalNS-countNS))
	rep.set("trace.overhead_share", on.busy.Seconds()/off.busy.Seconds()-1)
	rep.set("core.eval_us", coreNS/1e3)
	rep.set("core.scans_per_query", float64(stats.Scans)/n)
	rep.set("core.ops_per_query", float64(stats.Ops())/n)
	rep.set("mutable.delta_rows", float64(on.deltaRows)/n)
	rep.set("process.cpu_us_per_query", cpu.Seconds()*1e6/(2*n))
	rep.set("process.peak_rss_mb", rss)
	rep.set("loadgen.cpu_share", (wall-off.busy-on.busy).Seconds()/(wall.Seconds()*clients))
	setKernels(rep, cfg.size.maintainRows, cfg.seed)
	rep.detail("traced: %d steps, %d compactions; step_us %.1f; mutable.eval_us %.1f mean, %.1f p50; mutable.write_ns %.0f; mutable.compact_ms %.1f",
		off.steps, on.compacts, e2e/1e3, evalNS/1e3, tr.sum("mutable.eval").p50us(),
		writeNS/float64(cfg.size.stepWrites), float64(tr.sum("mutable.compact").dur)/1e6/float64(max(on.compacts, 1)))
	if cfg.spans != "" {
		return tr.save(cfg.spans, "maintain", cfg.seed)
	}
	return nil
}
