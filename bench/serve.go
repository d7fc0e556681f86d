package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/data"
	"bitmapindex/internal/storage"
)

// served holds a served workload's inputs and oracle.
type served struct {
	wl      workload
	queries []query
	input   string     // values file or CSV
	vals    []uint64   // index workloads: the column
	table   *tableData // table workload: the raw columns
	rows    int
}

func prepareServed(cfg config, wl workload, dir string) (*served, error) {
	s := &served{wl: wl}
	var err error
	if wl.kind == tableKind {
		t := genTable(cfg.size.tableRows, cfg.seed)
		s.table, s.rows = &t, cfg.size.tableRows
		s.input = filepath.Join(dir, "t.csv")
		if err = writeCSV(s.input, t); err != nil {
			return nil, err
		}
		s.queries, err = tableQueries(t, cfg.seed, cfg.size.pool)
		return s, err
	}
	s.vals, s.rows = data.Uniform(cfg.size.diskRows, indexCard, cfg.seed).Values, cfg.size.diskRows
	s.input = filepath.Join(dir, "values.txt")
	if err = writeValues(s.input, s.vals); err != nil {
		return nil, err
	}
	s.queries, err = indexQueries(s.vals, indexCard)
	return s, err
}

// buildArgs is the bixstore command line that builds the workload's index.
func (s *served) buildArgs(dir string) []string {
	if s.wl.kind == tableKind {
		return []string{"csv", "-in", s.input, "-dir", dir, "-z", "-enc", "interval", "-reorder", "lex"}
	}
	return []string{"build", "-dir", dir, "-values", s.input, "-C", strconv.Itoa(indexCard),
		"-base", indexBase, "-scheme", "BS", "-codec", "roaring"}
}

// warmSeq is the untimed warm-up before measuring: one pass over every
// (operator, constant) pair when everything fits the cache, otherwise
// cfg.size.warmup draws of the warm-up stream.
func (s *served) warmSeq(cfg config) []int {
	if s.wl.kind == indexKind && s.wl.cache >= indexBitmaps {
		seq := make([]int, len(s.queries))
		for i := range seq {
			seq[i] = i
		}
		return seq
	}
	return drawSeq(cfg.seed, streamWarm, cfg.size.warmup, len(s.queries))
}

func drawSeq(seed int64, stream uint64, n, of int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = int(pick(seed, stream, uint64(i)) % uint64(of))
	}
	return seq
}

// runServed builds the index, serves it, warms it up and then runs either
// the measured closed loop or the traced pass.
func runServed(ctx context.Context, cfg config, wl workload, dir string) (*report, error) {
	rep := newReport(wl.name)
	tin := time.Now()
	s, err := prepareServed(cfg, wl, dir)
	if err != nil {
		return nil, err
	}
	rep.detail("inputs: %d rows and %d oracle counts in %.2f s", s.rows, len(s.queries), time.Since(tin).Seconds())
	// Set up several times, each a build and a serve launch, and keep the
	// last server: a single set-up's time wanders with the host's speed.
	ixDir := filepath.Join(dir, "ix")
	var builds, readies, setups []float64
	var size int64
	var srv *server
	for k := 0; k < cfg.size.setups; k++ {
		if srv != nil {
			srv.stop()
		}
		if err := os.RemoveAll(ixDir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if out, err := exec.CommandContext(ctx, cfg.bixstore, s.buildArgs(ixDir)...).CombinedOutput(); err != nil {
			return nil, fmt.Errorf("bixstore %s: %v: %s", s.buildArgs(ixDir)[0], err, out)
		}
		build := time.Since(t0).Seconds()
		if size, err = dirBytes(ixDir); err != nil {
			return nil, err
		}
		if srv, err = startServer(ctx, cfg.bixstore, ixDir, filepath.Join(dir, "serve.log"), wl.cache); err != nil {
			return nil, err
		}
		builds = append(builds, build)
		readies = append(readies, srv.ready.Seconds())
		setups = append(setups, build+srv.ready.Seconds())
	}
	defer srv.stop()
	rep.set("setup_s", median(setups))
	rep.set("setup.build_s", median(builds))
	rep.set("setup.ready_s", median(readies))
	rep.set("index_bytes_per_row", float64(size)/float64(s.rows))
	rep.detail("setup: median %.3f s of %d (build %.3f s, serve ready %.3f s), index %d bytes",
		median(setups), len(setups), median(builds), median(readies), size)

	c := newClient(srv.addr)
	warm := closedLoop(ctx, c, s.queries, seqNext(s.warmSeq(cfg)), 1, time.Time{})
	rep.add(tallySamples(warm))
	if cfg.trace {
		return rep, traceServed(ctx, cfg, s, srv, c, ixDir, rep)
	}

	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	deadline := t0.Add(time.Duration(cfg.seconds * float64(time.Second)))
	samples := closedLoop(ctx, c, s.queries, streamNext(cfg.seed, streamMeasure, len(s.queries)), clients, deadline)
	wall := time.Since(t0)
	cpu1, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	rep.add(tallySamples(samples))
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: no queries completed", wl.name)
	}
	cs := make([]completion, len(samples))
	for i, sm := range samples {
		cs[i] = completion{at: sm.start.Add(sm.lat).Sub(t0), lat: sm.lat}
	}
	qps, p50, p99, kept, chunks := fastHalf(cs)
	rep.set("qps", qps)
	rep.set("latency_p50_ms", p50)
	rep.set("latency_p99_ms", p99)
	all := latenciesMS(cs)
	rep.detail("measured: %d queries from %d clients in %.3f s, server CPU %.3f s; metrics over the fastest %d of %d chunks",
		len(samples), clients, wall.Seconds(), (cpu1 - cpu0).Seconds(), kept, chunks)
	rep.detail("whole run: %.1f queries/s, p50 %.4g ms, p99 %.4g ms",
		float64(len(samples))/wall.Seconds(), percentile(all, 50), percentile(all, 99))
	return rep, nil
}

// server is one running `bixstore serve` child process.
type server struct {
	cmd   *exec.Cmd
	addr  string
	ready time.Duration // launch to the first 200 from /readyz
	done  chan error    // receives the child's exit; buffered so the waiter never blocks
}

var addrRE = regexp.MustCompile(` on (127\.0\.0\.1:\d+) \(`)

// startServer launches `bixstore serve` on an ephemeral loopback port and
// waits until /readyz answers 200. The child is killed if this process
// dies first.
func startServer(ctx context.Context, bin, dir, logPath string, cache int) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := []string{"serve", "-dir", dir, "-addr", "127.0.0.1:0"}
	if cache > 0 {
		args = append(args, "-cache", strconv.Itoa(cache))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err = cmd.Start()
	if cerr := logf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	if err := s.awaitReady(ctx, logPath); err != nil {
		s.stop()
		return nil, err
	}
	s.ready = time.Since(t0)
	return s, nil
}

// awaitReady polls the log for the listen address and then /readyz.
func (s *server) awaitReady(ctx context.Context, logPath string) error {
	limit := time.Now().Add(60 * time.Second)
	probe := &http.Client{Timeout: time.Second}
	for time.Now().Before(limit) {
		select {
		case err := <-s.done:
			s.done <- err // keep the exit for stop
			log, _ := os.ReadFile(logPath)
			return fmt.Errorf("bixstore serve exited: %v: %s", err, log)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if s.addr == "" {
			log, err := os.ReadFile(logPath)
			if err != nil {
				return err
			}
			if m := addrRE.FindSubmatch(log); m != nil {
				s.addr = string(m[1])
			}
		}
		if s.addr != "" {
			if status, _, err := get(ctx, probe, "http://"+s.addr+"/readyz"); err == nil && status == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("bixstore serve did not become ready within 60 s")
}

// stop asks the server to shut down gracefully, kills it after 10 s, and
// waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already exited child is fine
	timer := time.NewTimer(10 * time.Second)
	defer timer.Stop()
	select {
	case <-s.done:
	case <-timer.C:
		_ = s.cmd.Process.Kill() // it may have exited since
		<-s.done
	}
}

// client issues /query requests over keep-alive connections.
type client struct {
	http *http.Client
	base string
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 10 * time.Second}, base: "http://" + addr}
}

// get fetches url and returns the status and body.
func get(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// sample is one answered (or failed) request.
type sample struct {
	start     time.Time
	lat       time.Duration
	handlerNS int64 // server-reported elapsed_ns
	bytes     int   // response body length
	err       error // transport error, non-200, or wrong answer
}

// ask sends one query and checks its answer against the oracle.
func (c *client) ask(ctx context.Context, q *query) sample {
	sm := sample{start: time.Now()}
	status, body, err := get(ctx, c.http, c.base+"/query?q="+url.QueryEscape(q.text))
	sm.lat = time.Since(sm.start)
	sm.bytes = len(body)
	switch {
	case err != nil:
		sm.err = err
	case status != http.StatusOK:
		sm.err = fmt.Errorf("%q: HTTP %d: %s", q.text, status, strings.TrimSpace(string(body)))
	default:
		var ans struct {
			Matches   int   `json:"matches"`
			ElapsedNS int64 `json:"elapsed_ns"`
		}
		if err := json.Unmarshal(body, &ans); err != nil {
			sm.err = fmt.Errorf("%q: %v", q.text, err)
		} else if ans.Matches != q.want {
			sm.err = fmt.Errorf("%q: %d matches, want %d", q.text, ans.Matches, q.want)
		}
		sm.handlerNS = ans.ElapsedNS
	}
	return sm
}

// nextFunc returns the query index of the i-th operation, or false when
// the sequence is exhausted.
type nextFunc func(i int) (int, bool)

func seqNext(seq []int) nextFunc {
	return func(i int) (int, bool) {
		if i >= len(seq) {
			return 0, false
		}
		return seq[i], true
	}
}

func streamNext(seed int64, stream uint64, of int) nextFunc {
	return func(i int) (int, bool) { return int(pick(seed, stream, uint64(i)) % uint64(of)), true }
}

// closedLoop runs n clients, each sending its next query only after the
// previous answer, until next is exhausted, the deadline (when non-zero)
// passes, or ctx ends. Samples come back in issue order per client,
// clients concatenated.
func closedLoop(ctx context.Context, c *client, qs []query, next nextFunc, n int, deadline time.Time) []sample {
	var issued atomic.Int64
	per := make([][]sample, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (deadline.IsZero() || time.Now().Before(deadline)) {
				i := int(issued.Add(1) - 1)
				qi, ok := next(i)
				if !ok {
					return
				}
				per[k] = append(per[k], c.ask(ctx, &qs[qi]))
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

func tallySamples(samples []sample) tally {
	var t tally
	for _, s := range samples {
		t.check(s.err)
	}
	return t
}

// dirBytes sums the sizes of every file under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}

// evalFunc answers one query in-process the way the served program does.
type evalFunc func(q *query, m *storage.Metrics) (*bitvec.Vector, error)
