// Package experiments regenerates every table and figure of the paper's
// evaluation as plain-text tables. Each experiment is registered under the
// ID used by cmd/bixbench and bench_test.go; DESIGN.md maps IDs to paper
// artifacts and EXPERIMENTS.md records the measured outcomes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Config scales the experiments. The zero value is not useful; start from
// Default.
type Config struct {
	// Rows is the relation cardinality for data-driven experiments
	// (storage, compression, engine). The paper used the TPC-D scale
	// (6.0M / 1.5M rows); Default scales down to keep a full run fast.
	Rows int
	// Seed drives all synthetic data generation.
	Seed int64
	// Quick further reduces parameter sweeps for use inside testing.B
	// loops and CI.
	Quick bool
	// TempDir hosts on-disk indexes for the storage experiments; empty
	// means os.MkdirTemp.
	TempDir string
	// CSV switches the output format from aligned text to comma-separated
	// rows with "#"-prefixed section headers, ready for plotting tools.
	CSV bool
}

// Default returns the standard configuration.
func Default() Config {
	return Config{Rows: 100000, Seed: 1998}
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Paper string // which table/figure of the paper it regenerates
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"intro", "Section 1", "Bitmap vs RID-list crossover at selectivity 1/32", runIntro},
		{"table1", "Table 1", "Worst-case ops/scans: RangeEval vs RangeEval-Opt", runTable1},
		{"fig8", "Figure 8", "Average scans and ops vs base number (C=100)", runFig8},
		{"fig9", "Figure 9", "Space-time tradeoff: range vs equality encoding", runFig9},
		{"fig10", "Figure 10", "Space-optimal class approximates the full frontier", runFig10},
		{"fig11", "Figure 11", "Components along the space-optimal tradeoff", runFig11},
		{"knee", "Theorem 7.1", "Approximate knee vs definitional knee", runKnee},
		{"fig13", "Figure 13", "Bounds on components of the constrained optimum", runFig13},
		{"fig14", "Figure 14", "Candidate-set size vs space constraint (C=1000)", runFig14},
		{"table2", "Table 2", "Near-optimality of Algorithm TimeOptHeur", runTable2},
		{"table3", "Table 3", "Characteristics of the two data sets", runTable3},
		{"table4", "Table 4", "Compressibility of BS / CS / IS storage schemes", runTable4},
		{"fig16", "Figure 16", "Time and space of BS, cBS, cCS indexes", runFig16},
		{"fig17", "Figure 17", "Effect of bitmap buffering on the tradeoff", runFig17},
		{"ablation-wah", "extension", "WAH vs zlib bitmap compression", runAblationWAH},
		{"ablation-interval", "extension", "Interval encoding vs range and equality", runAblationInterval},
		{"ablation-agg", "extension", "Bit-sliced SUM vs record scan", runAblationAgg},
		{"ablation-cache", "Section 10 live", "pinned bitmap pool vs the buffering model", runAblationCache},
		{"ablation-refine", "Section 8.2", "RefineIndex gain over the FindSmallestN seed", runAblationRefine},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// output format selection: experiments write through csvWriter when the
// Config asks for machine-readable output.
type csvWriter struct{ w io.Writer }

// table is a small helper around tabwriter for aligned output; when the
// destination is a csvWriter it emits comma-separated rows instead.
type table struct {
	tw  *tabwriter.Writer
	csv io.Writer
}

func newTable(w io.Writer) *table {
	if cw, ok := w.(*csvWriter); ok {
		return &table{csv: cw.w}
	}
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...interface{}) {
	if t.csv != nil {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(t.csv, ",")
			}
			s := fmt.Sprint(c)
			if strings.ContainsAny(s, ",\"\n") {
				s = "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
			}
			fmt.Fprint(t.csv, s)
		}
		fmt.Fprintln(t.csv)
		return
	}
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() error {
	if t.csv != nil {
		return nil
	}
	return t.tw.Flush()
}

func section(w io.Writer, format string, args ...interface{}) {
	if _, ok := w.(*csvWriter); ok {
		fmt.Fprintf(w, "# "+format+"\n", args...)
		return
	}
	fmt.Fprintf(w, "\n== "+format+" ==\n", args...)
}

// Writer wraps w according to the config's output format; experiments are
// always invoked with the result of this call.
func (cfg Config) Writer(w io.Writer) io.Writer {
	if cfg.CSV {
		return &csvWriter{w: w}
	}
	return w
}

// Write implements io.Writer so free-form fmt.Fprintf lines in experiments
// pass through unchanged (sections and tables handle their own framing).
func (c *csvWriter) Write(p []byte) (int, error) { return c.w.Write(p) }
