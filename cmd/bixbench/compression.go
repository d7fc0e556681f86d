package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
	"bitmapindex/internal/design"
	"bitmapindex/internal/reorder"
	"bitmapindex/internal/storage"
)

// runCompressionSuites is the two-way §9 space-time study behind
// `-suite compression`: for a uniform and a clustered workload it saves
// the same knee-design range-encoded index under the dense (raw) and
// roaring codecs, with rows in original order and lexicographically
// sorted (arXiv:0901.3751), and reports on-disk value bytes, evaluation
// wall time and scans for each combination. Space metrics are
// deterministic for fixed (rows, seed); times carry the usual noise
// allowance of the "time" kind.
func runCompressionSuites(o options, w io.Writer) ([]suiteResult, error) {
	base, err := design.Knee(suiteCard)
	if err != nil {
		return nil, err
	}
	var suites []suiteResult
	for _, wl := range []struct {
		name string
		col  data.Column
	}{
		// Clustered data emits runs of identical values (runLen ~512), the
		// regime where run containers shine even unsorted.
		{"compression_uniform", data.Uniform(o.Rows, suiteCard, o.Seed)},
		{"compression_clustered", data.Clustered(o.Rows, suiteCard, 512, o.Seed)},
	} {
		s, err := compressionSuite(wl.name, wl.col, base)
		if err != nil {
			return nil, err
		}
		suites = append(suites, *s)
	}
	printSuites(w, suites)
	return suites, nil
}

// codecLabel names a codec in metric names: the raw codec stores the
// dense bit payload, so it is the study's "dense" arm.
func codecLabel(c storage.Codec) string {
	if c == storage.CodecRaw {
		return "dense"
	}
	return c.String()
}

func compressionSuite(name string, col data.Column, base core.Base) (*suiteResult, error) {
	res := &suiteResult{Name: name}
	for _, sorted := range []bool{false, true} {
		vals := col.Values
		suffix := ""
		if sorted {
			perm := reorder.Permutation(reorder.Lex, [][]uint64{col.Values})
			vals = reorder.Apply(perm, col.Values)
			suffix = "_sorted"
		}
		ix, err := core.Build(vals, suiteCard, base, core.RangeEncoded, nil)
		if err != nil {
			return nil, err
		}
		for _, codec := range []storage.Codec{storage.CodecRaw, storage.CodecRoaring} {
			dir, err := os.MkdirTemp("", "bixbench-compression-*")
			if err != nil {
				return nil, err
			}
			st, err := storage.Save(ix, dir, storage.Options{Scheme: storage.BitmapLevel, Codec: codec})
			if err != nil {
				_ = os.RemoveAll(dir)
				return nil, err
			}
			var m storage.Metrics
			n := 0
			t0 := time.Now()
			for _, op := range []core.Op{core.Le, core.Eq, core.Gt} {
				for v := uint64(0); v < suiteCard; v += 7 {
					if _, err := st.Eval(op, v, &m); err != nil {
						_ = os.RemoveAll(dir)
						return nil, err
					}
					n++
				}
			}
			elapsed := time.Since(t0)
			prefix := codecLabel(codec) + suffix
			res.Metrics = append(res.Metrics,
				suiteMetric{Name: prefix + "_value_bytes", Kind: "count", Better: "lower", Value: float64(st.ValueBytes())},
				suiteMetric{Name: prefix + "_scans_per_query", Kind: "count", Better: "lower", Value: float64(m.Stats.Scans) / float64(n)},
				suiteMetric{Name: prefix + "_ns_per_query", Kind: "time", Better: "lower", Value: float64(elapsed.Nanoseconds()) / float64(n)},
			)
			_ = os.RemoveAll(dir)
		}
	}
	return res, nil
}

// printSuites renders suites in the same text form as runSuites, sorting
// metrics by name first (the compare mode and checked-in baselines rely
// on sorted order).
func printSuites(w io.Writer, suites []suiteResult) {
	for i := range suites {
		sortSuiteMetrics(&suites[i])
	}
	for _, s := range suites {
		fmt.Fprintf(w, "suite %s:\n", s.Name)
		for _, m := range s.Metrics {
			fmt.Fprintf(w, "  %-24s %14.6g  (%s, better=%s)\n", m.Name, m.Value, m.Kind, m.Better)
		}
	}
}
