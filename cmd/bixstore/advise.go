package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"bitmapindex/internal/catalog"
	"bitmapindex/internal/workload"
)

// cmdAdvise runs the design advisor over a catalog table: it prices the
// stored per-attribute designs against the weighted space-budget optimum
// under an observed workload profile (a JSON file saved by `serve
// -workload` or fetched from /debug/workload). Without -profile the
// profile is empty, so the advice reduces to the uniform-workload
// allocation the table was built with.
func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	var (
		dir      = fs.String("dir", "", "table directory (required)")
		profPath = fs.String("profile", "", "workload profile JSON (default: empty profile = uniform workload)")
		asJSON   = fs.Bool("json", false, "print the report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("advise needs -dir")
	}
	tbl, err := catalog.Open(*dir)
	if err != nil {
		return err
	}
	var p workload.Profile
	if *profPath != "" {
		if p, err = workload.LoadProfile(*profPath); err != nil {
			return err
		}
	}
	rep, err := workload.Advise(tbl.Name(), tbl.Designs(), p)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	printAdvice(rep)
	return nil
}

// printAdvice renders a report as a human-readable table plus a summary.
func printAdvice(rep *workload.Report) {
	fmt.Printf("table %s: %d observed queries, budget %d bitmaps\n",
		rep.Table, rep.TotalQueries, rep.Budget)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "attribute\tC\tfreq\trange%\tcurrent design\tscans\trecommended\tscans")
	for _, a := range rep.Attrs {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.0f%%\t%s %s/%s (%d)\t%.2f\t%s (%d)\t%.2f\n",
			a.Name, a.Card, a.Frequency, 100*a.RangeFrac,
			a.CurrentBase, a.CurrentEncoding, a.CurrentCodec, a.CurrentSpace, a.CurrentTime,
			a.RecommendedBase, a.RecommendedSpace, a.RecommendedTime)
	}
	w.Flush()
	fmt.Printf("drift from uniform: %.4f", rep.Drift)
	if rep.Drifted {
		fmt.Printf(" (over the %.2f threshold — uniform allocation misprices this workload)", workload.DriftThreshold)
	}
	fmt.Println()
	fmt.Printf("expected scans/query: current %.3f, recommended %.3f, gain %.3f\n",
		rep.CurrentTime, rep.RecommendedTime, rep.Gain)
}
