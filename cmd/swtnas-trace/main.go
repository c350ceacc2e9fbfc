// Command swtnas-trace analyzes search traces written by cmd/swtnas
// (-trace out.json): per-run summaries including the lineage-depth
// statistics that explain weight transfer's effect, CSV export for
// plotting Figure 7 style curves, and trace replay through the calibrated
// simulator (predicted vs measured makespan).
//
// Usage:
//
//	swtnas-trace summary run1.json run2.json
//	swtnas-trace csv run1.json > run1.csv
//	swtnas-trace compare baseline.json lcs.json
//	swtnas-trace replay -metrics metrics.json run1.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"swtnas/internal/obs"
	"swtnas/internal/sim"
	"swtnas/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swtnas-trace: ")
	if len(os.Args) < 3 {
		log.Fatal("usage: swtnas-trace summary|csv|compare|replay <trace.json> [...]")
	}
	cmd, paths := os.Args[1], os.Args[2:]
	switch cmd {
	case "replay":
		runReplay(paths)
		return
	case "summary", "csv", "compare":
	default:
		log.Fatalf("unknown command %q (summary, csv, compare, replay)", cmd)
	}
	traces := make([]*trace.Trace, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := trace.ReadJSON(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", p, err)
		}
		traces[i] = tr
	}

	switch cmd {
	case "summary":
		for i, tr := range traces {
			if i > 0 {
				fmt.Println()
			}
			tr.WriteSummary(os.Stdout)
		}
	case "csv":
		if len(traces) != 1 {
			log.Fatal("csv takes exactly one trace")
		}
		if err := traces[0].WriteCSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
	case "compare":
		fmt.Printf("%-10s %-10s %10s %10s %10s %12s\n", "app", "scheme", "best", "mean", "p50", "lineage")
		for _, tr := range traces {
			s := tr.Summarize()
			quart := tr.ScoreQuantiles(4)
			p50 := 0.0
			if len(quart) == 5 {
				p50 = quart[2]
			}
			fmt.Printf("%-10s %-10s %10.4f %10.4f %10.4f %12.2f\n",
				s.App, s.Scheme, s.BestScore, s.MeanScore, p50, s.MeanLineage)
		}
	}
}

// runReplay implements the replay subcommand: feed a recorded trace back
// through the fleet simulator under a cost model calibrated from the run's
// own metrics dump (swtnas -metrics-dump), and report predicted vs measured
// makespan.
func runReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	workers := fs.Int("workers", 0, "evaluator count (0 = infer from the trace's concurrency)")
	metrics := fs.String("metrics", "", "metrics snapshot JSON to calibrate the cost model from (default: hand-set constants)")
	asJSON := fs.Bool("json", false, "emit the full replay report as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("replay takes exactly one trace")
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.ReadJSON(f)
	f.Close()
	if err != nil {
		log.Fatalf("%s: %v", fs.Arg(0), err)
	}

	cm := sim.DefaultCostModel()
	if *metrics != "" {
		raw, err := os.ReadFile(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			log.Fatalf("%s: %v", *metrics, err)
		}
		cm = sim.Calibrate(&snap)
	}

	rep, err := sim.Replay(tr, *workers, cm)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		return
	}
	inferred := ""
	if rep.WorkersInferred {
		inferred = " (inferred)"
	}
	fmt.Printf("workers     %d%s\n", rep.Workers, inferred)
	fmt.Printf("tasks       %d (skipped %d failed, %d filtered)\n", rep.Tasks, rep.SkippedFailed, rep.SkippedFiltered)
	fmt.Printf("measured    %v\n", rep.Measured)
	fmt.Printf("predicted   %v\n", rep.Predicted)
	fmt.Printf("error       %.2f%%\n", rep.Error*100)
	fmt.Printf("calibrated  %s\n", orDash(rep.Calibrated))
	fmt.Printf("defaulted   %s\n", orDash(rep.Defaulted))
}

func orDash(fields []string) string {
	if len(fields) == 0 {
		return "-"
	}
	return strings.Join(fields, ", ")
}
