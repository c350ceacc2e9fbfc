// Command experiments regenerates the tables and figures of the paper's
// evaluation (Section VIII).
//
// Usage:
//
//	experiments -scale quick all
//	experiments -scale paper fig7 fig8 table3
//	experiments -apps nt3,uno -seeds 3 -budget 120 fig7
//
// Experiments: table1 fig2 fig3 fig4 fig5 fig7 fig8 table3 table4 fig9
// fig10 fig11 proxy dist sim dtype all. Searches are shared between
// experiments within one invocation (fig7/fig8/fig9/fig10/fig11/proxy/
// table3/table4/dtype reuse the same campaign runs, as the paper does).
// proxy is the zero-cost-score rank-correlation study behind
// -proxy-filter: Kendall's tau of each pre-training score against fully
// trained metrics, per app. dtype is the float32 rank-fidelity study
// behind -dtype f32: the same search per dtype, Kendall's tau between the
// paired f32/f64 candidate scores plus the final-best delta. dist reruns the
// searches over real TCP workers via cluster.RunDistributed and reports
// per-scheme summaries with kernel-level obs metric deltas; -workers sets
// its evaluator count. sim is the calibrated fleet scale study: a cost model
// fitted from a real run's metrics drives the discrete-event simulator from
// 16 to 4096 evaluators, with and without speculative re-execution.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"swtnas/internal/experiments"
)

var order = []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "table3", "table4", "fig9", "fig10", "fig11", "proxy", "dtype", "dist", "sim"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		scale   = flag.String("scale", "quick", "quick or paper")
		seeds   = flag.Int("seeds", 0, "override repetition count")
		budget  = flag.Int("budget", 0, "override per-search candidate budget")
		appsF   = flag.String("apps", "", "comma-separated application subset")
		seed    = flag.Int64("seed", 0, "override base seed")
		workers = flag.Int("workers", 0, "override worker count (dist: TCP evaluators)")
		trainN  = flag.Int("train", 0, "override training samples per app (CI-speed runs)")
		valN    = flag.Int("val", 0, "override validation samples per app")
	)
	flag.Parse()

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.Quick()
	case "paper":
		cfg = experiments.Paper()
	default:
		log.Fatalf("unknown scale %q (quick or paper)", *scale)
	}
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}
	if *budget > 0 {
		cfg.Budget = *budget
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *appsF != "" {
		cfg.Apps = strings.Split(*appsF, ",")
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *trainN > 0 {
		cfg.TrainN = *trainN
	}
	if *valN > 0 {
		cfg.ValN = *valN
	}

	names := flag.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	if len(names) == 1 && names[0] == "all" {
		names = order
	}
	// A misspelt name fails here, not after the experiments before it ran.
	for _, name := range names {
		if !slices.Contains(order, name) {
			log.Fatalf("unknown experiment %q (valid: %s, all)", name, strings.Join(order, " "))
		}
	}

	suite := experiments.NewSuite(cfg)
	w := os.Stdout
	for _, name := range names {
		fmt.Fprintf(w, "==> %s (scale=%s, seeds=%d, budget=%d)\n", name, *scale, cfg.Seeds, cfg.Budget)
		var err error
		switch name {
		case "table1":
			_, err = suite.Table1(w)
		case "fig2":
			_, err = suite.Fig2(w)
		case "fig3":
			err = suite.Fig3(w)
		case "fig4":
			_, err = suite.Fig4(w)
		case "fig5":
			_, err = suite.Fig5(w)
		case "fig7":
			_, _, err = suite.Fig7(w)
		case "fig8":
			_, _, err = suite.Fig8(w)
		case "table3":
			_, err = suite.Table3(w)
		case "table4":
			_, err = suite.Table4(w)
		case "fig9":
			_, err = suite.Fig9(w)
		case "fig10":
			_, err = suite.Fig10(w)
		case "fig11":
			_, err = suite.Fig11(w)
		case "proxy":
			_, err = suite.Proxy(w)
		case "dtype":
			_, err = suite.Dtype(w)
		case "dist":
			_, err = suite.Dist(w)
		case "sim":
			_, err = suite.Sim(w)
		}
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintln(w)
	}
}
