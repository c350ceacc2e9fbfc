// Command swtnas runs a neural architecture search with selective weight
// transfer and prints the discovered top-K models.
//
// Usage:
//
//	swtnas -app nt3 -scheme LCS -budget 200 -topk 10 -full
//	swtnas -app cifar10 -scheme LP -budget 400 -workers 4 -trace out.json
//	swtnas -app nt3 -budget 200 -journal run.swtj            # crash-safe
//	swtnas -app nt3 -budget 200 -journal run.swtj -resume    # continue it
//	swtnas -app cifar10 -dtype f32 -budget 24 -cpuprofile cpu.prof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"swtnas"
	"swtnas/internal/obs"
	"swtnas/internal/parallel"
)

// startCPUProfile starts a CPU profile into path and returns the function
// that stops it and closes the file; an empty path profiles nothing.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("swtnas: ")
	var (
		app      = flag.String("app", "nt3", "application: "+strings.Join(swtnas.Applications(), ", "))
		scheme   = flag.String("scheme", "LCS", "estimation scheme: baseline, LP, LCS")
		budget   = flag.Int("budget", 100, "number of candidates to evaluate")
		workers  = flag.Int("workers", 1, "parallel evaluators")
		kworkers = flag.Int("kernel-workers", 0, "cores per candidate evaluation: compute-kernel pool size (0 = $"+parallel.EnvWorkers+" or all cores)")
		seed     = flag.Int64("seed", 1, "search seed")
		popN     = flag.Int("population", 0, "evolution population size (0 = paper default 64)")
		popS     = flag.Int("sample", 0, "evolution sample size (0 = paper default 32)")
		trainN   = flag.Int("train", 0, "training samples (0 = app default)")
		valN     = flag.Int("val", 0, "validation samples (0 = app default)")
		topK     = flag.Int("topk", 5, "top models to report")
		full     = flag.Bool("full", false, "fully train the top-K models (phase 2)")
		ckptDir  = flag.String("ckpt-dir", "", "persist checkpoints in this directory")
		traceTo  = flag.String("trace", "", "write the search trace JSON to this file")
		spaceF   = flag.String("space", "", "JSON search-space spec file (the -app then names only the dataset)")
		describe = flag.Bool("describe", false, "print a layer summary of the best model")
		progress = flag.Bool("progress", true, "print a line per completed candidate")
		mAddr    = flag.String("metrics-addr", "", "serve live metrics JSON on this address (e.g. 127.0.0.1:6060) at "+obs.MetricsPath+" (Prometheus text at "+obs.PromPath+")")
		mDump    = flag.String("metrics-dump", "", `write the search's metrics JSON to this file ("-" = stdout)`)
		journal  = flag.String("journal", "", "crash-resume journal path: append every completed candidate to this write-ahead log")
		resume   = flag.Bool("resume", false, "resume the interrupted search journaled at -journal (same options required)")
		retain   = flag.Int("retain-topk", 0, "garbage-collect checkpoints of evicted candidates outside the running top-K (0 = keep all; must be >= -topk when set)")
		proxyF   = flag.Bool("proxy-filter", false, "pre-screen proposals with zero-cost proxies + an online surrogate; only the best -proxy-admit fraction trains")
		proxyA   = flag.Float64("proxy-admit", 0, "fraction of each proposal batch admitted to training, in (0,1] (0 = default 0.5; needs -proxy-filter)")
		multiObj = flag.Bool("multi-objective", false, "Pareto (score x params) parent selection instead of best-score evolution")
		dtype    = flag.String("dtype", "", "training element type: f64 (default) or f32 (native float32 training, f32 checkpoints)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the search to this file (go tool pprof)")
	)
	flag.Parse()

	if *mAddr != "" {
		srv, err := obs.Serve(*mAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics: %s\n", srv.URL())
	}

	// Ctrl-C / SIGTERM cancels the search between candidates: in-flight
	// evaluations finish, the partial result is reported, and a second
	// signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := swtnas.SearchOptions{
		App: *app, Scheme: *scheme, Budget: *budget, Workers: *workers,
		KernelWorkers: *kworkers,
		Seed:          *seed, PopulationSize: *popN, SampleSize: *popS,
		TrainN: *trainN, ValN: *valN, CheckpointDir: *ckptDir,
		Metrics:        *mDump != "" || *mAddr != "",
		JournalPath:    *journal,
		Resume:         *resume,
		RetainTopK:     *retain,
		ProxyFilter:    *proxyF,
		ProxyAdmit:     *proxyA,
		MultiObjective: *multiObj,
		DType:          *dtype,
	}
	if *spaceF != "" {
		spec, err := os.ReadFile(*spaceF)
		if err != nil {
			log.Fatal(err)
		}
		opt.SpaceJSON = string(spec)
	}
	if *retain > 0 && *retain < *topK {
		log.Fatalf("-retain-topk %d would collect checkpoints the -topk %d report needs", *retain, *topK)
	}
	if err := opt.Validate(); err != nil {
		log.Fatal(strings.TrimPrefix(err.Error(), "swtnas: "))
	}
	if *progress {
		opt.Progress = func(c swtnas.Candidate) {
			src := "scratch"
			if c.TransferredLayers > 0 {
				src = fmt.Sprintf("transfer(%d)<-%s", c.TransferredLayers, fmt.Sprintf("cand-%06d", c.ParentID))
			}
			fmt.Printf("cand %4d  score %.4f  params %7d  %-24s  %s\n",
				c.ID, c.Score, c.Params, src, c.CompletedAt.Round(time.Millisecond))
		}
	}

	// The profile covers the search and nothing else. It is complete after
	// Ctrl-C too: the signal only cancels ctx, and SearchContext then
	// returns here.
	stopProfile, err := startCPUProfile(*cpuProf)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res, err := swtnas.SearchContext(ctx, opt)
	if perr := stopProfile(); perr != nil {
		log.Fatal(perr)
	}
	if err != nil {
		if res == nil || !errors.Is(err, context.Canceled) {
			log.Fatal(err)
		}
		fmt.Printf("interrupted: %d of %d candidates completed\n", len(res.Candidates), *budget)
		if *journal != "" {
			fmt.Printf("journal %s holds the completed prefix; rerun with -resume to continue\n", *journal)
		}
		if len(res.Candidates) == 0 {
			os.Exit(1)
		}
	}
	fmt.Printf("search %s/%s: %d candidates in %s\n", res.App, res.Scheme, len(res.Candidates), time.Since(start).Round(time.Millisecond))
	if s := res.Summary; s != nil && s.Resumed > 0 {
		fmt.Printf("resumed from journal: %d candidates replayed, %d evaluated in this run\n",
			s.Resumed, len(res.Candidates)-s.Resumed)
	}

	transferred := 0
	for _, c := range res.Candidates {
		if c.TransferredLayers > 0 {
			transferred++
		}
	}
	fmt.Printf("weight transfer warm-started %d of %d candidates\n", transferred, len(res.Candidates))
	if s := res.Summary; s != nil && s.Proxy != nil {
		p := s.Proxy
		fmt.Printf("proxy filter: %d proposals scored, %d admitted, %d rejected (%d surrogate refits, MAE %.4f)\n",
			p.Proposals, p.Admitted, p.Filtered, p.SurrogateRefits, p.SurrogateMAE)
	}

	if s := res.Summary; s != nil && s.Eval.Count > 0 {
		fmt.Printf("eval latency: mean %s  p50 %s  p95 %s  max %s  (queue wait mean %s)\n",
			s.Eval.Mean.Round(time.Millisecond), s.Eval.P50.Round(time.Millisecond),
			s.Eval.P95.Round(time.Millisecond), s.Eval.Max.Round(time.Millisecond),
			s.QueueWait.Mean.Round(time.Microsecond))
	}
	if *mDump != "" {
		if res.Summary == nil || len(res.Summary.Metrics) == 0 {
			log.Fatal("no metrics recorded for this search")
		}
		out := os.Stdout
		if *mDump != "-" {
			f, err := os.Create(*mDump)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		if _, err := out.Write(res.Summary.Metrics); err != nil {
			log.Fatal(err)
		}
		if *mDump != "-" {
			fmt.Printf("metrics written to %s\n", *mDump)
		}
	}

	fmt.Printf("\ntop-%d candidates:\n", *topK)
	for i, c := range res.Best(*topK) {
		fmt.Printf(" %2d. score %.4f  params %7d  arch %v\n", i+1, c.Score, c.Params, c.Arch)
		if *describe && i == 0 {
			if err := res.Summarize(c, os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
		if *full {
			ft, err := res.FullyTrain(c)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("      fully trained: score %.4f after %d epochs (early stop: %v)\n", ft.Score, ft.Epochs, ft.EarlyStopped)
		}
	}

	if *multiObj {
		fmt.Printf("\npareto front (score maximized, params minimized):\n")
		for _, c := range res.ParetoFront() {
			fmt.Printf("    score %.4f  params %7d  arch %v\n", c.Score, c.Params, c.Arch)
		}
	}

	if *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.WriteTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace written to %s\n", *traceTo)
	}
}
