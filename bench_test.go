// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VIII), plus micro-benchmarks of the core primitives and the
// ablation benches called out in DESIGN.md §7.
//
// The figure/table benchmarks run the experiment suite at the Quick scale
// (see EXPERIMENTS.md for the mapping to the paper's scale) and print the
// paper-style rows once, so `go test -bench=. -benchmem` output doubles as
// the reproduction record. Campaign searches are shared across benchmarks,
// exactly as the paper derives Figs 7-11 and Tables III/IV from the same
// five NAS runs.
//
//	go test -bench=. -benchmem -timeout 3h
package swtnas_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"

	"swtnas/internal/checkpoint"
	"swtnas/internal/cluster"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/experiments"
	"swtnas/internal/nn"
	"swtnas/internal/oneshot"
	"swtnas/internal/parallel"
	"swtnas/internal/stats"
	"swtnas/internal/tensor"
)

var (
	suiteMu    sync.Mutex
	quickSuite *experiments.Suite
	printedMu  sync.Mutex
	printed    = map[string]bool{}
)

func benchSuite() *experiments.Suite {
	suiteMu.Lock()
	defer suiteMu.Unlock()
	if quickSuite == nil {
		quickSuite = experiments.NewSuite(experiments.Quick())
	}
	return quickSuite
}

// emit prints an experiment's rows exactly once per process, so repeated
// benchmark iterations do not duplicate the tables in the tee'd output.
func emit(name string, buf *bytes.Buffer) {
	printedMu.Lock()
	defer printedMu.Unlock()
	if printed[name] {
		return
	}
	printed[name] = true
	fmt.Fprintf(os.Stdout, "\n===== %s =====\n%s", name, buf.String())
}

func BenchmarkTable1(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		rows, err := s.Table1(&buf)
		if err != nil {
			b.Fatal(err)
		}
		emit("Table I", &buf)
		b.ReportMetric(float64(len(rows)), "apps")
	}
}

func BenchmarkFig2(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		rows, err := s.Fig2(&buf)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 2", &buf)
		var share []float64
		for _, r := range rows {
			share = append(share, r.SharePct)
		}
		b.ReportMetric(stats.Mean(share), "mean-shareable-%")
	}
}

func BenchmarkFig3(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := s.Fig3(&buf); err != nil {
			b.Fatal(err)
		}
		emit("Fig 3", &buf)
	}
}

func BenchmarkFig4(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		rows, err := s.Fig4(&buf)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 4", &buf)
		var lp, lcs []float64
		for _, r := range rows {
			if r.Matcher == "LP" {
				lp = append(lp, r.TransferablePct)
			} else {
				lcs = append(lcs, r.TransferablePct)
			}
		}
		b.ReportMetric(stats.Mean(lp), "LP-transferable-%")
		b.ReportMetric(stats.Mean(lcs), "LCS-transferable-%")
	}
}

func BenchmarkFig5(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		rows, err := s.Fig5(&buf)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 5", &buf)
		// Paper claim: positive rate at d=1 exceeds the largest bucket.
		var d1, dMax []float64
		for _, r := range rows {
			if r.D == 1 {
				d1 = append(d1, r.PositivePct)
			}
			if r.D == s.Cfg.MaxD {
				dMax = append(dMax, r.PositivePct)
			}
		}
		b.ReportMetric(stats.Mean(d1), "positive-%-at-d1")
		b.ReportMetric(stats.Mean(dMax), "positive-%-at-dmax")
	}
}

func BenchmarkFig7(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		_, summaries, err := s.Fig7(&buf)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 7", &buf)
		var adv []float64
		for _, sm := range summaries {
			adv = append(adv, sm.TailMeans["LCS"]-sm.TailMeans["baseline"])
		}
		b.ReportMetric(stats.Mean(adv), "LCS-score-advantage")
	}
}

func BenchmarkFig8(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		_, speedups, err := s.Fig8(&buf)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 8", &buf)
		b.ReportMetric(speedups["LCS"], "LCS-speedup-x")
		b.ReportMetric(speedups["LP"], "LP-speedup-x")
	}
}

func BenchmarkTable3(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		rows, err := s.Table3(&buf)
		if err != nil {
			b.Fatal(err)
		}
		emit("Table III", &buf)
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

func BenchmarkTable4(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		rows, err := s.Table4(&buf)
		if err != nil {
			b.Fatal(err)
		}
		emit("Table IV", &buf)
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

func BenchmarkFig9(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		rows, err := s.Fig9(&buf)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 9", &buf)
		taus := map[string][]float64{}
		for _, r := range rows {
			taus[r.Scheme] = append(taus[r.Scheme], r.Tau)
		}
		b.ReportMetric(stats.Mean(taus["LCS"])-stats.Mean(taus["baseline"]), "LCS-tau-improvement")
	}
}

func BenchmarkFig10(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		rows, err := s.Fig10(&buf)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 10", &buf)
		// Scaling gain 16->32 GPUs for LCS: near 2 for CIFAR, capped for NT3.
		mk := map[string]float64{}
		for _, r := range rows {
			if r.Scheme == "LCS" {
				mk[fmt.Sprintf("%s/%d", r.App, r.GPUs)] = float64(r.Makespan)
			}
		}
		if v, ok := mk["nt3/16"]; ok && mk["nt3/32"] > 0 {
			b.ReportMetric(v/mk["nt3/32"], "nt3-16to32-gain")
		}
		if v, ok := mk["cifar10/16"]; ok && mk["cifar10/32"] > 0 {
			b.ReportMetric(v/mk["cifar10/32"], "cifar10-16to32-gain")
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		rows, err := s.Fig11(&buf)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 11", &buf)
		for _, r := range rows {
			if r.App == "nt3" {
				b.ReportMetric(r.MeanKB, "nt3-ckpt-KB")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core primitives.

func benchShapeSeqs(n int) (core.ShapeSeq, core.ShapeSeq) {
	alphabet := [][]int{{3, 3, 3, 8}, {3, 3, 8, 8}, {8}, {128, 10}, {64, 10}}
	rng := rand.New(rand.NewSource(1))
	mk := func() core.ShapeSeq {
		s := make(core.ShapeSeq, n)
		for i := range s {
			s[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	return mk(), mk()
}

func BenchmarkLPMatch(b *testing.B) {
	a, c := benchShapeSeqs(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LP{}.Match(a, c)
	}
}

func BenchmarkLCSMatch(b *testing.B) {
	a, c := benchShapeSeqs(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(core.LCS{}).Match(a, c)
	}
}

func benchNets(b *testing.B) (*nn.Network, *nn.Network) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	mk := func() *nn.Network {
		net := nn.NewNetwork([]int{64})
		h1 := net.MustAdd(nn.NewDense("d1", 64, 128, 0, rng), nn.GraphInput(0))
		h2 := net.MustAdd(nn.NewDense("d2", 128, 128, 0, rng), h1)
		net.MustAdd(nn.NewDense("d3", 128, 10, 0, rng), h2)
		return net
	}
	return mk(), mk()
}

func BenchmarkTransferLCS(b *testing.B) {
	provider, receiver := benchNets(b)
	src := core.SourcesFromNetwork(provider)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Transfer(core.LCS{}, src, receiver); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointEncodeDecode(b *testing.B) {
	provider, _ := benchNets(b)
	m := checkpoint.FromNetwork([]int{1, 2, 3}, 0.5, provider)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := checkpoint.Decode(&buf); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(buf.Cap()), "ckpt-bytes")
		}
	}
}

func BenchmarkCandidateTrainEpoch(b *testing.B) {
	s := benchSuite()
	app, err := s.App("nt3")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	arch := app.Space.Random(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := app.Space.Build(arch, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nn.Fit(net, app.Space.Loss, app.Space.Metric, nn.NewAdam(),
			app.Dataset.Train, app.Dataset.Val,
			nn.FitConfig{Epochs: 1, BatchSize: app.Space.BatchSize, RNG: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §7).

// BenchmarkAblationLCSBackBias compares the two LCS tie-breaking directions;
// both must find optimal-length alignments, differing only in which layers
// they pick.
func BenchmarkAblationLCSBackBias(b *testing.B) {
	a, c := benchShapeSeqs(32)
	front := core.LCS{}
	back := core.LCS{BackBiased: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := front.Match(a, c)
		k := back.Match(a, c)
		if len(f) != len(k) {
			b.Fatalf("tie-break changed LCS length: %d vs %d", len(f), len(k))
		}
	}
}

// BenchmarkAblationProviderSelection contrasts transferring from the d=1
// parent (the paper's strategy) against a random provider, measuring the
// fraction of transfers that improve the one-epoch score. This is the
// paper's Fig 4 (random) vs Fig 5 d=1 argument as a single number pair.
func BenchmarkAblationProviderSelection(b *testing.B) {
	app, err := benchSuite().App("nt3")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(77))
		positive := map[string]int{}
		total := 12
		for p := 0; p < total; p++ {
			providerArch := app.Space.Random(rng)
			provider, err := app.Space.Build(providerArch, rand.New(rand.NewSource(int64(p))))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := nn.Fit(provider, app.Space.Loss, app.Space.Metric, nn.NewAdam(),
				app.Dataset.Train, app.Dataset.Val,
				nn.FitConfig{Epochs: 1, BatchSize: 32, RNG: rand.New(rand.NewSource(int64(p)))}); err != nil {
				b.Fatal(err)
			}
			src := core.SourcesFromNetwork(provider)
			for _, mode := range []string{"parent", "random"} {
				var recvArch []int
				if mode == "parent" {
					a2, err := app.Space.Mutate(providerArch, rng)
					if err != nil {
						b.Fatal(err)
					}
					recvArch = a2
				} else {
					recvArch = app.Space.Random(rng)
				}
				seed := int64(p*100 + len(mode))
				scratch, err := app.Space.Build(recvArch, rand.New(rand.NewSource(seed)))
				if err != nil {
					b.Fatal(err)
				}
				hs, err := nn.Fit(scratch, app.Space.Loss, app.Space.Metric, nn.NewAdam(),
					app.Dataset.Train, app.Dataset.Val,
					nn.FitConfig{Epochs: 1, BatchSize: 32, RNG: rand.New(rand.NewSource(seed + 1))})
				if err != nil {
					b.Fatal(err)
				}
				warm, err := app.Space.Build(recvArch, rand.New(rand.NewSource(seed)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Transfer(core.LCS{}, src, warm); err != nil {
					b.Fatal(err)
				}
				hw, err := nn.Fit(warm, app.Space.Loss, app.Space.Metric, nn.NewAdam(),
					app.Dataset.Train, app.Dataset.Val,
					nn.FitConfig{Epochs: 1, BatchSize: 32, RNG: rand.New(rand.NewSource(seed + 1))})
				if err != nil {
					b.Fatal(err)
				}
				if hw.FinalScore() > hs.FinalScore() {
					positive[mode]++
				}
			}
		}
		b.ReportMetric(100*float64(positive["parent"])/float64(total), "parent-positive-%")
		b.ReportMetric(100*float64(positive["random"])/float64(total), "random-positive-%")
	}
}

// BenchmarkAblationPopulationSize sweeps the evolution population size, an
// explicit knob of the paper's Section VII-C (N=64, S=32).
func BenchmarkAblationPopulationSize(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		n := n
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.Quick()
				cfg.Apps = []string{"nt3"}
				cfg.Seeds = 1
				cfg.Budget = 32
				cfg.PopN = n
				cfg.PopS = n / 2
				cfg.TrainN = 64
				cfg.ValN = 32
				s := experiments.NewSuite(cfg)
				c, err := s.Campaign("nt3", "LCS")
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(stats.Mean(c.Traces[0].Scores()), "mean-score")
			}
		})
	}
}

// BenchmarkAblationOneShotTau measures the rank quality (Kendall's τ
// against fully trained ground truth) of a weight-sharing supernet
// estimator — the one-shot NAS family the paper contrasts with in Section
// IX, where shared weights are reported to correlate poorly — next to the
// plain train-from-scratch estimate.
func BenchmarkAblationOneShotTau(b *testing.B) {
	app, err := benchSuite().App("nt3")
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	for it := 0; it < b.N; it++ {
		rng := rand.New(rand.NewSource(1234))
		arches := make([][]int, k)
		for i := range arches {
			arches[i] = app.Space.Random(rng)
		}
		train := func(net *nn.Network, epochs int, seed int64, early bool) float64 {
			cfg := nn.FitConfig{Epochs: epochs, BatchSize: app.Space.BatchSize, RNG: rand.New(rand.NewSource(seed))}
			if early {
				cfg.EarlyStopDelta = app.Space.EarlyStopDelta
				cfg.EarlyStopPatience = app.EarlyStopPatience
			}
			h, err := nn.Fit(net, app.Space.Loss, app.Space.Metric, nn.NewAdam(),
				app.Dataset.Train, app.Dataset.Val, cfg)
			if err != nil {
				b.Fatal(err)
			}
			return h.FinalScore()
		}
		build := func(i int) *nn.Network {
			net, err := app.Space.Build(arches[i], rand.New(rand.NewSource(int64(i))))
			if err != nil {
				b.Fatal(err)
			}
			return net
		}

		// One-shot: two passes over the candidates sharing supernet weights.
		super := oneshot.New()
		oneshotEst := make([]float64, k)
		for round := 0; round < 2; round++ {
			for i := range arches {
				net := build(i)
				super.Pull(net)
				oneshotEst[i] = train(net, app.PartialEpochs, int64(100+i), false)
				super.Push(net)
			}
		}
		// Scratch estimate (the paper's baseline estimator).
		scratchEst := make([]float64, k)
		for i := range arches {
			scratchEst[i] = train(build(i), app.PartialEpochs, int64(100+i), false)
		}
		// Ground truth: full training with early stopping.
		truth := make([]float64, k)
		for i := range arches {
			truth[i] = train(build(i), app.FullMaxEpochs, int64(200+i), true)
		}
		tauOne, err := stats.KendallTau(oneshotEst, truth)
		if err != nil {
			b.Fatal(err)
		}
		tauScratch, err := stats.KendallTau(scratchEst, truth)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tauOne, "oneshot-tau")
		b.ReportMetric(tauScratch, "scratch-tau")
		b.ReportMetric(float64(super.Entries()), "supernet-slots")
	}
}

// BenchmarkDistributedTCP runs a miniature search over real net/rpc workers
// (the Figure 6 architecture), measuring end-to-end distributed throughput.
func BenchmarkDistributedTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := cluster.NewCoordinator()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go c.Serve(l) //nolint:errcheck
		done := make(chan error, 2)
		for w := 0; w < 2; w++ {
			worker := &cluster.Worker{ID: fmt.Sprintf("w%d", w)}
			go func() { done <- worker.Run(l.Addr().String()) }()
		}
		tr, err := cluster.RunDistributed(c, cluster.DistConfig{
			App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
			Matcher: "LCS", Budget: 6, Outstanding: 2, Seed: 1, N: 2, S: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tr.Records)), "candidates")
		c.Shutdown()
		<-done
		<-done
		l.Close()
	}
}

// BenchmarkClusterSimulate exercises the discrete-event simulator itself.
func BenchmarkClusterSimulate(b *testing.B) {
	s := benchSuite()
	if _, err := s.Campaign("nt3", "LCS"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig10(nopWriter{}); err != nil {
			b.Fatal(err)
		}
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// ---------------------------------------------------------------------------
// Parallel kernel benchmarks: workers=1 (the serial code path) vs
// workers=NumCPU, on realistically sized batches. Measured on the 2-vCPU
// reference box (DESIGN.md §9.5): the shapes of a millisecond or more on one
// core gain 1.3–1.6× from the second — batch-64 Conv2D, Dense 32×1024×200,
// BatchNorm and MaxPool on 64×16×16×32, MatMul 256×512×256 — and the
// batch-1 Conv2D and the Conv1D shape, 0.3 and 1.8 ms spread over five
// sharded loops, run whole on the caller at any worker count because
// splitting them measured slower. CI runs these with -benchtime 1x as a
// smoke test, once at GOMAXPROCS=2 so the split paths run at all.

// benchWorkerCounts is the sweep every kernel benchmark runs: the serial
// fallback and the full machine.
func benchWorkerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

func benchWithWorkers(b *testing.B, w int, fn func(b *testing.B)) {
	b.Helper()
	b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		b.ResetTimer()
		fn(b)
	})
}

// BenchmarkConv2DParallel trains the CIFAR-sized kernel shape: 16x16x8
// feature maps through a 3x3, 8->16 "same" convolution, forward and
// backward, at batch 64, where all five sharded loops split, and at batch 1,
// where none is large enough to and the two worker counts must read alike.
func BenchmarkConv2DParallel(b *testing.B) {
	for _, batch := range []int{1, 64} {
		rng := rand.New(rand.NewSource(21))
		c := nn.NewConv2D("cv", 3, 3, 8, 16, nn.Same, 0, rng)
		if _, err := c.OutShape([][]int{{16, 16, 8}}); err != nil {
			b.Fatal(err)
		}
		x := tensor.New(batch, 16, 16, 8)
		x.RandNormal(rng, 1)
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for _, w := range benchWorkerCounts() {
				benchWithWorkers(b, w, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						out := c.Forward([]*tensor.Tensor{x}, true)
						c.Backward(out)
					}
				})
			}
		})
	}
}

// BenchmarkConv1DParallel uses the NT3-shaped batch (the paper's
// gene-expression application): batch 32 of length-256 1-channel signals
// through a width-5, 1->20 convolution.
func BenchmarkConv1DParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	c := nn.NewConv1D("cv", 5, 1, 20, nn.Same, 0, rng)
	if _, err := c.OutShape([][]int{{256, 1}}); err != nil {
		b.Fatal(err)
	}
	x := tensor.New(32, 256, 1)
	x.RandNormal(rng, 1)
	for _, w := range benchWorkerCounts() {
		benchWithWorkers(b, w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := c.Forward([]*tensor.Tensor{x}, true)
				c.Backward(out)
			}
		})
	}
}

// BenchmarkDenseParallel runs the wide NT3 head: batch 32 through
// 1024 -> 200 fully connected, forward and backward.
func BenchmarkDenseParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	d := nn.NewDense("d", 1024, 200, 0, rng)
	x := tensor.New(32, 1024)
	x.RandNormal(rng, 1)
	for _, w := range benchWorkerCounts() {
		benchWithWorkers(b, w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := d.Forward([]*tensor.Tensor{x}, true)
				d.Backward(out)
			}
		})
	}
}

// BenchmarkBatchNormParallel measures the sharded batch normalization on a
// CIFAR-block-sized activation, training forward (blocked mean/variance
// reductions) plus backward (fused dGamma/dBeta reduction and the
// element-wise input gradient).
func BenchmarkBatchNormParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	bn := nn.NewBatchNorm("bn", 32)
	if _, err := bn.OutShape([][]int{{16, 16, 32}}); err != nil {
		b.Fatal(err)
	}
	x := tensor.New(64, 16, 16, 32)
	x.RandNormal(rng, 1)
	for _, w := range benchWorkerCounts() {
		benchWithWorkers(b, w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := bn.Forward([]*tensor.Tensor{x}, true)
				bn.Backward(out)
			}
		})
	}
}

// BenchmarkPoolParallel measures the row-sharded max pooling (disjoint 2/2
// windows, so both passes shard over output rows) on the same CIFAR-block
// shape as the batch-norm benchmark.
func BenchmarkPoolParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	p := nn.NewMaxPool2D("mp", 2, 2)
	if _, err := p.OutShape([][]int{{16, 16, 32}}); err != nil {
		b.Fatal(err)
	}
	x := tensor.New(64, 16, 16, 32)
	x.RandNormal(rng, 1)
	for _, w := range benchWorkerCounts() {
		benchWithWorkers(b, w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := p.Forward([]*tensor.Tensor{x}, true)
				p.Backward(out)
			}
		})
	}
}

// BenchmarkMaxPool1DParallel measures the 1-D max pool (the 2-D kernel on a
// height-1 map) at nt3's pool shape: batch 32 of length-250, 16-channel
// sequences through disjoint size-2 windows, forward and backward.
func BenchmarkMaxPool1DParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	p := nn.NewMaxPool1D("mp", 2, 2)
	if _, err := p.OutShape([][]int{{250, 16}}); err != nil {
		b.Fatal(err)
	}
	x := tensor.New(32, 250, 16)
	x.RandNormal(rng, 1)
	for _, w := range benchWorkerCounts() {
		benchWithWorkers(b, w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := p.Forward([]*tensor.Tensor{x}, true)
				p.Backward(out)
			}
		})
	}
}

// BenchmarkMatmulParallel measures the raw tensor primitive the dense path
// is built on: [256, 512] x [512, 256].
func BenchmarkMatmulParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	x, w := tensor.New(256, 512), tensor.New(512, 256)
	x.RandNormal(rng, 1)
	w.RandNormal(rng, 1)
	dst := tensor.New(256, 256)
	for _, wk := range benchWorkerCounts() {
		benchWithWorkers(b, wk, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := tensor.MatMulInto(dst, x, w, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Guard: the synthetic datasets stay deterministic across bench runs.

func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range data.Names() {
			if _, err := data.ByName(name, 1, data.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
