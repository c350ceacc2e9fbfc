package nn_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"swtnas/internal/apps"
	"swtnas/internal/data"
	"swtnas/internal/nn"
	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// appStep returns the steady-state training step of one random candidate of
// the named application at the given batch size and dtype: the buffers are
// sized and the optimizer state exists before it is handed out.
func appStep(tb testing.TB, name string, dt tensor.DType, batch int) func() {
	tb.Helper()
	app, err := apps.New(name, 1, apps.Config{Data: data.Config{TrainN: 64, ValN: 8}})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	net, err := app.Space.Build(app.Space.Random(rng), rng)
	if err != nil {
		tb.Fatal(err)
	}
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i
	}
	var step func() error
	if dt == tensor.F32 {
		net32, err := nn.ConvertNetwork[float32](net)
		if err != nil {
			tb.Fatal(err)
		}
		loss32, err := nn.ConvertLoss[float32](app.Space.Loss)
		if err != nil {
			tb.Fatal(err)
		}
		train32, _ := app.Dataset.F32()
		s := nn.NewTrainStep(net32, loss32, nn.NewAdamOf[float32]())
		step = func() error { _, err := s(train32, idx); return err }
	} else {
		s := nn.NewTrainStep(net, app.Space.Loss, nn.NewAdam())
		step = func() error { _, err := s(app.Dataset.Train, idx); return err }
	}
	run := func() {
		if err := step(); err != nil {
			tb.Fatal(err)
		}
	}
	run()
	run()
	return run
}

var (
	stepApps   = []string{"cifar10", "mnist", "nt3", "uno"}
	stepDTypes = []tensor.DType{tensor.F64, tensor.F32}
)

// TestFitStepAllocs is the allocation gate of the step buffers: a
// steady-state training step of one candidate per app × dtype allocates at
// most 16 KiB (it was 1–2.7 MB when every layer returned fresh tensors) and
// the same number of objects at batch 8 as at batch 64 — nothing it
// allocates scales with the batch. What is left is small and fixed per call:
// the closures handed to parallel.For and to the GEMM shards, which escape
// to the pool, and a loss's shard partials. The pool is pinned to one worker
// because a call that splits adds a few objects per shard, and whether one
// splits does depend on its size.
func TestFitStepAllocs(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const steps = 10
	measure := func(step func()) (bytes, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / steps, (after.Mallocs - before.Mallocs) / steps
	}
	for _, name := range stepApps {
		for _, dt := range stepDTypes {
			b8, m8 := measure(appStep(t, name, dt, 8))
			b64, m64 := measure(appStep(t, name, dt, 64))
			t.Logf("%s/%s: %d B and %d mallocs per step at batch 8, %d B and %d at batch 64", name, dt, b8, m8, b64, m64)
			if b8 > 16<<10 || b64 > 16<<10 {
				t.Errorf("%s/%s: a step allocates %d B at batch 8 and %d B at batch 64, want at most 16 KiB", name, dt, b8, b64)
			}
			if m8 != m64 {
				t.Errorf("%s/%s: %d mallocs per step at batch 8 but %d at batch 64: something allocated scales with the batch", name, dt, m8, m64)
			}
		}
	}
}

// BenchmarkFitStep times (and with -benchmem sizes) the same step at the
// batch size the application trains at.
func BenchmarkFitStep(b *testing.B) {
	for _, name := range stepApps {
		for _, dt := range stepDTypes {
			b.Run(fmt.Sprintf("app=%s/dtype=%s", name, dt), func(b *testing.B) {
				batch := 64
				if name == "nt3" || name == "uno" {
					batch = 32
				}
				step := appStep(b, name, dt, batch)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}
