// Package data generates the synthetic stand-ins for the four datasets of
// the paper's evaluation (CIFAR-10, MNIST, NT3, Uno). Real datasets are not
// available offline and would be too expensive to train on a CPU-only
// substrate, so each generator preserves the property of its original that
// the paper's conclusions rest on:
//
//   - CIFAR-like: hard multi-class image task — reachable accuracy well
//     below 1, so candidate ranking is meaningful.
//   - MNIST-like: easy image task — near-ceiling accuracy, so all schemes
//     look alike (paper Figs 7-9 use MNIST as the "no effect" control).
//   - NT3-like: very few observations with comparatively wide 1-D inputs —
//     high score variance and tiny per-epoch training time.
//   - Uno-like: multi-input regression from a noisy nonlinear teacher —
//     bounded reachable R².
//
// All generators are deterministic in their seed.
package data

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"swtnas/internal/nn"
	"swtnas/internal/tensor"
)

// Dataset bundles a train/validation split with the metadata NAS needs.
type Dataset struct {
	// Name identifies the application ("cifar10", "mnist", "nt3", "uno").
	Name string
	// Train and Val are the two splits.
	Train, Val *nn.Data
	// InputShapes lists the per-sample shape of each network input.
	InputShapes [][]int
	// NumClasses is the class count for classification tasks, 0 for
	// regression.
	NumClasses int

	f32Once          sync.Once
	f32Train, f32Val *nn.DataOf[float32]
}

// F32 returns the float32 copy of both splits, converted on first use and
// shared by every candidate trained on this dataset, so the conversion never
// sits on a per-candidate path. Targets stay float64 and are shared with the
// float64 splits.
func (d *Dataset) F32() (train, val *nn.DataOf[float32]) {
	d.f32Once.Do(func() {
		d.f32Train = nn.ConvertData[float32](d.Train)
		d.f32Val = nn.ConvertData[float32](d.Val)
	})
	return d.f32Train, d.f32Val
}

// Config scales the generated dataset sizes. The zero value selects the
// defaults used throughout the experiments.
type Config struct {
	// TrainN / ValN override the split sizes when positive.
	TrainN, ValN int
}

func (c Config) sizes(defTrain, defVal int) (int, int) {
	tr, va := defTrain, defVal
	if c.TrainN > 0 {
		tr = c.TrainN
	}
	if c.ValN > 0 {
		va = c.ValN
	}
	return tr, va
}

// prototypeImage fills a smooth low-frequency pattern, the class template
// for image-like tasks: a sum of a few random 2-D sinusoids, unit-normalized.
func prototypeImage(rng *rand.Rand, h, w, c int) []float64 {
	p := make([]float64, h*w*c)
	const waves = 4
	type wave struct{ fy, fx, phase, amp float64 }
	for ch := 0; ch < c; ch++ {
		ws := make([]wave, waves)
		for i := range ws {
			ws[i] = wave{
				fy:    (float64(rng.Float64())*2 + 0.5) * math.Pi / float64(h),
				fx:    (float64(rng.Float64())*2 + 0.5) * math.Pi / float64(w),
				phase: float64(rng.Float64()) * 2 * math.Pi,
				amp:   rng.NormFloat64(),
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := 0.0
				for _, wv := range ws {
					v += float64(wv.amp * math.Sin(float64(wv.fy*float64(y)*float64(h)/2)+float64(wv.fx*float64(x)*float64(w)/2)+wv.phase))
				}
				p[(y*w+x)*c+ch] = v
			}
		}
	}
	// Normalize to unit RMS so the noise scale is comparable across classes.
	rms := 0.0
	for _, v := range p {
		rms += float64(v * v)
	}
	rms = math.Sqrt(rms / float64(len(p)))
	if rms > 0 {
		for i := range p {
			p[i] /= rms
		}
	}
	return p
}

// imageClassification synthesizes an image task. classSep in (0,1] is the
// fraction of prototype energy that is class-specific: 1 gives fully
// distinct class templates (easy, MNIST-like); small values make all classes
// share a common base pattern and differ only in a low-energy component, so
// the Bayes accuracy is bounded away from 1 (hard, CIFAR-like).
func imageClassification(name string, rng *rand.Rand, nTrain, nVal, h, w, c, classes int, noise, classSep float64) *Dataset {
	common := prototypeImage(rng, h, w, c)
	protos := make([][]float64, classes)
	base := math.Sqrt(1 - float64(classSep*classSep))
	for k := range protos {
		own := prototypeImage(rng, h, w, c)
		p := make([]float64, len(common))
		for i := range p {
			p[i] = float64(base*common[i]) + float64(classSep*own[i])
		}
		protos[k] = p
	}
	gen := func(n int) *nn.Data {
		x := tensor.New(n, h, w, c)
		targets := make([]float64, n)
		sample := h * w * c
		for i := 0; i < n; i++ {
			k := i % classes
			targets[i] = float64(k)
			row := x.Data[i*sample : (i+1)*sample]
			for j := range row {
				row[j] = protos[k][j] + float64(rng.NormFloat64()*noise)
			}
		}
		return &nn.Data{Inputs: []*tensor.Tensor{x}, Targets: targets}
	}
	return &Dataset{
		Name:        name,
		Train:       gen(nTrain),
		Val:         gen(nVal),
		InputShapes: [][]int{{h, w, c}},
		NumClasses:  classes,
	}
}

// CIFAR10Like generates the hard image-classification stand-in:
// 8×8×3 inputs, 10 classes, heavy noise. Defaults: 512 train / 128 val.
func CIFAR10Like(seed int64, cfg Config) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	tr, va := cfg.sizes(512, 128)
	return imageClassification("cifar10", rng, tr, va, 8, 8, 3, 10, 1.0, 0.3)
}

// MNISTLike generates the easy image-classification stand-in:
// 10×10×1 inputs, 10 classes, light noise. Defaults: 512 train / 128 val.
func MNISTLike(seed int64, cfg Config) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	tr, va := cfg.sizes(512, 128)
	return imageClassification("mnist", rng, tr, va, 10, 10, 1, 10, 0.35, 1)
}

// NT3Like generates the gene-expression stand-in: 1-D signals of length 256
// with a single channel, 2 classes (normal vs tumor), and — deliberately —
// very few observations (paper: 1120 train / 280 val on 60483-wide
// profiles). Samples are noisy class expression profiles; heavy noise keeps
// one-epoch estimates fluctuating while full training converges high.
// Defaults: 160 train / 48 val.
func NT3Like(seed int64, cfg Config) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	tr, va := cfg.sizes(160, 48)
	const (
		length = 256
		// nt3Noise is tuned so one partial-training epoch leaves the
		// accuracy mid-range and noisy (the paper's NT3 fluctuates most)
		// while full training converges high.
		nt3Noise = 3.0
	)
	// Two class expression profiles: smooth prototypes with distinct
	// frequency content, mimicking systematic normal-vs-tumor expression
	// differences across the (downsampled) gene panel.
	protos := [2][]float64{}
	for k := 0; k < 2; k++ {
		p := make([]float64, length)
		for w := 0; w < 4; w++ {
			freq := (float64(rng.Float64()*3) + 1) * 2 * math.Pi / length
			phase := float64(float64(rng.Float64()) * 2 * math.Pi)
			amp := rng.NormFloat64()
			for i := range p {
				p[i] += float64(amp * math.Sin(float64(freq*float64(i)*8)+phase))
			}
		}
		rms := 0.0
		for _, v := range p {
			rms += float64(v * v)
		}
		rms = math.Sqrt(rms / float64(length))
		for i := range p {
			p[i] /= rms
		}
		protos[k] = p
	}
	gen := func(n int) *nn.Data {
		x := tensor.New(n, length, 1)
		targets := make([]float64, n)
		for i := 0; i < n; i++ {
			k := i % 2
			targets[i] = float64(k)
			row := x.Data[i*length : (i+1)*length]
			for j := range row {
				row[j] = protos[k][j] + float64(rng.NormFloat64()*nt3Noise)
			}
		}
		return &nn.Data{Inputs: []*tensor.Tensor{x}, Targets: targets}
	}
	return &Dataset{
		Name:        "nt3",
		Train:       gen(tr),
		Val:         gen(va),
		InputShapes: [][]int{{length, 1}},
		NumClasses:  2,
	}
}

// unoDims are the four input widths of the Uno-like task, scaled from the
// paper's 1 / 942 / 5270 / 2048 feature groups.
var unoDims = []int{1, 48, 96, 64}

// UnoLike generates the multi-source drug-response regression stand-in:
// four input groups feeding a nonlinear random teacher, plus observation
// noise that bounds the reachable R². Defaults: 384 train / 96 val.
func UnoLike(seed int64, cfg Config) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	tr, va := cfg.sizes(512, 128)
	total := 0
	for _, d := range unoDims {
		total += d
	}
	// Random two-layer teacher: y = v·tanh(W x). The teacher reads only a
	// sparse subset of the features (as real dose-response signal
	// concentrates in a few descriptors), keeping the target learnable
	// from a few hundred observations.
	const hidden = 4
	const activeInputs = 12
	w := make([]float64, hidden*total)
	for h := 0; h < hidden; h++ {
		for k := 0; k < activeInputs; k++ {
			j := rng.Intn(total)
			w[h*total+j] = rng.NormFloat64() / math.Sqrt(activeInputs)
		}
	}
	v := make([]float64, hidden)
	for i := range v {
		v[i] = rng.NormFloat64() / math.Sqrt(hidden)
	}
	teacher := func(x []float64) float64 {
		y := 0.0
		for hI := 0; hI < hidden; hI++ {
			s := 0.0
			for j, xv := range x {
				s += float64(w[hI*total+j] * xv)
			}
			y += float64(v[hI] * math.Tanh(s))
		}
		return y
	}
	gen := func(n int) *nn.Data {
		ins := make([]*tensor.Tensor, len(unoDims))
		for k, d := range unoDims {
			ins[k] = tensor.New(n, d)
		}
		targets := make([]float64, n)
		buf := make([]float64, total)
		for i := 0; i < n; i++ {
			off := 0
			for k, d := range unoDims {
				row := ins[k].Data[i*d : (i+1)*d]
				for j := range row {
					row[j] = rng.NormFloat64()
					buf[off+j] = row[j]
				}
				off += d
			}
			targets[i] = teacher(buf) + float64(rng.NormFloat64()*0.10)
		}
		// Standardize targets so MAE magnitudes are comparable across seeds.
		mean, std := meanStd(targets)
		if std > 0 {
			for i := range targets {
				targets[i] = (targets[i] - mean) / std
			}
		}
		return &nn.Data{Inputs: ins, Targets: targets}
	}
	shapes := make([][]int, len(unoDims))
	for k, d := range unoDims {
		shapes[k] = []int{d}
	}
	return &Dataset{
		Name:        "uno",
		Train:       gen(tr),
		Val:         gen(va),
		InputShapes: shapes,
		NumClasses:  0,
	}
}

func meanStd(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		d := x - m
		v += float64(d * d)
	}
	return m, math.Sqrt(v / float64(len(xs)))
}

// ByName builds the dataset for an application name.
func ByName(name string, seed int64, cfg Config) (*Dataset, error) {
	switch name {
	case "cifar10":
		return CIFAR10Like(seed, cfg), nil
	case "mnist":
		return MNISTLike(seed, cfg), nil
	case "nt3":
		return NT3Like(seed, cfg), nil
	case "uno":
		return UnoLike(seed, cfg), nil
	}
	return nil, fmt.Errorf("data: unknown dataset %q", name)
}

// Names lists the supported application datasets in the paper's order.
func Names() []string { return []string{"cifar10", "mnist", "nt3", "uno"} }
