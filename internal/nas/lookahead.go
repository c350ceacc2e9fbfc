package nas

import (
	"math/rand"

	"swtnas/internal/obs"
)

// Lookahead telemetry (DESIGN.md §8): candidates issued while an earlier one
// was still running, proposals held on a sampled candidate not yet
// committed, and tasks withdrawn because a pending candidate failed.
var (
	mAhead   = obs.GetCounter("nas.lookahead.ahead")
	mWaited  = obs.GetCounter("nas.lookahead.waited")
	mRewound = obs.GetCounter("nas.lookahead.rewound")
)

// lookaheadState bounds the memory running ahead may hold: a candidate
// starts beside others only while the trainable state in flight — weights,
// gradients and Adam's two moments, four values a parameter at the search's
// dtype — stays within it. Each candidate is counted before it is built, a
// mutation at its parent's size (they differ in one node), a random
// proposal at the mean of the candidates committed so far. The first
// candidate in flight always runs. 4 MiB lets small candidates train side
// by side (a 77,746-parameter cifar10/f32 one holds 1.2 MB), and keeps a
// 260,000-parameter nt3/f64 child (8.3 MB) alone with the kernel workers,
// which its wide dense layers can use.
const lookaheadState = 4 << 20

// countingSource is rand.NewSource(seed) counting its draws, so that the
// search RNG can be rewound to the state it had before any earlier draw:
// a withdrawn proposal's draws are taken again, from the same state.
type countingSource struct {
	seed  int64
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.seed, s.draws = seed, 0
	s.src.Seed(seed)
}

// rewind returns the source to its state after n draws: rebuilt from the
// seed and skipped forward (each Int63 or Uint64 is one step of the
// underlying generator).
func (s *countingSource) rewind(n uint64) {
	s.Seed(s.seed)
	for s.draws < n {
		s.Uint64()
	}
}
