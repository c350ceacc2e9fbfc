package nas

import "swtnas/internal/obs"

// Lookahead telemetry (DESIGN.md §8): tasks started while an earlier
// candidate was uncommitted, and drafts held on an uncommitted candidate
// (every draft with one pending, for a strategy that does not draft).
var (
	mAhead  = obs.GetCounter("nas.lookahead.ahead")
	mWaited = obs.GetCounter("nas.lookahead.waited")
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
