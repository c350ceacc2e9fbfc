// Package proxy scores NAS candidates without training them and uses those
// scores to pre-filter search proposals — the "do less work per candidate"
// step past selective weight transfer. Three layers build on each other:
//
// Zero-cost scorers (GradNorm, JacobCov) rank an
// architecture at initialization from one or two minibatches through the
// existing internal/nn forward/backward path, in the spirit of NASI
// (arXiv:2109.00817) and the training-free NAS literature.
//
// An online surrogate (Surrogate) — ridge regression over architecture
// features plus the zero-cost scores — is refit from the live search trace
// and predicts the trained score of a proposal before any epoch is spent.
//
// A Prefilter wraps any evo.Strategy: proposals are drawn in batches,
// scored (by the surrogate once it is fitted, by gradient norm before
// that), and only the top fraction is admitted to real training; the rest
// are rejected with a filtered-candidate record. Because the filter is a
// deterministic function of the search seed and the strategy's
// propose/report interleaving, journal replay reproduces its decisions bit
// for bit on crash resume.
package proxy

import (
	"swtnas/internal/obs"
)

// Pre-filter telemetry (internal/obs, disabled by default): per-proposal
// zero-cost scoring latency, the drawn/admitted/filtered proposal split,
// surrogate refits and the surrogate's absolute prediction error observed
// when an admitted candidate's real score arrives.
var (
	mScoreSeconds   = obs.GetHistogram("proxy.score.seconds", obs.DurationBuckets)
	mProposals      = obs.GetCounter("proxy.proposals")
	mFiltered       = obs.GetCounter("proxy.filtered")
	mAdmitted       = obs.GetCounter("proxy.admitted")
	mSurrogateRefit = obs.GetCounter("surrogate.refits")
	mSurrogateMAE   = obs.GetHistogram("surrogate.mae", obs.ScoreErrorBuckets)
)
