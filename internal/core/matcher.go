// Package core implements the paper's primary contribution: selective
// weight transfer between NAS candidate models (Section IV).
//
// A candidate's parameter layers form a *shape sequence* — the ordered list
// of primary weight-tensor shapes. Two string-matching heuristics align the
// provider's and the receiver's shape sequences:
//
//   - LP (longest prefix): match layers from the front while shapes are
//     identical. O(min(n,m)); transfers only the shared beginning, the part
//     of a network the transfer-learning literature considers most shareable.
//   - LCS (longest common subsequence): dynamic programming over the two
//     sequences. O(n·m); tolerates layer insertions/deletions, so it always
//     transfers at least as many layers as LP.
//
// Matched layers are then copied tensor-by-tensor by the transfer engine in
// transfer.go.
package core

import (
	"strings"

	"swtnas/internal/tensor"
)

// ShapeSeq is the ordered list of layer signatures (primary weight shapes)
// of a candidate model — the paper's "shape sequence".
type ShapeSeq [][]int

// String renders the sequence in the paper's notation,
// e.g. "[(3, 3, 3, 8), (128, 10)]".
func (s ShapeSeq) String() string {
	parts := make([]string, len(s))
	for i, sh := range s {
		parts[i] = tensor.ShapeString(sh)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// MatchPair aligns element Provider of the provider's shape sequence with
// element Receiver of the receiver's.
type MatchPair struct {
	Provider, Receiver int
}

// Matcher aligns two shape sequences. Implementations must return pairs
// strictly increasing in both coordinates, each pair having identical shapes.
type Matcher interface {
	// Name identifies the matcher ("LP", "LCS") in reports and traces.
	Name() string
	// Match aligns provider and receiver shape sequences.
	Match(provider, receiver ShapeSeq) []MatchPair
}

// LP is the longest-prefix matcher (paper Section IV-A).
type LP struct{}

// Name returns "LP".
func (LP) Name() string { return "LP" }

// Match pairs the longest common prefix of identical shapes.
func (LP) Match(provider, receiver ShapeSeq) []MatchPair {
	n := len(provider)
	if len(receiver) < n {
		n = len(receiver)
	}
	var pairs []MatchPair
	for i := 0; i < n; i++ {
		if !tensor.SameShape(provider[i], receiver[i]) {
			break
		}
		pairs = append(pairs, MatchPair{Provider: i, Receiver: i})
	}
	return pairs
}

// LCS is the longest-common-subsequence matcher (paper Section IV-A),
// implemented with the Wagner–Fischer dynamic program.
type LCS struct{}

// Name returns "LCS".
func (LCS) Name() string { return "LCS" }

// Match computes one maximum-length common subsequence of identical shapes.
// Several alignments can realize that length; the backtrack walks forward
// from the first tensors, takes a pair whenever it lies on a longest
// alignment, and otherwise skips the provider tensor before the receiver
// tensor (DESIGN.md §7).
func (LCS) Match(provider, receiver ShapeSeq) []MatchPair {
	n, k := len(provider), len(receiver)
	if n == 0 || k == 0 {
		return nil
	}
	// dp[i][j] = LCS length of provider[i:] and receiver[j:] so the
	// backtrack can walk forward and prefer early matches.
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, k+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := k - 1; j >= 0; j-- {
			if tensor.SameShape(provider[i], receiver[j]) {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	var pairs []MatchPair
	i, j := 0, 0
	for i < n && j < k {
		switch {
		case tensor.SameShape(provider[i], receiver[j]) && dp[i][j] == dp[i+1][j+1]+1:
			pairs = append(pairs, MatchPair{Provider: i, Receiver: j})
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return pairs
}

// MatcherByName resolves "LP"/"LCS" (case-insensitive) to a matcher, or nil
// for the training-from-scratch baseline names ("", "baseline", "scratch").
func MatcherByName(name string) (Matcher, bool) {
	switch strings.ToLower(name) {
	case "lp":
		return LP{}, true
	case "lcs":
		return LCS{}, true
	case "", "baseline", "scratch":
		return nil, true
	}
	return nil, false
}
