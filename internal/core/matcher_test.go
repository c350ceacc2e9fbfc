package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"swtnas/internal/tensor"
)

// shapeAlphabet is a small set of layer signatures for property tests.
var shapeAlphabet = [][]int{
	{3, 3, 3, 8},
	{3, 3, 8, 8},
	{8},
	{128, 10},
	{64, 10},
	{5, 1, 4},
}

func seqFromLetters(letters []uint8) ShapeSeq {
	seq := make(ShapeSeq, len(letters))
	for i, l := range letters {
		seq[i] = shapeAlphabet[int(l)%len(shapeAlphabet)]
	}
	return seq
}

func TestShapeSeqString(t *testing.T) {
	seq := ShapeSeq{{3, 3, 3, 8}, {128, 10}}
	want := "[(3, 3, 3, 8), (128, 10)]"
	if got := seq.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestLPBasics(t *testing.T) {
	a := ShapeSeq{{1}, {2}, {3}}
	b := ShapeSeq{{1}, {2}, {4}}
	pairs := LP{}.Match(a, b)
	if len(pairs) != 2 {
		t.Fatalf("LP matched %d pairs, want 2", len(pairs))
	}
	for i, p := range pairs {
		if p.Provider != i || p.Receiver != i {
			t.Fatalf("pair %d = %+v", i, p)
		}
	}
	if got := (LP{}).Match(ShapeSeq{{9}}, b); got != nil {
		t.Fatalf("mismatched first element must produce empty LP, got %v", got)
	}
	if got := (LP{}).Match(nil, b); got != nil {
		t.Fatalf("empty provider must produce empty LP, got %v", got)
	}
}

func TestLCSHandlesInsertion(t *testing.T) {
	// Paper Figure 3: the receiver has an extra convolutional layer; LP
	// cannot transfer the final dense layer, LCS can.
	provider := ShapeSeq{{3, 3, 3, 8}, {128, 10}}
	receiver := ShapeSeq{{3, 3, 3, 8}, {3, 3, 8, 8}, {128, 10}}
	lp := LP{}.Match(provider, receiver)
	if len(lp) != 1 {
		t.Fatalf("LP matched %d, want 1", len(lp))
	}
	lcs := LCS{}.Match(provider, receiver)
	if len(lcs) != 2 {
		t.Fatalf("LCS matched %d, want 2", len(lcs))
	}
	if lcs[0].Provider != 0 || lcs[0].Receiver != 0 || lcs[1].Provider != 1 || lcs[1].Receiver != 2 {
		t.Fatalf("LCS pairs = %v", lcs)
	}
}

// TestLCSTieBreak pins which of several longest alignments LCS returns:
// walking forward, it takes a pair whenever one lies on a longest alignment
// and otherwise skips the provider tensor before the receiver tensor. Each
// row's pairs are worked by hand.
func TestLCSTieBreak(t *testing.T) {
	a, b := []int{1}, []int{2}
	for _, tc := range []struct {
		provider, receiver ShapeSeq
		want               []MatchPair
	}{
		{ShapeSeq{a, a}, ShapeSeq{a}, []MatchPair{{0, 0}}},
		{ShapeSeq{a, b, a}, ShapeSeq{a}, []MatchPair{{0, 0}}},
		{ShapeSeq{a}, ShapeSeq{a, a}, []MatchPair{{0, 0}}},
		{ShapeSeq{a, b}, ShapeSeq{b, a}, []MatchPair{{1, 0}}},
		{ShapeSeq{a, b, a}, ShapeSeq{b, a, b}, []MatchPair{{1, 0}, {2, 1}}},
	} {
		if got := (LCS{}).Match(tc.provider, tc.receiver); !slices.Equal(got, tc.want) {
			t.Errorf("LCS(%v, %v) = %v, want %v", tc.provider, tc.receiver, got, tc.want)
		}
	}
}

func TestLCSEmptySequences(t *testing.T) {
	if got := (LCS{}).Match(nil, ShapeSeq{{1}}); got != nil {
		t.Fatalf("empty provider: %v", got)
	}
	if got := (LCS{}).Match(ShapeSeq{{1}}, nil); got != nil {
		t.Fatalf("empty receiver: %v", got)
	}
}

// lcsRefLen is a reference O(nm) LCS length used to validate Match.
func lcsRefLen(a, b ShapeSeq) int {
	dp := make([][]int, len(a)+1)
	for i := range dp {
		dp[i] = make([]int, len(b)+1)
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if tensor.SameShape(a[i-1], b[j-1]) {
				dp[i][j] = dp[i-1][j-1] + 1
			} else if dp[i-1][j] > dp[i][j-1] {
				dp[i][j] = dp[i-1][j]
			} else {
				dp[i][j] = dp[i][j-1]
			}
		}
	}
	return dp[len(a)][len(b)]
}

func validPairs(t *testing.T, name string, a, b ShapeSeq, pairs []MatchPair) {
	t.Helper()
	prevP, prevR := -1, -1
	for _, p := range pairs {
		if p.Provider <= prevP || p.Receiver <= prevR {
			t.Fatalf("%s: non-monotonic pairs %v", name, pairs)
		}
		if !tensor.SameShape(a[p.Provider], b[p.Receiver]) {
			t.Fatalf("%s: pair %+v aligns different shapes", name, p)
		}
		prevP, prevR = p.Provider, p.Receiver
	}
}

// TestQuickMatcherProperties checks, over random sequences:
//  1. both matchers return monotonic pairs of identical shapes;
//  2. LCS length equals the reference DP length (optimality);
//  3. LP is a subset relation: |LCS| >= |LP| (paper Section IV-A).
func TestQuickMatcherProperties(t *testing.T) {
	f := func(x, y []uint8) bool {
		if len(x) > 12 {
			x = x[:12]
		}
		if len(y) > 12 {
			y = y[:12]
		}
		a, b := seqFromLetters(x), seqFromLetters(y)
		lp := LP{}.Match(a, b)
		lcs := LCS{}.Match(a, b)
		validPairs(t, "LP", a, b, lp)
		validPairs(t, "LCS", a, b, lcs)
		return len(lcs) == lcsRefLen(a, b) && len(lcs) >= len(lp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLPIsPrefixOfIdenticalSequences: matching a sequence against itself
// must align everything, for both matchers.
func TestSelfMatchIsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	letters := make([]uint8, 10)
	for i := range letters {
		letters[i] = uint8(rng.Intn(255))
	}
	seq := seqFromLetters(letters)
	if got := len((LP{}).Match(seq, seq)); got != len(seq) {
		t.Fatalf("LP self-match = %d, want %d", got, len(seq))
	}
	if got := len((LCS{}).Match(seq, seq)); got != len(seq) {
		t.Fatalf("LCS self-match = %d, want %d", got, len(seq))
	}
}

func TestSharesAnyShape(t *testing.T) {
	a := ShapeSeq{{1, 2}, {3}}
	b := ShapeSeq{{4}, {3}}
	if !SharesAnyShape(a, b) {
		t.Fatal("sequences share (3)")
	}
	c := ShapeSeq{{9, 9}}
	if SharesAnyShape(a, c) {
		t.Fatal("no shared shape expected")
	}
	if SharesAnyShape(nil, a) {
		t.Fatal("empty sequence shares nothing")
	}
}

func TestMatcherByName(t *testing.T) {
	if m, ok := MatcherByName("lp"); !ok || m.Name() != "LP" {
		t.Fatalf("lp -> %v %v", m, ok)
	}
	if m, ok := MatcherByName("LCS"); !ok || m.Name() != "LCS" {
		t.Fatalf("LCS -> %v %v", m, ok)
	}
	if m, ok := MatcherByName("baseline"); !ok || m != nil {
		t.Fatalf("baseline -> %v %v", m, ok)
	}
	if _, ok := MatcherByName("huh"); ok {
		t.Fatal("unknown matcher must not resolve")
	}
}
