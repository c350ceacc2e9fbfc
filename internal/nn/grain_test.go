package nn

import (
	"testing"
	_ "unsafe" // for go:linkname

	"swtnas/internal/obs"
)

// parallelGrain is internal/parallel's grain. The pool has no setter for it
// — production code cannot change which calls split — so a test of another
// package reaches it by name.
//
//go:linkname parallelGrain swtnas/internal/parallel.grain
var parallelGrain int

// splitEverything lowers the grain to one cost unit for the rest of the
// test, so that every sharded loop over two or more items splits at two or
// more workers. At the production grain the shapes a test can afford run
// inline, and a serial≡parallel comparison would compare the serial path
// with itself.
func splitEverything(t testing.TB) {
	prev := parallelGrain
	parallelGrain = 1
	t.Cleanup(func() { parallelGrain = prev })
}

// splitCalls runs f and returns how many of its parallel.For* calls ran as
// more than one shard and how many were kept whole on the caller — what a
// test asserts on to prove its parallel leg was one.
func splitCalls(f func()) (split, kept int64) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	calls, inline := obs.GetCounter("parallel.for.calls"), obs.GetCounter("parallel.for.inline")
	split, kept = calls.Value(), inline.Value()
	f()
	return calls.Value() - split, inline.Value() - kept
}

// allSplit runs f and fails the test unless every sharded loop f reached ran
// as more than one shard: what f computed is then the parallel kernels'
// result and not the serial fallback's.
func allSplit(t *testing.T, f func()) {
	t.Helper()
	if split, kept := splitCalls(f); split == 0 || kept != 0 {
		t.Fatalf("%d sharded loops split and %d ran whole: the parallel kernels did not all run", split, kept)
	}
}
