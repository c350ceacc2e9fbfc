package tensor

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
// test, so that every kernel call over two or more rows splits at two or
// more workers. At the production grain the shapes a test can afford run
// inline, and a serial≡parallel comparison would compare the serial path
// with itself.
func splitEverything(t testing.TB) {
	prev := parallelGrain
	parallelGrain = 1
	t.Cleanup(func() { parallelGrain = prev })
}

// splitCalls runs f and returns how many of its parallel.For* calls ran as
// more than one shard — what a test asserts on to prove its parallel leg was
// one.
func splitCalls(f func()) int64 {
	defer obs.SetEnabled(obs.SetEnabled(true))
	calls := obs.GetCounter("parallel.for.calls")
	before := calls.Value()
	f()
	return calls.Value() - before
}
