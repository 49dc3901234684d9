package experiments

import (
	"runtime"

	"oasis/internal/par"
)

// parRun evaluates fn(0..n-1) — each call building and running a private
// simulation — on up to GOMAXPROCS workers and returns the results in index
// order. Report assembly happens serially afterwards, so the output is
// byte-identical at any thread count.
//
// Parallelism is only ever BETWEEN engines, never inside one: a single
// engine's event loop is cooperative and single-threaded by design (see
// DESIGN.md), which is exactly what makes fanning whole runs out safe.
func parRun[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	par.Do(runtime.GOMAXPROCS(0), n, func(i int) { out[i] = fn(i) })
	return out
}
