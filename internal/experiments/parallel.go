package experiments

import (
	"oasis/internal/par"
)

// Parallelism within one experiment. Independent simulation runs (each
// owning a private engine) fan out across this many OS threads; report
// assembly always happens serially in a fixed order afterwards, so the
// output is byte-identical for any setting. Default 1 (serial).
//
// Parallelism is only ever BETWEEN engines, never inside one: a single
// engine's event loop is cooperative and single-threaded by design (see
// DESIGN.md), which is exactly what makes fanning whole runs out safe.
var parallelism = 1

// SetParallelism sets how many runs may execute concurrently inside one
// experiment. n < 1 resets to serial. Not safe to call while experiments
// are running.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism = n
}

// Parallelism returns the current intra-experiment worker count.
func Parallelism() int { return parallelism }

// parRun evaluates fn(0..n-1) — each call building and running a private
// simulation — on up to Parallelism() workers and returns the results in
// index order.
func parRun[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	par.Do(parallelism, n, func(i int) { out[i] = fn(i) })
	return out
}

// Exec is the execution shape of the experiments whose simulation can be cut
// into partitions (see Partitionable): how the one fixed system is run, never
// what is modeled. A report keeps its id and title under every shape.
type Exec int

const (
	Serial Exec = iota // everything on one partition: the plain event loop
	PerPod             // a partition per pod, advancing in parallel
)

var execNames = [...]string{"serial", "perpod"}

func (x Exec) String() string { return execNames[x] }

// ParseExec is the inverse of Exec.String.
func ParseExec(s string) (Exec, bool) {
	for x, name := range execNames {
		if s == name {
			return Exec(x), true
		}
	}
	return Serial, false
}

// exec is the shape the partitionable runners build. Default Serial.
var exec = Serial

// SetExec selects the execution shape, as SetParallelism selects the worker
// count. Not safe to call while experiments are running.
func SetExec(x Exec) { exec = x }

// Partitionable reports whether experiment id has a simulation SetExec can
// cut: a cluster of pods. A pod shares its pool's memory among all its nodes,
// so it is one partition.
func Partitionable(id string) bool { return id == "racksweep" }
