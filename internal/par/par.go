// Package par provides a tiny deterministic fan-out helper for running
// independent simulation jobs concurrently.
//
// Determinism contract: each job must be self-contained (its own engine,
// its own RNG state, no shared mutable data) and write only to its own
// index of a caller-owned result slice. Under that contract the results
// are identical for any worker count, and the caller merges them in index
// order — parallelism changes wall-clock time, never output bytes.
package par

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// jobPanic carries a worker panic back to the Do caller with the job index
// attached, so the re-panic names the failing job instead of a goroutine.
type jobPanic struct {
	i int
	v any
}

// Do runs fn(0..n-1) on up to workers goroutines and returns when all
// jobs have finished. workers <= 1 (or n <= 1) runs serially on the
// calling goroutine. Jobs are handed out in index order, but may complete
// in any order; fn must not assume otherwise.
//
// A panicking job does not crash its worker goroutine (which would take
// the process down with an unrecoverable trace): remaining jobs still run,
// and after they finish Do re-panics on the calling goroutine with the
// lowest panicking job index — the same panic a serial run would surface
// first, so failure reporting is worker-count independent too.
func Do(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first *jobPanic
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if first == nil || i < first.i {
								first = &jobPanic{i: i, v: r}
							}
							mu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if first != nil {
		panic(fmt.Sprintf("par: job %d panicked: %v", first.i, first.v))
	}
}
