package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestDoCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		Do(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestDoZeroJobs(t *testing.T) {
	Do(4, 0, func(i int) { t.Fatal("fn called for n=0") })
}

func TestDoResultsIndependentOfWorkers(t *testing.T) {
	run := func(workers int) [32]int {
		var out [32]int
		Do(workers, len(out), func(i int) { out[i] = i * i })
		return out
	}
	serial := run(1)
	for _, w := range []int{2, 4, 16} {
		if run(w) != serial {
			t.Fatalf("results differ at workers=%d", w)
		}
	}
}

// A panicking job must reach the caller as a panic on the calling
// goroutine — not crash a worker goroutine and take the process down —
// and the reported job must be the lowest panicking index, matching what
// a serial run would hit first, regardless of worker count.
func TestDoPanicPropagation(t *testing.T) {
	for _, workers := range []int{2, 4, 16} {
		const n = 64
		var ran atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			Do(workers, n, func(i int) {
				ran.Add(1)
				if i == 7 || i == 31 {
					panic(fmt.Sprintf("boom-%d", i))
				}
			})
			return nil
		}()
		if got == nil {
			t.Fatalf("workers=%d: panic swallowed", workers)
		}
		msg := fmt.Sprint(got)
		if !strings.Contains(msg, "job 7") || !strings.Contains(msg, "boom-7") {
			t.Fatalf("workers=%d: want lowest panicking job 7 reported, got %q", workers, msg)
		}
		if ran.Load() != n {
			t.Fatalf("workers=%d: only %d/%d jobs ran after a panic", workers, ran.Load(), n)
		}
	}
}

// Serial fallback (workers <= 1) intentionally keeps the raw panic: there
// is no goroutine boundary to survive, so the original value propagates
// unchanged.
func TestDoSerialPanicUnwrapped(t *testing.T) {
	sentinel := errors.New("raw")
	got := func() (r any) {
		defer func() { r = recover() }()
		Do(1, 3, func(i int) {
			if i == 1 {
				panic(sentinel)
			}
		})
		return nil
	}()
	if got != sentinel {
		t.Fatalf("serial panic rewrapped: got %v", got)
	}
}
