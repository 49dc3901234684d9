package sim

import (
	"testing"
	"time"
)

// TestScheduleDispatchAllocFree guards the event free list: once the list is
// warm, a schedule → dispatch round trip must not touch the heap at all.
// This is the engine's hottest path (every Sleep, timer, and queue wakeup
// goes through it), so even one object per event shows up directly in
// experiment wall time.
func TestScheduleDispatchAllocFree(t *testing.T) {
	eng := New()
	n := 0
	cb := func() { n++ }
	// Warm up: populate the free list.
	for i := 1; i <= 64; i++ {
		eng.After(Duration(i)*time.Microsecond, cb)
	}
	eng.RunUntil(eng.Now() + time.Millisecond)

	allocs := testing.AllocsPerRun(200, func() {
		eng.After(time.Microsecond, cb)
		eng.RunUntil(eng.Now() + 2*time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("schedule/dispatch allocated %.2f objects per event, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("callbacks never ran")
	}
}

// TestSameTimestampBatchAllocFree covers one bucket of the timeline's ring:
// many events landing on one timestamp (the common queue-wakeup pattern) must
// also allocate nothing once warm.
func TestSameTimestampBatchAllocFree(t *testing.T) {
	eng := New()
	n := 0
	cb := func() { n++ }
	for i := 0; i < 128; i++ {
		eng.After(time.Microsecond, cb)
	}
	eng.RunUntil(eng.Now() + time.Millisecond)

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 128; i++ {
			eng.After(time.Microsecond, cb)
		}
		eng.RunUntil(eng.Now() + 2*time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("same-timestamp batch allocated %.2f objects per batch, want 0", allocs)
	}
}

// TestQueueWaitCycleAllocFree covers the wait a consumer parks in: a push
// that wakes it, its pop and its next wait must reuse the signal's waiter
// list, whether the consumer blocks in Pop or its chain awaits the queue.
func TestQueueWaitCycleAllocFree(t *testing.T) {
	for _, stepped := range []bool{false, true} {
		eng := New()
		q := NewQueue[int](eng)
		got := 0
		eng.Go("consumer", func(p *Proc) {
			if stepped {
				p.Steps(&drainer{q: q, got: &got})
			}
			for {
				got += q.Pop(p)
			}
		})
		var allocs float64
		eng.Go("producer", func(p *Proc) {
			cycle := func() {
				q.Push(1)
				p.Yield()
			}
			for i := 0; i < 64; i++ {
				cycle() // warm the event free list
			}
			allocs = testing.AllocsPerRun(200, cycle)
		})
		eng.RunUntil(time.Millisecond)
		eng.Shutdown()
		if got < 200 {
			t.Fatalf("stepped=%v: consumer took %d items; harness broken", stepped, got)
		}
		if allocs != 0 {
			t.Errorf("stepped=%v: a push → wake → pop → wait cycle allocated %.2f objects, want 0", stepped, allocs)
		}
	}
}

// drainer pops and counts a queue's items forever, as a chain.
type drainer struct {
	q   *Queue[int]
	got *int
}

func (d *drainer) Step() (Duration, bool) {
	for {
		v, ok := d.q.TryPop()
		if !ok {
			return d.q.Await()
		}
		*d.got += v
	}
}
