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
