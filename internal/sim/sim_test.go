package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestCallbackOrdering(t *testing.T) {
	eng := New()
	var order []int
	eng.At(30*time.Nanosecond, func() { order = append(order, 3) })
	eng.At(10*time.Nanosecond, func() { order = append(order, 1) })
	eng.At(20*time.Nanosecond, func() { order = append(order, 2) })
	end := eng.Run()
	if end != 30*time.Nanosecond {
		t.Fatalf("end time = %v, want 30ns", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	eng := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.At(5*time.Nanosecond, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO among same-time events)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	eng := New()
	var at Duration
	eng.At(100*time.Nanosecond, func() {
		eng.After(50*time.Nanosecond, func() { at = eng.Now() })
	})
	eng.Run()
	if at != 150*time.Nanosecond {
		t.Fatalf("nested After fired at %v, want 150ns", at)
	}
}

func TestProcessSleep(t *testing.T) {
	eng := New()
	var stamps []Duration
	eng.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * time.Nanosecond)
			stamps = append(stamps, p.Now())
		}
	})
	eng.Run()
	want := []Duration{10 * time.Nanosecond, 20 * time.Nanosecond, 30 * time.Nanosecond}
	if len(stamps) != 3 {
		t.Fatalf("stamps = %v, want 3 entries", stamps)
	}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps[%d] = %v, want %v", i, stamps[i], want[i])
		}
	}
	if eng.Procs() != 0 {
		t.Fatalf("live procs = %d, want 0", eng.Procs())
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	eng := New()
	var order []string
	eng.Go("a", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		order = append(order, "a10")
		p.Sleep(20 * time.Nanosecond)
		order = append(order, "a30")
	})
	eng.Go("b", func(p *Proc) {
		p.Sleep(15 * time.Nanosecond)
		order = append(order, "b15")
		p.Sleep(20 * time.Nanosecond)
		order = append(order, "b35")
	})
	eng.Run()
	want := []string{"a10", "b15", "a30", "b35"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	eng := New()
	fired := false
	eng.At(time.Second, func() { fired = true })
	end := eng.RunUntil(100 * time.Millisecond)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	if end != 100*time.Millisecond {
		t.Fatalf("end = %v, want 100ms", end)
	}
	// Resuming runs the event.
	eng.Run()
	if !fired {
		t.Fatal("event did not fire after resuming Run")
	}
}

func TestSignalWakesFIFO(t *testing.T) {
	eng := New()
	sig := NewSignal(eng)
	var order []string
	eng.Go("w1", func(p *Proc) { sig.Wait(p); order = append(order, "w1") })
	eng.Go("w2", func(p *Proc) { sig.Wait(p); order = append(order, "w2") })
	eng.At(10*time.Nanosecond, func() {
		if sig.Waiters() != 2 {
			t.Errorf("waiters = %d, want 2", sig.Waiters())
		}
		sig.Signal()
	})
	eng.At(20*time.Nanosecond, func() { sig.Broadcast() })
	eng.Run()
	if len(order) != 2 || order[0] != "w1" || order[1] != "w2" {
		t.Fatalf("order = %v, want [w1 w2]", order)
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	eng := New()
	sig := NewSignal(eng)
	var woken, timedOut bool
	var wokenAt, timeoutAt Duration
	eng.Go("lucky", func(p *Proc) {
		woken = sig.WaitTimeout(p, 100*time.Nanosecond)
		wokenAt = p.Now()
	})
	eng.Go("unlucky", func(p *Proc) {
		p.Sleep(1) // ensure "lucky" waits first so Signal picks it
		timedOut = !sig.WaitTimeout(p, 50*time.Nanosecond)
		timeoutAt = p.Now()
	})
	eng.At(10*time.Nanosecond, func() { sig.Signal() })
	eng.Run()
	if !woken || wokenAt != 10*time.Nanosecond {
		t.Fatalf("lucky: woken=%v at %v, want woken at 10ns", woken, wokenAt)
	}
	if !timedOut || timeoutAt != 51*time.Nanosecond {
		t.Fatalf("unlucky: timedOut=%v at %v, want timeout at 51ns", timedOut, timeoutAt)
	}
	if eng.Procs() != 0 {
		t.Fatalf("live procs = %d, want 0", eng.Procs())
	}
}

func TestQueueBlocksUntilPush(t *testing.T) {
	eng := New()
	q := NewQueue[int](eng)
	var got int
	var at Duration
	eng.Go("consumer", func(p *Proc) {
		got = q.Pop(p)
		at = p.Now()
	})
	eng.At(25*time.Nanosecond, func() { q.Push(42) })
	eng.Run()
	if got != 42 || at != 25*time.Nanosecond {
		t.Fatalf("got %d at %v, want 42 at 25ns", got, at)
	}
}

func TestQueueFIFOAndTryPop(t *testing.T) {
	eng := New()
	q := NewQueue[int](eng)
	eng.At(0, func() {
		q.Push(1)
		q.Push(2)
		q.Push(3)
		if q.Len() != 3 {
			t.Errorf("len = %d, want 3", q.Len())
		}
		for want := 1; want <= 3; want++ {
			v, ok := q.TryPop()
			if !ok || v != want {
				t.Errorf("TryPop = %d,%v, want %d,true", v, ok, want)
			}
		}
		if _, ok := q.TryPop(); ok {
			t.Error("TryPop on empty queue returned ok")
		}
	})
	eng.Run()
}

func TestQueuePopTimeout(t *testing.T) {
	eng := New()
	q := NewQueue[int](eng)
	var ok1, ok2 bool
	var v1 int
	eng.Go("c", func(p *Proc) {
		_, ok1 = q.PopTimeout(p, 10*time.Nanosecond) // times out
		v1, ok2 = q.PopTimeout(p, 100*time.Nanosecond)
	})
	eng.At(50*time.Nanosecond, func() { q.Push(7) })
	eng.Run()
	if ok1 {
		t.Fatal("first PopTimeout should have timed out")
	}
	if !ok2 || v1 != 7 {
		t.Fatalf("second PopTimeout = %d,%v, want 7,true", v1, ok2)
	}
}

func TestResourceSerializes(t *testing.T) {
	eng := New()
	r := NewResource(eng)
	var done []Duration
	for i := 0; i < 3; i++ {
		eng.Go("u", func(p *Proc) {
			r.Use(p, 100*time.Nanosecond)
			done = append(done, p.Now())
		})
	}
	eng.Run()
	want := []Duration{100 * time.Nanosecond, 200 * time.Nanosecond, 300 * time.Nanosecond}
	if len(done) != 3 {
		t.Fatalf("done = %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if r.BusyTotal() != 300*time.Nanosecond {
		t.Fatalf("busyTotal = %v, want 300ns", r.BusyTotal())
	}
}

func TestResourceIdleGap(t *testing.T) {
	eng := New()
	r := NewResource(eng)
	var second Duration
	eng.Go("u", func(p *Proc) {
		r.Use(p, 10*time.Nanosecond) // completes at 10
		p.Sleep(100 * time.Nanosecond)
		r.Use(p, 10*time.Nanosecond) // idle gap; starts fresh at 110
		second = p.Now()
	})
	eng.Run()
	if second != 120*time.Nanosecond {
		t.Fatalf("second completion = %v, want 120ns", second)
	}
}

func TestShutdownUnwindsProcesses(t *testing.T) {
	eng := New()
	sig := NewSignal(eng)
	cleaned := 0
	eng.Go("waiter", func(p *Proc) {
		defer func() { cleaned++ }()
		sig.Wait(p) // never signalled
	})
	eng.Go("sleeper", func(p *Proc) {
		defer func() { cleaned++ }()
		p.Sleep(time.Hour)
	})
	eng.At(time.Millisecond, func() { eng.Shutdown() })
	eng.Run()
	if cleaned != 2 {
		t.Fatalf("cleaned = %d, want 2 (deferred cleanup must run on shutdown)", cleaned)
	}
	if eng.Procs() != 0 {
		t.Fatalf("live procs = %d, want 0", eng.Procs())
	}
}

func TestShutdownFromProcess(t *testing.T) {
	eng := New()
	reached := false
	eng.Go("killer", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		p.Engine().Shutdown()
		reached = true // code after Shutdown still runs until next park
		p.Sleep(time.Nanosecond)
		t.Error("process survived its own park after shutdown")
	})
	eng.Go("victim", func(p *Proc) {
		p.Sleep(time.Hour)
		t.Error("victim survived shutdown")
	})
	eng.Run()
	if !reached {
		t.Fatal("killer did not continue after calling Shutdown")
	}
	if eng.Procs() != 0 {
		t.Fatalf("live procs = %d, want 0", eng.Procs())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Duration {
		eng := New()
		q := NewQueue[int](eng)
		var stamps []Duration
		for i := 0; i < 5; i++ {
			i := i
			eng.Go("producer", func(p *Proc) {
				p.Sleep(Duration(i*7) * time.Nanosecond)
				q.Push(i)
			})
		}
		eng.Go("consumer", func(p *Proc) {
			for i := 0; i < 5; i++ {
				q.Pop(p)
				stamps = append(stamps, p.Now())
				p.Sleep(3 * time.Nanosecond)
			}
		})
		eng.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("runs produced %d and %d stamps, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %v vs %v", i, a, b)
		}
	}
}

func TestYieldRunsPendingSameTimeEventsFirst(t *testing.T) {
	eng := New()
	var order []string
	eng.Go("a", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		order = append(order, "a-before")
		p.Engine().After(0, func() { order = append(order, "cb") })
		p.Yield()
		order = append(order, "a-after")
	})
	eng.Run()
	// The callback was scheduled at the current time before Yield parked the
	// process, so FIFO ordering runs it during the Yield.
	want := []string{"a-before", "cb", "a-after"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// BenchmarkEngineCallbacks measures raw event dispatch (real wall time —
// the one benchmark in this repository where ns/op is the point).
func BenchmarkEngineCallbacks(b *testing.B) {
	eng := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(time.Nanosecond, tick)
		}
	}
	b.ResetTimer()
	eng.After(time.Nanosecond, tick)
	eng.Run()
}

// BenchmarkEngineProcessSwitch measures the park/resume handoff between two
// processes — the cost every non-fast-path Sleep pays.
func BenchmarkEngineProcessSwitch(b *testing.B) {
	eng := New()
	q1 := NewQueue[int](eng)
	q2 := NewQueue[int](eng)
	eng.Go("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Push(i)
			q2.Pop(p)
		}
	})
	eng.Go("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Pop(p)
			q2.Push(i)
		}
	})
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEngineFastPathSleep measures the in-place clock advance.
func BenchmarkEngineFastPathSleep(b *testing.B) {
	eng := New()
	eng.Go("spin", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ResetTimer()
	eng.Run()
}

// heapTimer reschedules itself leg after leg, so a set of them keeps the
// timeline at a fixed depth with pushes landing all over it.
type heapTimer struct {
	eng  *Engine
	legs []Duration
	i    int
	left *int
}

func (t *heapTimer) Fire() {
	if *t.left--; *t.left > 0 {
		t.i++
		t.eng.AfterTimer(t.legs[t.i%len(t.legs)], t)
	}
}

// idleLegs is an idle driver iteration as the timeline sees it: two thirds
// CLFLUSHOPT/MFENCE legs, a quarter fill waits, one LoopCost + IdleBackoff.
var idleLegs = []Duration{15, 30, 302, 15, 30, 302, 15, 15, 30, 302, 15, 30, 302, 15, 1060}

// BenchmarkEngineHeap measures one pop + push on a timeline of the depth an
// idle rack keeps: 600 pending events (a pod) and 5 000 (a 512-host rack).
// The plain rows are the far heap (periods of 1 000 + 7·i ns mostly land
// nearWindow or more ahead); the near rows are the ring under the rack's own
// leg mix.
func BenchmarkEngineHeap(b *testing.B) {
	for _, pending := range []int{600, 5000} {
		for _, near := range []bool{false, true} {
			name := fmt.Sprint(pending)
			if near {
				name = "near/" + name
			}
			b.Run(name, func(b *testing.B) {
				eng := New()
				left := b.N
				for i := 0; i < pending; i++ {
					t := &heapTimer{eng: eng, legs: []Duration{Duration(1000 + 7*i)}, i: i, left: &left}
					if near {
						t.legs = idleLegs
					}
					eng.AfterTimer(t.legs[i%len(t.legs)], t)
				}
				b.ResetTimer()
				eng.Run()
			})
		}
	}
}

func TestShutdownDropsNeverStartedProcs(t *testing.T) {
	eng := New()
	ran := false
	eng.Go("late", func(p *Proc) { ran = true })
	// Shutdown before the startup event fires: no goroutine ever exists
	// for the process, and its slot is released immediately.
	eng.Shutdown()
	eng.Run()
	if ran {
		t.Fatal("process body ran despite pre-run shutdown")
	}
	if eng.Procs() != 0 {
		t.Fatalf("live procs = %d, want 0", eng.Procs())
	}
}

// A process that panics ends the run: the panic reaches the RunUntil caller,
// naming the process, whichever goroutine resumed it — here the second of
// two processes, resumed after the first parked.
func TestProcessPanicReachesRunUntil(t *testing.T) {
	eng := New()
	eng.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	eng.Go("doomed", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		eng.Run()
	}()
	msg := fmt.Sprint(got)
	if !strings.Contains(msg, `process "doomed" panicked: boom`) {
		t.Fatalf("RunUntil's caller recovered %q, want the process's panic with its name", msg)
	}
	if eng.Now() != 10*time.Nanosecond || eng.Procs() != 1 {
		t.Fatalf("after the panic: clock %v, %d live processes, want 10ns and the bystander", eng.Now(), eng.Procs())
	}
	eng.Shutdown()
	if eng.Procs() != 0 {
		t.Fatalf("%d processes survived Shutdown after the panic", eng.Procs())
	}
}

// Shutdown leaves no goroutine behind, wherever it is called from: every
// started process's coroutine ends, and a group's window workers exit.
func TestShutdownReleasesGoroutines(t *testing.T) {
	// park starts processes parked every way one can be: on a timer, on a
	// signal, mid stepped sleep, never started.
	park := func(e *Engine) {
		stuck := NewSignal(e)
		e.Go("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
		e.Go("waiter", func(p *Proc) { stuck.Wait(p) })
		e.Go("stepper", func(p *Proc) { p.SleepSteps(time.Nanosecond, endless{}) })
		e.After(time.Microsecond, func() { e.Go("unstarted", func(p *Proc) {}) })
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"from a process", func() {
			e := New()
			park(e)
			e.Go("killer", func(p *Proc) {
				p.Sleep(time.Microsecond)
				e.Shutdown()
			})
			e.Run()
		}},
		{"from a callback", func() {
			e := New()
			park(e)
			e.After(time.Microsecond, e.Shutdown)
			e.Run()
		}},
		{"between runs", func() {
			e := New()
			park(e)
			e.RunUntil(time.Microsecond)
			e.Shutdown()
		}},
		{"group mid-hop", func() {
			g := NewGroup()
			g.SetMobileLatency(10 * time.Microsecond)
			a, b := g.AddPartition(), g.AddPartition()
			park(a)
			park(b)
			g.GoMobile(a, "migrant", func(p *Proc) {
				p.Sleep(time.Microsecond)
				g.Hop(p, b) // arrives at 11µs, after the run
			})
			g.RunUntil(5 * time.Microsecond)
			g.Shutdown()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc.run()
			// Exiting goroutines (a group's workers) leave asynchronously.
			n := runtime.NumGoroutine()
			for i := 0; i < 200 && n > before; i++ {
				time.Sleep(time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > before {
				t.Fatalf("%d goroutines after Shutdown, %d before the run", n, before)
			}
		})
	}
}

// endless is a stepped sleep that never ends.
type endless struct{}

func (endless) Step() (Duration, bool) { return time.Nanosecond, true }
