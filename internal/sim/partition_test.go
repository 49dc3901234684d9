package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// trace is a simulation-visible event log. Identical traces mean identical
// executions — every assertion in this file ultimately reduces to "the
// trace is byte-identical".
type trace struct{ lines []string }

func (t *trace) log(now Duration, format string, args ...any) {
	t.lines = append(t.lines, fmt.Sprintf("%12d %s", now, fmt.Sprintf(format, args...)))
}
func (t *trace) String() string { return strings.Join(t.lines, "\n") }

// pingWorkload drives one engine through a representative mix of the
// engine's scheduling shapes: timers, same-instant events, process sleeps,
// yields, and signal handoffs.
func pingWorkload(e *Engine, tr *trace, tag string) {
	s := NewSignal(e)
	e.Go(tag+"-producer", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(Duration(i%5) * 100)
			tr.log(p.Now(), "%s produce %d", tag, i)
			s.Broadcast()
			p.Yield()
		}
	})
	e.Go(tag+"-consumer", func(p *Proc) {
		for i := 0; i < 20; i++ {
			s.Wait(p)
			tr.log(p.Now(), "%s consume %d", tag, i)
		}
	})
	for i := 0; i < 10; i++ {
		i := i
		e.After(Duration(i)*137, func() { tr.log(e.Now(), "%s timer %d", tag, i) })
	}
}

// A one-partition group must reduce to the serial loop byte-for-byte: same
// trace, same final clock, same live-process count at every step.
func TestDegenerateGroupMatchesSerial(t *testing.T) {
	serial := &trace{}
	se := New()
	pingWorkload(se, serial, "w")
	sEnd := se.RunUntil(5 * time.Microsecond)

	part := &trace{}
	g := NewGroup()
	pe := g.AddPartition()
	pingWorkload(pe, part, "w")
	pEnd := g.RunUntil(5 * time.Microsecond)

	if serial.String() != part.String() {
		t.Fatalf("degenerate partition diverged from serial:\n--- serial ---\n%s\n--- partitioned ---\n%s", serial, part)
	}
	if sEnd != pEnd {
		t.Fatalf("final clock: serial %v, partitioned %v", sEnd, pEnd)
	}
	if se.Procs() != pe.Procs() {
		t.Fatalf("live procs: serial %d, partitioned %d", se.Procs(), pe.Procs())
	}
}

// degenerateRun is the cluster-shaped use of a one-partition group next to
// the bare engine it must equal: a driver spawned mobile that hops (always to
// its own partition), reads the group clock mid-run and finally shuts the
// simulation down from inside it, with other processes still parked on
// timers and signals. The bare form spells the same thing Go + Sleep +
// Engine.Now + Engine.Shutdown. Every trace line carries the engine's
// sequence counter, so equal traces mean equal (time, seq).
func degenerateRun(grouped bool) (string, Duration, Counters, int) {
	const hop = 2 * time.Microsecond
	tr := &trace{}
	e := New()
	var g *Group
	if grouped {
		g = NewGroup()
		g.SetMobileLatency(hop)
		e = g.AddPartition()
	}
	pingWorkload(e, tr, "w")
	stuck := NewSignal(e)
	e.Go("never-signaled", func(p *Proc) { stuck.Wait(p) })
	e.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(900 * time.Nanosecond)
			tr.log(p.Now(), "tick seq %d", e.seq)
		}
	})
	driver := func(p *Proc) {
		for leg := 0; leg < 3; leg++ {
			var now Duration
			if grouped {
				g.Hop(p, e)
				now = g.Now()
			} else {
				p.Sleep(hop)
				now = e.Now()
			}
			tr.log(now, "driver leg %d at %v seq %d", leg, p.Now(), e.seq)
		}
		if grouped {
			g.Shutdown()
		} else {
			e.Shutdown()
		}
	}
	var end Duration
	if grouped {
		g.GoMobile(e, "driver", driver)
		end = g.RunUntil(time.Millisecond)
	} else {
		e.Go("driver", driver)
		end = e.RunUntil(time.Millisecond)
	}
	return tr.String(), end, e.Counters(), e.Procs()
}

// The rest of the degenerate contract, which lets every pod and cluster run
// on a group with no serial code path beside it: on one partition GoMobile +
// Hop is Go + Sleep event for event, Group.Now read from a process is the
// engine's live clock, and a Shutdown called by a process mid-RunUntil
// unwinds exactly as Engine.Shutdown does.
func TestDegenerateGroupHopNowShutdown(t *testing.T) {
	sTrace, sEnd, sCtr, sProcs := degenerateRun(false)
	gTrace, gEnd, gCtr, gProcs := degenerateRun(true)
	if !strings.Contains(sTrace, "driver leg 2 at 6µs") || !strings.Contains(sTrace, "tick") {
		t.Fatalf("scenario incomplete:\n%s", sTrace)
	}
	if sTrace != gTrace {
		t.Fatalf("one-partition group diverged from the bare engine:\n--- engine ---\n%s\n--- group ---\n%s", sTrace, gTrace)
	}
	if sEnd != gEnd || sCtr != gCtr {
		t.Fatalf("after a mid-run Shutdown: engine clock %v counters %+v, group clock %v counters %+v", sEnd, sCtr, gEnd, gCtr)
	}
	if sProcs != 0 || gProcs != 0 {
		t.Fatalf("processes leaked through Shutdown: engine %d, group %d", sProcs, gProcs)
	}
}

// With more than one partition a mid-window Shutdown is still refused: the
// caller's "now" is one partition's, not a global instant.
func TestGroupShutdownDuringWindowPanics(t *testing.T) {
	g := NewGroup()
	a, b := g.AddPartition(), g.AddPartition()
	g.Link(a, b, time.Microsecond)
	var got any
	a.After(time.Microsecond, func() {
		defer func() { got = recover() }()
		g.Shutdown()
	})
	g.RunUntil(3 * time.Microsecond)
	if msg := fmt.Sprint(got); !strings.Contains(msg, "during a window") {
		t.Fatalf("mid-window Shutdown on two partitions: recovered %q, want the during-a-window panic", msg)
	}
	g.Shutdown()
}

// crossWorkload builds an N-partition simulation where every partition runs
// a local workload and periodically fires events into its ring neighbor
// through a CrossLink. Returns the merged trace (sorted by construction:
// each partition logs into its own shard, shards are concatenated in
// partition order, and every line carries its virtual time).
func crossWorkload(nparts int, deadline Duration) string {
	g := NewGroup()
	const lat = 500 * time.Nanosecond
	engs := make([]*Engine, nparts)
	traces := make([]*trace, nparts)
	for i := range engs {
		engs[i] = g.AddPartition()
		traces[i] = &trace{}
	}
	links := make([]*CrossLink, nparts)
	for i := range engs {
		links[i] = g.Link(engs[i], engs[(i+1)%nparts], lat)
	}
	for i := range engs {
		i := i
		e, tr, link := engs[i], traces[i], links[i]
		pingWorkload(e, tr, fmt.Sprintf("p%d", i))
		e.Go(fmt.Sprintf("p%d-crosser", i), func(p *Proc) {
			for n := 0; n < 15; n++ {
				p.Sleep(Duration(300+i*37) * time.Nanosecond)
				at := p.Now() + lat
				n := n
				link.Send(at, func() {
					dst := (i + 1) % nparts
					traces[dst].log(engs[dst].Now(), "p%d cross-recv from p%d msg %d", dst, i, n)
				})
			}
		})
	}
	g.RunUntil(deadline)
	g.Shutdown()
	var all []string
	for i, tr := range traces {
		all = append(all, fmt.Sprintf("== partition %d ==", i))
		all = append(all, tr.lines...)
	}
	return strings.Join(all, "\n")
}

// Cross-partition events must merge deterministically: the trace is
// byte-identical across repeated runs and across GOMAXPROCS settings.
func TestCrossLinkDeterministic(t *testing.T) {
	ref := crossWorkload(4, 20*time.Microsecond)
	if !strings.Contains(ref, "cross-recv") {
		t.Fatal("workload produced no cross-partition deliveries")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			got := crossWorkload(4, 20*time.Microsecond)
			if got != ref {
				t.Fatalf("GOMAXPROCS=%d rep %d diverged:\n--- reference ---\n%s\n--- got ---\n%s", procs, rep, ref, got)
			}
		}
	}
}

// hopWorkload: a mobile process visits every partition in turn, doing local
// work on each; static local workloads run everywhere. In serial mode
// (parts == 1) the same code runs on one engine and every Hop degenerates
// to Sleep(mobileLat), so the mobile process's virtual timeline — and the
// work it interleaves with — must be identical.
func hopWorkload(parts int, counters []int64, tr *trace) Duration {
	g := NewGroup()
	g.SetMobileLatency(2 * time.Microsecond)
	engs := make([]*Engine, parts)
	for i := range engs {
		engs[i] = g.AddPartition()
	}
	for i := range counters {
		e := engs[i%parts]
		slot := &counters[i]
		e.Go(fmt.Sprintf("worker%d", i), func(p *Proc) {
			for p.Now() < 40*time.Microsecond {
				p.Sleep(700 * time.Nanosecond)
				atomic.AddInt64(slot, 1)
			}
		})
	}
	g.GoMobile(engs[0], "visitor", func(p *Proc) {
		for round := 0; round < 3; round++ {
			for i := 0; i < len(counters); i++ {
				g.Hop(p, engs[i%parts])
				tr.log(p.Now(), "visit worker %d round %d (count %d)", i, round, atomic.LoadInt64(&counters[i]))
				p.Sleep(1500 * time.Nanosecond)
			}
		}
	})
	end := g.RunUntil(50 * time.Microsecond)
	g.Shutdown()
	return end
}

// A mobile process's observed timeline must not depend on how partitions
// are drawn: 1 (serial), 2, and 4 partitions all yield the same trace.
func TestHopMatchesSerialSleep(t *testing.T) {
	const nworkers = 4
	run := func(parts int) (string, Duration, []int64) {
		counters := make([]int64, nworkers)
		tr := &trace{}
		end := hopWorkload(parts, counters, tr)
		return tr.String(), end, counters
	}
	refTrace, refEnd, refCounts := run(1)
	if !strings.Contains(refTrace, "visit worker") {
		t.Fatal("mobile visitor logged nothing")
	}
	for _, parts := range []int{2, 4} {
		got, end, counts := run(parts)
		if got != refTrace {
			t.Fatalf("%d partitions diverged from serial:\n--- serial ---\n%s\n--- partitioned ---\n%s", parts, refTrace, got)
		}
		if end != refEnd {
			t.Fatalf("%d partitions: final clock %v, serial %v", parts, end, refEnd)
		}
		for i := range counts {
			if counts[i] != refCounts[i] {
				t.Fatalf("%d partitions: worker %d did %d iterations, serial did %d", parts, i, counts[i], refCounts[i])
			}
		}
	}
}

func mustPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	fn()
}

// The timestamp fence is the soundness guarantee of the declared lookahead:
// sending earlier than now+MinLatency must panic, not reorder.
func TestCrossLinkTimestampFence(t *testing.T) {
	g := NewGroup()
	a, b := g.AddPartition(), g.AddPartition()
	link := g.Link(a, b, 1*time.Microsecond)
	mustPanic(t, "timestamp fence", func() {
		link.Send(500*time.Nanosecond, func() {})
	})
}

// Zero-lookahead cross edges are a modeling error, not a tuning knob.
func TestCrossLinkLatencyFloor(t *testing.T) {
	g := NewGroup()
	a, b := g.AddPartition(), g.AddPartition()
	mustPanic(t, "lookahead floor", func() { g.Link(a, b, 10) })
	mustPanic(t, "lookahead floor", func() { g.SetMobileLatency(10) })
}

// Inbox overflow means a partition is outrunning the barrier — panic
// rather than hide unbounded queueing.
func TestCrossLinkInboxBound(t *testing.T) {
	g := NewGroup()
	g.inboxCap = 8
	a, b := g.AddPartition(), g.AddPartition()
	link := g.Link(a, b, 1*time.Microsecond)
	mustPanic(t, "inbox overflow", func() {
		for i := 0; i < 100; i++ {
			link.Send(2*time.Microsecond, func() {})
		}
	})
}

// OASIS_SIMCHECK: scheduling into the past of a partition's committed
// window start is a lookahead bug and must trip immediately.
func TestSimCheckPastWindow(t *testing.T) {
	forceSimCheck(t)
	e := New()
	e.windowStart = 100
	mustPanic(t, "in the past of partition", func() { e.At(50, func() {}) })
}

// Group.Shutdown must unwind blocked processes on every partition,
// including a mobile process parked on a signal away from home.
func TestGroupShutdownUnwinds(t *testing.T) {
	g := NewGroup()
	g.SetMobileLatency(1 * time.Microsecond)
	a, b := g.AddPartition(), g.AddPartition()
	g.Link(a, b, 1*time.Microsecond) // bound the window so both sides advance
	stuck := NewSignal(b)
	b.Go("never-signaled", func(p *Proc) { stuck.Wait(p) })
	g.GoMobile(a, "migrant", func(p *Proc) {
		g.Hop(p, b)
		stuck.Wait(p) // parked on b forever
	})
	a.Go("ticker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	g.RunUntil(10 * time.Microsecond)
	if g.Procs() == 0 {
		t.Fatal("expected blocked processes to still be live before shutdown")
	}
	g.Shutdown()
	if n := g.Procs(); n != 0 {
		t.Fatalf("%d processes leaked through Group.Shutdown", n)
	}
}

// Run (no deadline) must terminate once every partition drains even though
// conservative windows are finite.
func TestGroupRunDrains(t *testing.T) {
	g := NewGroup()
	a, b := g.AddPartition(), g.AddPartition()
	link := g.Link(a, b, 1*time.Microsecond)
	var got Duration
	a.Go("oneshot", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		link.Send(p.Now()+time.Microsecond, func() { got = b.Now() })
	})
	end := g.Run()
	if got != 4*time.Microsecond {
		t.Fatalf("cross event ran at %v, want 4µs", got)
	}
	if end < got {
		t.Fatalf("group finished at %v, before its last event at %v", end, got)
	}
	g.Shutdown()
}

// countTimer is a pooled, closure-free cross-event payload for the alloc
// regression below; each partition gets its own so Fire never races.
type countTimer struct{ n int }

func (c *countTimer) Fire() { c.n++ }

// The barrier loop is the partitioned mode's hot path: once warm, a steady
// cross-traffic workload must run whole windows — deliver (pooled slices,
// sorted merges), the pairwise-window fixpoint, worker wakeups,
// and the sense-reversing completion barrier — without allocating.
func TestGroupBarrierAllocFree(t *testing.T) {
	g := NewGroup()
	a, b := g.AddPartition(), g.AddPartition()
	const lat = time.Microsecond
	ab := g.Link(a, b, lat)
	ba := g.Link(b, a, lat)
	toB, toA := &countTimer{}, &countTimer{}
	pinger := func(e *Engine, l *CrossLink, tm *countTimer) {
		e.Go("pinger", func(p *Proc) {
			for {
				p.Sleep(700 * time.Nanosecond)
				l.SendTimer(p.Now()+lat, tm)
			}
		})
	}
	pinger(a, ab, toB)
	pinger(b, ba, toA)
	next := 200 * time.Microsecond
	g.RunUntil(next) // warm: event free lists, ext pools, persistent workers
	allocs := testing.AllocsPerRun(20, func() {
		next += 100 * time.Microsecond
		g.RunUntil(next)
	})
	g.Shutdown()
	if toB.n == 0 || toA.n == 0 {
		t.Fatal("workload produced no cross deliveries")
	}
	if allocs > 2 {
		t.Fatalf("barrier loop allocated %.1f objects per ~100 windows, want ~0", allocs)
	}
}

// The SendTimer path shares the overflow guard with Send, and the panic
// must name both the flooded and the flooding partition.
func TestInboxOverflowSendTimer(t *testing.T) {
	g := NewGroup()
	g.inboxCap = 4
	a, b := g.AddPartition(), g.AddPartition()
	link := g.Link(a, b, 1*time.Microsecond)
	tm := &countTimer{}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected inbox overflow panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"partition 1 inbox overflow", "bound 4", "partition 0 is flooding"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		link.SendTimer(2*time.Microsecond, tm)
	}
}

// The window-collapse panic is the barrier loop's no-progress invariant:
// it must be unreachable through correct lookahead accounting, so the test
// forges the kind of bug it exists to catch — a stale mobile registration
// whose wake bound pins every partition's window into its committed past
// while work remains.
func TestWindowCollapsePanics(t *testing.T) {
	g := NewGroup()
	g.SetMobileLatency(minCrossLatency)
	a, b := g.AddPartition(), g.AddPartition()
	g.Link(a, b, 200)
	a.Go("tick", func(p *Proc) { p.Sleep(time.Microsecond) })
	g.RunUntil(2 * time.Microsecond) // both partitions commit to 2µs
	forged := &Proc{eng: a, name: "forged", hasWake: true, wakeAt: 0, blockedIdx: -1}
	g.mobile[forged] = true
	a.After(5*time.Microsecond, func() {}) // pending work that can never run
	mustPanic(t, "window collapsed", func() { g.RunUntil(10 * time.Microsecond) })
	delete(g.mobile, forged)
	g.Shutdown()
}
