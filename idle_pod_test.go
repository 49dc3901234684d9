package oasis

import (
	"strings"
	"testing"
	"time"

	"oasis/internal/sim"
)

// TestIdlePodExactCounts pins the exact costs of a small idle pod — 8 hosts,
// 2 NICs and an SSD, the second millisecond with no traffic (the first posts
// the RX rings and registers the volumes): 8 frontends, 2 + 1 backends, 8
// storage frontends and the allocator polling links that never deliver — to
// its row of testdata/counts.txt. The event and fast-sleep counts were
// captured at the commit before idle iterations became stepped chains and
// depend only on the simulation: moving an idle iteration into event context
// must not add, drop or reorder a single event.
func TestIdlePodExactCounts(t *testing.T) {
	pod := NewPod(DefaultConfig())
	hosts := make([]*Host, 8)
	for i := range hosts {
		hosts[i] = pod.AddHost()
	}
	pod.AddNIC(hosts[1], false)
	pod.AddNIC(hosts[2], false)
	d := pod.AddSSD(hosts[3], 1<<12)
	for i, h := range hosts {
		inst := pod.AddInstance(h, IP(10, 0, 0, byte(10+i)))
		pod.AddVolume(inst, d.ID, 64)
	}
	pod.Start()
	// sample returns the engine's counters, the cores' iterations so far,
	// their empty polls and how many of those the batched path answered, and
	// their passes and how many of those were replayed.
	sample := func() (c sim.Counters, iters, idle float64, empty, fetched, passes, replayed int64) {
		for _, d := range pod.allDrivers() {
			e, f := d.EmptyPolls()
			empty, fetched = empty+e, fetched+f
			p, r := d.Passes()
			passes, replayed = passes+p, replayed+r
		}
		for _, pt := range pod.Stats().Points {
			switch {
			case !strings.HasPrefix(pt.Name, "core/"):
			case strings.HasSuffix(pt.Name, "/iters"):
				iters += pt.Value
			case strings.HasSuffix(pt.Name, "/idle_iters"):
				idle += pt.Value
			}
		}
		return pod.Eng.Counters(), iters, idle, empty, fetched, passes, replayed
	}
	pod.Run(time.Millisecond)
	c0, iters0, idle0, empty0, fetched0, passes0, replayed0 := sample()
	pod.Run(2 * time.Millisecond)
	c, iters, idle, empty, fetched, passes, replayed := sample()
	procs := pod.Eng.Procs()
	pod.Shutdown()
	c = since(c0, c)
	iters, idle = iters-iters0, idle-idle0
	empty, fetched = empty-empty0, fetched-fetched0
	passes, replayed = passes-passes0, replayed-replayed0
	t.Logf("%d live processes, %v iterations (%v idle), %d empty polls (%d from a batched fetch), %d passes (%d replayed)",
		procs, iters, idle, empty, fetched, passes, replayed)
	if iters < 5000 || idle < 0.95*iters {
		t.Fatalf("%v iterations, %v idle: want an idle pod", iters, idle)
	}
	// An idle ring's poll is answered from its pass's batched fetch
	// (msgchan.Receiver.PollFetched), and almost every poll here is of an
	// idle ring. The counts below cannot show whether it was — the batched
	// path is exact — so this does. OASIS_SIMCHECK=1 takes the cached path.
	if !sim.Checking() && float64(fetched) < 0.95*float64(empty) {
		t.Errorf("%d of %d empty polls were answered from a batched fetch, want at least 95 %%", fetched, empty)
	}
	// A pass that would repeat the one before it is replayed from a memo of
	// that one (core's pollPass), and almost every pass here would. The
	// replay is exact, so only this shows that it happens.
	if !sim.Checking() && float64(replayed) < 0.85*float64(passes) {
		t.Errorf("%d of %d passes were replayed, want at least 85 %%", replayed, passes)
	}
	checkCounts(t, countLine("idle", c, sim.GroupCounters{}))
	// An idle pod's events are scheduled tens to hundreds of nanoseconds
	// ahead: all but a sliver stay in the timeline's ring, off the heap.
	if c.HeapEvents > c.Events/50 {
		t.Errorf("%d of %d events came off the far heap, want at most one in 50", c.HeapEvents, c.Events)
	}
	// An idle iteration resumes no goroutine. One that found work hands each
	// stage that has some to the core's goroutine — at most once per stage of
	// the longest loop (the backends' five) — and every live process may be
	// part-way through a sleep at either deadline.
	// (OASIS_SIMCHECK=1 runs every stage from the process to check the idle
	// predicates, so the bound is not its to meet; the counts above, bar
	// switches, are.)
	const stages = 5
	if limit := uint64(iters-idle)*stages + uint64(procs); c.Switches > limit && !sim.Checking() {
		t.Errorf("%d process switches over %v iterations (%v idle), limit %d", c.Switches, iters, idle, limit)
	}
}
