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
	// sample returns the engine's counters and the cores' iterations so far.
	sample := func() (c sim.Counters, iters, idle float64) {
		for _, pt := range pod.Stats().Points {
			switch {
			case !strings.HasPrefix(pt.Name, "core/"):
			case strings.HasSuffix(pt.Name, "/iters"):
				iters += pt.Value
			case strings.HasSuffix(pt.Name, "/idle_iters"):
				idle += pt.Value
			}
		}
		return pod.Eng.Counters(), iters, idle
	}
	pod.Run(time.Millisecond)
	c0, iters0, idle0 := sample()
	pod.Run(2 * time.Millisecond)
	c, iters, idle := sample()
	procs := pod.Eng.Procs()
	pod.Shutdown()
	c = since(c0, c)
	iters, idle = iters-iters0, idle-idle0
	t.Logf("%d live processes, %v iterations (%v idle)", procs, iters, idle)
	if iters < 5000 || idle < 0.95*iters {
		t.Fatalf("%v iterations, %v idle: want an idle pod", iters, idle)
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
