package core

import (
	"testing"
	"time"

	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/sim"
)

// pollLoop is an opaque loop that only polls its links, through PollEach.
type pollLoop struct {
	links *LinkSet
	calls int
}

func (l *pollLoop) PollOnce(p *sim.Proc) int {
	l.calls++
	return l.links.PollEach(p, 32, func(*sim.Proc, *Link, []byte) {})
}

// stages is the same loop as a stage list.
func (l *pollLoop) stages() []Stage {
	return []Stage{
		WorkStage("nothing", func() bool { return true }, func(*sim.Proc) int { return 0 }),
		PollStage("links", l.links, 32, func(*sim.Proc, *Link, []byte) {}),
	}
}

// An empty poll of the Oasis receiver is a read miss, a CLFLUSHOPT and an
// MFENCE. As three sleeps that was three process switches per poll whenever
// another core was busy — 25 per driver iteration over eight idle links,
// counting the loop's own sleep — and as one stepped sleep per poll, 9. With
// the driver core as the stepper an idle iteration of a stage list is part
// of one endless chain and resumes no goroutine at all; an opaque loop (one
// never-idle stage) is resumed to call PollOnce, and its PollEach chains the
// eight polls, so it costs one switch per PollEach call and one per iteration.
// A pass over idle links is three legs whatever their number: the wait for
// the tail loads it issued together, the CLFLUSHOPT run and fence, and the
// iteration's own sleep. The bounds are on sim.Counters, which repeat exactly
// on any machine.
func TestIdleIterationCostsNoSwitch(t *testing.T) {
	const nlinks = 8
	for _, staged := range []bool{true, false} {
		eng, pool := testPool()
		a := host.New(eng, 0, "a", pool, host.DefaultConfig())
		b := host.New(eng, 1, "b", pool, host.DefaultConfig())
		aLinks, bLinks := NewLinkSet(DefaultPendingLimit), NewLinkSet(DefaultPendingLimit)
		for i := uint32(0); i < nlinks; i++ {
			aEnd, bEnd, err := NewDuplexLink(pool, a, b, msgchan.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			aLinks.Add(i, aEnd)
			bLinks.Add(i, bEnd)
		}
		cfg := DriverConfig{LoopCost: 100 * time.Nanosecond}
		la, lb := &pollLoop{links: aLinks}, &pollLoop{links: bLinks}
		var da, db *Driver
		if staged {
			da, db = NewDriver(a, "a/driver", cfg, la.stages()...), NewDriver(b, "b/driver", cfg, lb.stages()...)
		} else {
			da, db = NewDriver(a, "a/driver", cfg), NewDriver(b, "b/driver", cfg)
			da.Attach(la)
			db.Attach(lb)
		}
		// Started a few ns apart, each core's sleeps keep landing inside the
		// other's, so neither gets the lone-process fast path for free.
		da.Start()
		eng.After(7*time.Nanosecond, db.Start)
		eng.RunUntil(sim.Duration(200 * time.Microsecond))

		iters := da.Iterations + db.Iterations
		if iters < 100 || da.IdleIterations != da.Iterations || db.IdleIterations != db.Iterations {
			t.Fatalf("staged=%v: want two idle cores, got iterations %d/%d idle %d/%d",
				staged, da.Iterations, db.Iterations, da.IdleIterations, db.IdleIterations)
		}
		c := eng.Counters()
		// The loads' leg, the flush run's and the iteration's own sleep.
		if c.SteppedLegs < 3*uint64(iters) {
			t.Fatalf("staged=%v: %d stepped legs over %d iterations of %d empty polls, want 3 per iteration",
				staged, c.SteppedLegs, iters, nlinks)
		}
		// The witness that the cores contend: were either alone, its legs
		// would advance the clock in place and switches would be free.
		if c.FastSleeps > 4 {
			t.Fatalf("staged=%v: %d sleeps took the lone-process fast path: the cores are not contending, the bound below proves nothing",
				staged, c.FastSleeps)
		}
		// The two start-ups; then nothing, or one per PollEach call plus one
		// per iteration (the call in flight at the deadline included).
		limit := uint64(2)
		if !staged {
			limit += uint64(la.calls+lb.calls) + uint64(iters)
		} else if checking {
			limit += uint64(iters) // OASIS_SIMCHECK=1 runs the idle work stage from the process
		}
		if c.Switches > limit {
			t.Fatalf("staged=%v: %d process switches over %d idle iterations of %d empty polls (limit %d): %+v",
				staged, c.Switches, iters, nlinks, limit, c)
		}
		t.Logf("staged=%v: %d iterations, %+v", staged, iters, c)
	}
}

// Invalidating a 23-line buffer is 23 CLFLUSHOPTs and a fence. Beside a
// second busy process that was 24 round trips between the two goroutines;
// as one stepped sleep it is one — away when the range parks, back when its
// fence retires.
func TestRangeHelpersCostOneSwitch(t *testing.T) {
	const lines = 23
	for _, tc := range []struct {
		name string
		call func(p *sim.Proc, h *host.Host, addr int64)
	}{
		{"InvalidateRange", func(p *sim.Proc, h *host.Host, addr int64) {
			h.Cache.FlushRange(p, addr, lines*cxl.LineSize, "payload")
		}},
		{"WritebackRange", func(p *sim.Proc, h *host.Host, addr int64) {
			h.Cache.WritebackRange(p, addr, lines*cxl.LineSize, "payload")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, pool := testPool()
			h := host.New(eng, 0, "h", pool, host.DefaultConfig())
			region, err := pool.Alloc(lines * cxl.LineSize)
			if err != nil {
				t.Fatal(err)
			}
			eng.Go("ticker", func(p *sim.Proc) {
				for {
					p.Sleep(time.Nanosecond)
				}
			})
			var took sim.Duration
			var delta sim.Counters
			eng.Go("io", func(p *sim.Proc) {
				h.Cache.Write(p, region.Base, make([]byte, lines*cxl.LineSize), "payload")
				before, start := eng.Counters(), p.Now()
				tc.call(p, h, region.Base)
				after := eng.Counters()
				took = p.Now() - start
				delta = sim.Counters{
					Switches:    after.Switches - before.Switches,
					SteppedLegs: after.SteppedLegs - before.SteppedLegs,
				}
			})
			eng.RunUntil(sim.Duration(10 * time.Microsecond))
			eng.Shutdown()
			costs := h.Cache.Params()
			if want := lines*costs.FlushIssue + costs.FenceLatency; took != want {
				t.Fatalf("range took %v of virtual time, want %v", took, want)
			}
			if delta.SteppedLegs != lines+1 {
				t.Fatalf("%d stepped legs, want %d", delta.SteppedLegs, lines+1)
			}
			if delta.Switches != 2 {
				t.Fatalf("%d process switches for a %d-line range, want 2 (one round trip)", delta.Switches, lines)
			}
			if tc.name == "InvalidateRange" && h.Cache.Len() != 0 {
				t.Fatalf("%d lines still cached after InvalidateRange", h.Cache.Len())
			}
			if h.Cache.DirtyLines() != 0 {
				t.Fatalf("%d lines still dirty", h.Cache.DirtyLines())
			}
		})
	}
}
