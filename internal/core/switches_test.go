package core

import (
	"testing"
	"time"

	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/sim"
)

// pollLoop is an engine loop that only polls its links.
type pollLoop struct{ links *LinkSet }

func (l *pollLoop) LoopName() string { return "poll" }
func (l *pollLoop) PollOnce(p *sim.Proc) int {
	return l.links.PollEach(p, 32, func(*sim.Proc, *Link, []byte) {})
}

// An empty poll of the Oasis receiver is a read miss, a CLFLUSHOPT and an
// MFENCE. As three sleeps that was three process switches per poll whenever
// another core was busy — 25 per driver iteration over eight idle links,
// counting the loop's own sleep. As one stepped sleep it is at most one.
// The bound is on sim.Counters, which repeat exactly on any machine.
func TestEmptyPollCostsOneSwitch(t *testing.T) {
	const nlinks = 8
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
	da, db := NewDriver(a, "a/driver", cfg), NewDriver(b, "b/driver", cfg)
	da.Attach(&pollLoop{aLinks})
	db.Attach(&pollLoop{bLinks})
	// Started a few ns apart, each core's sleeps keep landing inside the
	// other's, so neither gets the lone-process fast path for free.
	da.Start()
	eng.After(7*time.Nanosecond, db.Start)
	eng.RunUntil(sim.Duration(200 * time.Microsecond))

	iters := da.Iterations + db.Iterations
	if iters < 100 || da.IdleIterations != da.Iterations || db.IdleIterations != db.Iterations {
		t.Fatalf("want two idle cores, got iterations %d/%d idle %d/%d",
			da.Iterations, db.Iterations, da.IdleIterations, db.IdleIterations)
	}
	polls := uint64(iters) * nlinks
	c := eng.Counters()
	if c.SteppedLegs < 3*polls {
		t.Fatalf("%d stepped legs over %d empty polls, want 3 per poll", c.SteppedLegs, polls)
	}
	// One per poll and one per iteration's own sleep; then the two start-ups
	// and the iteration each core was part-way through at the deadline.
	if limit := polls + uint64(iters) + 2 + 2*(nlinks+1); c.Switches > limit {
		t.Fatalf("%d process switches over %d iterations of %d empty polls (limit %d): %+v",
			c.Switches, iters, nlinks, limit, c)
	}
	if c.Switches < polls/2 {
		t.Fatalf("only %d switches over %d polls: the cores are not contending, the bound above proves nothing", c.Switches, polls)
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
			InvalidateRange(p, h.Cache, addr, lines*cxl.LineSize, "payload")
		}},
		{"WritebackRange", func(p *sim.Proc, h *host.Host, addr int64) {
			WritebackRange(p, h.Cache, addr, lines*cxl.LineSize, "payload")
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
