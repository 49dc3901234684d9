package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// sleepChain is SleepSteps or the loop it is defined to equal.
func sleepChain(p *Proc, stepped bool, d Duration, s Stepper) {
	if stepped {
		p.SleepSteps(d, s)
		return
	}
	for {
		p.Sleep(d)
		var more bool
		if d, more = s.Step(); !more {
			return
		}
	}
}

// stepPart is one partition of a random program: its engine, its dispatch
// log, a signal its steps may raise and a link to the next partition.
type stepPart struct {
	eng  *Engine
	log  trace
	sig  *Signal
	next *stepPart
	link *CrossLink // nil on a lone engine
}

// logTimer is a Timer that logs its dispatch.
type logTimer struct {
	pt  *stepPart
	tag string
}

func (l *logTimer) Fire() { l.pt.log.log(l.pt.eng.now, "timer %s", l.tag) }

// randLeg draws a leg length: zero (a yield), a few ns (contended by the
// other processes' legs), or long enough that the rest of the partition is
// asleep and the fast path holds.
func randLeg(rng *rand.Rand) Duration {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return Duration(500 + rng.Intn(3000))
	default:
		return Duration(1 + rng.Intn(40))
	}
}

// randChain is a stepper with a random number of legs whose steps log their
// dispatch and schedule callbacks, timers, wakeups and cross-partition
// events.
type randChain struct {
	pt   *stepPart
	name string
	rng  *rand.Rand
	leg  int
	left int
}

func (c *randChain) Step() (Duration, bool) {
	pt, e := c.pt, c.pt.eng
	pt.log.log(e.now, "%s leg %d", c.name, c.leg)
	tag := fmt.Sprintf("%s/%d", c.name, c.leg)
	switch c.rng.Intn(6) {
	case 0:
		e.After(randLeg(c.rng), func() { pt.log.log(e.now, "callback %s", tag) })
	case 1:
		e.AfterTimer(randLeg(c.rng), &logTimer{pt, tag})
	case 2:
		pt.sig.Signal()
	case 3:
		if pt.link != nil {
			dst := pt.next
			pt.link.Send(e.now+pt.link.MinLatency()+randLeg(c.rng), func() {
				dst.log.log(dst.eng.now, "cross %s", tag)
			})
		}
	}
	c.leg++
	if c.left == 0 {
		return 0, false
	}
	c.left--
	return randLeg(c.rng), true
}

// spawnStepProgram starts the partition's processes: workers that alternate
// plain sleeps with chains, and a waiter the chains' steps wake.
func spawnStepProgram(pt *stepPart, seed int64, tag string, stepped bool) {
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("%s-w%d", tag, i)
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		pt.eng.Go(name, func(p *Proc) {
			c := &randChain{pt: pt, name: name, rng: rng}
			for n := 0; n < 60; n++ {
				if rng.Intn(3) == 0 {
					p.Sleep(randLeg(rng))
					pt.log.log(p.Now(), "%s slept", name)
				}
				c.leg, c.left = 0, rng.Intn(5)
				sleepChain(p, stepped, randLeg(rng), c)
				pt.log.log(p.Now(), "%s resumed", name)
			}
		})
	}
	pt.eng.Go(tag+"-waiter", func(p *Proc) {
		for {
			pt.sig.Wait(p)
			pt.log.log(p.Now(), "%s-waiter woken", tag)
		}
	})
}

// runStepProgram runs one seeded program over nparts partitions (0: a bare
// engine, no group) to the deadline in slices, so that deadlines fall inside
// chains and are resumed, and returns the dispatch logs and final sequence
// numbers.
func runStepProgram(seed int64, nparts int, stepped bool) string {
	const deadline = 60 * time.Microsecond
	var g *Group
	var parts []*stepPart
	if nparts == 0 {
		e := New()
		parts = []*stepPart{{eng: e, sig: NewSignal(e)}}
	} else {
		g = NewGroup()
		for i := 0; i < nparts; i++ {
			e := g.AddPartition()
			parts = append(parts, &stepPart{eng: e, sig: NewSignal(e)})
		}
		for i, pt := range parts {
			pt.next = parts[(i+1)%nparts]
			pt.link = g.Link(pt.eng, pt.next.eng, 200)
		}
	}
	for i, pt := range parts {
		spawnStepProgram(pt, seed*7+int64(i), fmt.Sprintf("p%d", i), stepped)
	}
	slice := Duration(700 + seed%13*97)
	for t := slice; t < deadline+slice; t += slice {
		if g != nil {
			g.RunUntil(t)
		} else {
			parts[0].eng.RunUntil(t)
		}
	}
	var b strings.Builder
	for i, pt := range parts {
		fmt.Fprintf(&b, "== partition %d: now %d seq %d ==\n%s\n", i, pt.eng.now, pt.eng.seq, pt.log.String())
	}
	if g != nil {
		g.Shutdown()
	} else {
		parts[0].eng.Shutdown()
	}
	for _, pt := range parts {
		if n := pt.eng.Procs(); n != 0 {
			panic(fmt.Sprintf("%d processes leaked", n))
		}
	}
	return b.String()
}

// SleepSteps is defined as a loop of Sleep and Step; this holds it to that:
// over seeded random programs the dispatch log and every engine's final
// sequence number must equal the loop's, on a bare engine, a one-partition
// group and a two-partition group.
func TestSleepStepsMatchesSleepLoop(t *testing.T) {
	for _, nparts := range []int{0, 1, 2} {
		for seed := int64(1); seed <= 12; seed++ {
			want := runStepProgram(seed, nparts, false)
			got := runStepProgram(seed, nparts, true)
			if got != want {
				t.Fatalf("partitions=%d seed=%d: SleepSteps diverged from the Sleep loop\n%s",
					nparts, seed, firstDiff(want, got))
			}
			if !strings.Contains(want, "leg 3") || !strings.Contains(want, "woken") {
				t.Fatalf("partitions=%d seed=%d: program too small to mean anything", nparts, seed)
			}
		}
	}
}

// firstDiff renders the first differing line of two logs with some context.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			lo := i - 5
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("line %d:\n--- loop ---\n%s\n--- steps ---\n%s",
				i, strings.Join(w[lo:i+1], "\n"), strings.Join(g[lo:i+1], "\n"))
		}
	}
	return fmt.Sprintf("lengths differ: loop %d lines, steps %d lines", len(w), len(g))
}

// The program above must exercise both ways a leg can end, or the
// comparison proves less than it claims.
func TestSleepStepsProgramCoversBothPaths(t *testing.T) {
	e := New()
	pt := &stepPart{eng: e, sig: NewSignal(e)}
	spawnStepProgram(pt, 1, "p", true)
	e.RunUntil(60 * time.Microsecond)
	c := e.Counters()
	e.Shutdown()
	if c.SteppedLegs == 0 || c.FastSleeps == 0 || c.SteppedLegs <= c.FastSleeps {
		t.Fatalf("counters %+v: want stepped legs on both the fast path and the dispatch path", c)
	}
	if c.Switches >= c.SteppedLegs {
		t.Fatalf("counters %+v: chains should save switches", c)
	}
}

// fixedChain sleeps n further legs of d each.
type fixedChain struct {
	d    Duration
	n    int
	step func()
}

func (c *fixedChain) Step() (Duration, bool) {
	if c.step != nil {
		c.step()
	}
	if c.n == 0 {
		return 0, false
	}
	c.n--
	return c.d, true
}

// Shutdown while a process is parked mid-chain must unwind it like any
// other parked process — from outside the run and from a Step itself.
func TestSleepStepsShutdownMidChain(t *testing.T) {
	e := New()
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("chain%d", i), func(p *Proc) {
			p.SleepSteps(10, &fixedChain{d: 10, n: 1000})
			t.Error("chain returned although the engine shut down first")
		})
	}
	e.RunUntil(505)
	if e.Procs() != 3 {
		t.Fatalf("Procs() = %d mid-run, want 3", e.Procs())
	}
	e.Shutdown()
	if n := e.Procs(); n != 0 {
		t.Fatalf("%d processes leaked through Shutdown mid-chain", n)
	}

	e = New()
	for i := 0; i < 3; i++ {
		i := i
		e.Go(fmt.Sprintf("chain%d", i), func(p *Proc) {
			c := &fixedChain{d: 10, n: 1000}
			if i == 1 {
				c.step = func() {
					if e.Now() >= 300 {
						e.Shutdown()
					}
				}
			}
			p.SleepSteps(10+Duration(i), c)
		})
	}
	e.Run()
	if n := e.Procs(); n != 0 {
		t.Fatalf("%d processes leaked through Shutdown from a Step", n)
	}
}

// A Step that blocks would park the goroutine driving the loop on behalf of
// a process that is already parked; it must panic and say whose Step it was.
func TestStepMustNotBlock(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(p *Proc)
	}{
		{"Sleep", func(p *Proc) { p.Sleep(5) }},
		{"Yield", func(p *Proc) { p.Yield() }},
		{"SleepSteps", func(p *Proc) { p.SleepSteps(5, &fixedChain{}) }},
		{"Wait", func(p *Proc) { NewSignal(p.Engine()).Wait(p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			var msg string
			e.Go("stepper-owner", func(p *Proc) {
				defer func() { msg = fmt.Sprint(recover()) }()
				p.SleepSteps(10, &fixedChain{step: func() { tc.block(p) }})
			})
			e.Run()
			if !strings.Contains(msg, "inside a Step") || !strings.Contains(msg, `"stepper-owner"`) {
				t.Fatalf("blocking in a Step panicked with %q, want a message naming the process", msg)
			}
		})
	}
}

// A leg costs no allocation, on the fast path or through the event queue.
func TestSleepStepsAllocFree(t *testing.T) {
	const legs = 64
	for _, contended := range []bool{false, true} {
		e := New()
		if contended {
			// A second process ticking every ns keeps every leg off the fast path.
			e.Go("ticker", func(p *Proc) {
				for {
					p.Sleep(1)
				}
			})
		}
		var allocs float64
		e.Go("sleeper", func(p *Proc) {
			c := &fixedChain{d: 3}
			run := func() {
				c.n = legs - 1
				p.SleepSteps(3, c)
			}
			run() // warm the event free list
			allocs = testing.AllocsPerRun(50, run)
		})
		e.RunUntil(time.Millisecond)
		c := e.Counters()
		e.Shutdown()
		if allocs != 0 {
			t.Errorf("contended=%v: %.2f allocations per %d-leg chain, want 0", contended, allocs, legs)
		}
		if fast := c.Events < c.SteppedLegs; fast == contended {
			t.Errorf("contended=%v but counters are %+v", contended, c)
		}
	}
}
