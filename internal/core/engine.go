package core

import (
	"fmt"

	"oasis/internal/host"
	"oasis/internal/sim"
)

// EngineLoop is an opaque loop: a poll body the driver core cannot see
// into. Every engine in the tree describes its iteration as a stage list and
// builds its driver core with it; an opaque loop is what is left for a
// caller that has only a function — a micro-benchmark's probe, a test's
// stub. PollOnce does one whole iteration's work — bounded by the loop's own
// burst limits — and returns how many items it processed. It must never
// sleep for pacing (the Driver charges the per-iteration cost), though it
// may sleep to model the cost of the work itself. The core resumes its process to call it on every
// iteration, idle or not: one process switch per iteration that a stage
// list's idle predicates save.
type EngineLoop interface {
	// PollOnce performs one poll iteration and reports items processed.
	PollOnce(p *sim.Proc) int
}

// DriverConfig paces a driver core.
type DriverConfig struct {
	// LoopCost is the per-iteration CPU cost charged after every pass over
	// the stage list (§5.1's driver-core overhead model).
	LoopCost sim.Duration
	// IdleBackoff caps the exponential sleep applied after consecutive
	// empty iterations. Real driver cores busy-poll; the backoff is a
	// simulation-speed device bounding added latency to one backoff period.
	// 0 busy-polls faithfully.
	IdleBackoff sim.Duration
}

// Driver is one driver core: the dedicated polling process of one engine
// loop (§3.2). The paper dedicates a core per frontend and per backend, and
// every engine builds its own in its constructor, with the stage list that is
// its iteration. §5.1's remark that driver cores "handle other tasks, which
// delays message passing" is modelled by the engines' message cost, not by
// sharing a core.
type Driver struct {
	h       *host.Host
	name    string
	cfg     DriverConfig
	stages  []Stage // the loop's iteration, in order
	started bool

	stalled  bool
	stallSig *sim.Signal

	// The iteration cursor: where the polling process is in its endless
	// sequence of iterations. Step advances it in event context and block
	// from the process, each as far as it can (see Step).
	inIter   bool         // an iteration is in progress
	began    sim.Duration // when it began
	stage    int          // the stage at the cursor: stages[stage]
	polling  bool         // that stage is a poll stage whose pass has begun
	working  bool         // that stage is a work stage whose run has begun
	progress int          // items processed so far this iteration
	idleRun  int          // consecutive idle iterations, 0 after a busy one

	// Stats.
	Iterations     int64        // total poll iterations
	IdleIterations int64        // iterations that processed nothing
	Processed      int64        // total items processed
	Busy           sim.Duration // virtual time of the iterations that processed something, LoopCost included
	Stalls         int64        // times the core was stalled (fault injection)
}

// NewDriver creates the driver core on h of the loop whose iteration is
// stages in order. The name labels the core's process and the engine's stats.
func NewDriver(h *host.Host, name string, cfg DriverConfig, stages ...Stage) *Driver {
	return &Driver{h: h, name: name, cfg: cfg, stages: stages, stallSig: sim.NewSignal(h.Eng)}
}

// Name returns the driver core's label.
func (d *Driver) Name() string { return d.name }

// Attach makes an opaque loop this core's only loop, as one work stage that
// is never idle: the process is resumed to call PollOnce on every iteration.
// It panics on a core that already has a loop.
func (d *Driver) Attach(l EngineLoop) {
	if len(d.stages) > 0 {
		panic(fmt.Sprintf("core: driver core %s already has a loop", d.name))
	}
	d.stages = []Stage{WorkStage("poll once", func() bool { return false }, l.PollOnce)}
}

// Start launches the polling process. Idempotent.
func (d *Driver) Start() {
	if d.started {
		return
	}
	d.started = true
	d.h.Eng.Go(d.name, d.run)
}

// Stall freezes the polling process at its next iteration boundary: no loop
// body runs, no telemetry is emitted, inbound rings back up. This models a
// crashed or wedged driver core for fault injection. The process itself is
// kept (a crashed host's core comes back as the same core), so Resume
// continues exactly where polling stopped.
func (d *Driver) Stall() {
	if d.stalled {
		return
	}
	d.stalled = true
	d.Stalls++
}

// Resume releases a stalled core; the polling process continues on the
// current sim tick.
func (d *Driver) Resume() {
	if !d.stalled {
		return
	}
	d.stalled = false
	d.stallSig.Broadcast()
}

// Stalled reports whether the core is currently frozen.
func (d *Driver) Stalled() bool { return d.stalled }

// EmptyPolls returns the empty polls so far of the ends the core's poll
// stages read now, and how many of them a pass answered from its batched
// fetch (msgchan.Receiver.Fetched): how much of the idle polling takes the
// batched path, which no Stats() series shows. The ends' counters are first
// credited with the polls of the passes replayed so far.
func (d *Driver) EmptyPolls() (empty, fetched int64) {
	add := func(e *LinkEnd) { empty, fetched = empty+e.In.EmptyPolls, fetched+e.In.Fetched }
	for i := range d.stages {
		st := &d.stages[i]
		st.pass.settle()
		if st.control != nil && *st.control != nil {
			add(*st.control)
		}
		if st.set != nil {
			for _, l := range st.set.order {
				add(l.End)
			}
		}
	}
	return empty, fetched
}

// Passes returns the passes the core's poll stages have begun and how many
// of them were replayed from a memo of the pass before: how much of the idle
// polling is replayed, which no Stats() series shows.
func (d *Driver) Passes() (passes, replayed int64) {
	for i := range d.stages {
		if m := d.stages[i].pass.m; m != nil {
			passes, replayed = passes+m.passes, replayed+m.replayed
		}
	}
	return passes, replayed
}

// run is the polling process: Step as far as event context goes — all the
// way round, iteration after iteration, while the core is idle — and block
// for whatever needs the process, at the same cursor.
func (d *Driver) run(p *sim.Proc) {
	for {
		if dur, more := d.Step(); more {
			p.SleepSteps(dur, d)
		}
		d.block(p)
	}
}

// Step implements sim.Stepper: it advances the cursor through everything
// that needs no process and returns the next sleep. That is the stall check,
// every work stage whose idle predicate holds, every step of a work stage's
// run and of a handler's job, every poll of a link end (the receiver's own
// Step, leg by leg), the iteration's accounting and its LoopCost + backoff
// sleep — after which the next iteration begins in the same chain. The
// sequence of effects and sleeps is exactly the one
//
//	for {
//		for d.stalled { d.stallSig.Wait(p) }
//		for each stage { progress += its run or its pass }
//		// count the iteration
//		p.Sleep(d.cfg.LoopCost [+ backoff])
//	}
//
// would make, so no event's (time, sequence) depends on how much of it ran
// here. It returns more == false where only block can go on: a stalled core,
// a job that blocked, one of the receiver's blocking escapes.
func (d *Driver) Step() (sim.Duration, bool) {
	for {
		if !d.inIter {
			if d.stalled {
				return 0, false
			}
			d.inIter, d.began, d.stage, d.progress = true, d.h.Eng.Now(), 0, 0
		}
		if d.stage == len(d.stages) {
			d.inIter = false
			d.Iterations++
			d.Processed += int64(d.progress)
			if d.progress > 0 {
				d.idleRun = 0
				d.Busy += d.h.Eng.Now() - d.began + d.cfg.LoopCost
				return d.cfg.LoopCost, true
			}
			d.IdleIterations++
			d.idleRun++
			return d.cfg.LoopCost + Backoff(d.cfg.LoopCost, d.cfg.IdleBackoff, d.idleRun-1), true
		}
		st := &d.stages[d.stage]
		if st.work != nil {
			if !d.working {
				if st.idle() {
					if checking {
						return 0, false // block distrusts the predicate
					}
					d.stage++
					continue
				}
				d.working = true
				st.work.Begin()
			}
			if dur, more := st.work.Step(); more {
				return dur, true
			}
			if st.work.Blocked() {
				return 0, false
			}
			d.working = false
			d.progress += st.work.Progress()
			d.stage++
			continue
		}
		if !d.polling {
			d.polling = true
			st.begin(d.h.Eng)
		}
		if dur, more := st.pass.Step(); more {
			return dur, true
		}
		if !st.pass.over() {
			return 0, false
		}
		d.progress += st.pass.got
		d.polling = false
		d.stage++
	}
}

// block does, from the polling process, the one thing Step stopped at, and
// moves the cursor past it.
func (d *Driver) block(p *sim.Proc) {
	if !d.inIter {
		if d.stalled {
			d.stallSig.Wait(p)
		}
		return
	}
	st := &d.stages[d.stage]
	switch {
	case st.work == nil:
		st.pass.block(p)
	case d.working:
		st.work.Finish(p)
	default:
		d.distrust(p, st)
		d.stage++
	}
}

// checking is OASIS_SIMCHECK=1: no work stage is skipped on its predicate's
// word (see distrust).
var checking = sim.Checking()

// distrust runs a work stage whose idle predicate holds, which Step would
// have skipped, and panics unless the run was the no-op the predicate
// promised: nothing processed, no leg, no time passed, nothing scheduled.
// Its steps are called from the process, outside any chain, so that the
// engine's counters stay as they are without the check.
func (d *Driver) distrust(p *sim.Proc, st *Stage) {
	eng := d.h.Eng
	now, seq := eng.Now(), eng.Seq()
	w := st.work
	w.Begin()
	leg := false
	for {
		if _, leg = w.Step(); leg || !w.Blocked() {
			break
		}
		w.Finish(p)
	}
	if n := w.Progress(); leg || n != 0 || eng.Now() != now || eng.Seq() != seq {
		panic(fmt.Sprintf("core: loop %s stage %q reported idle at %v, but its run processed %d items, took a leg (%v), took %v and scheduled %d events",
			d.name, st.name, now, n, leg, eng.Now()-now, eng.Seq()-seq))
	}
}

// Backoff is the one capped doubling every pacing and retry site uses:
// base·2ⁿ, at most cap. n < 0 counts as 0 and a non-positive cap disables
// backoff (0) — the busy-polling driver.
func Backoff(base, cap sim.Duration, n int) sim.Duration {
	if cap <= 0 {
		return 0
	}
	n = max(0, min(n, 62))
	if base > cap>>uint(n) {
		return cap
	}
	return base << uint(n)
}
