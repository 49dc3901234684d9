package core

import (
	"fmt"

	"oasis/internal/host"
	"oasis/internal/sim"
)

// EngineLoop is an opaque loop: a poll body the driver core cannot see
// into. Every engine in the tree describes its iteration as a stage list and
// hands it to its Seat; an opaque loop is what is left for a caller that has
// only a function — a micro-benchmark's probe, a test's stub. PollOnce does
// one whole iteration's work — bounded by the loop's own burst limits — and
// returns how many items it processed. It must never sleep for pacing (the
// Driver charges the per-iteration cost), though it may sleep to model the
// cost of the work itself. The core resumes its process to call it on every
// iteration, idle or not: one process switch per iteration that a stage
// list's idle predicates save.
type EngineLoop interface {
	// LoopName labels the loop in the driver's process name and stats.
	LoopName() string
	// PollOnce performs one poll iteration and reports items processed.
	PollOnce(p *sim.Proc) int
}

// DriverConfig paces a driver core.
type DriverConfig struct {
	// LoopCost is the per-iteration CPU cost charged after every pass over
	// the attached loops (§5.1's driver-core overhead model).
	LoopCost sim.Duration
	// IdleBackoff caps the exponential sleep applied after consecutive
	// empty iterations. Real driver cores busy-poll; the backoff is a
	// simulation-speed device bounding added latency to one backoff period.
	// 0 busy-polls faithfully.
	IdleBackoff sim.Duration
}

// Driver is one driver core: a dedicated polling process that multiplexes
// one or more engine loops (§3.2). The paper dedicates a core per frontend
// and per backend; attaching several loops to one Driver reproduces §5.1's
// observation that driver cores "handle other tasks, which delays message
// passing" — every attached loop shares the core's iterations.
type Driver struct {
	h       *host.Host
	name    string
	cfg     DriverConfig
	names   []string  // the attached loops, in attach order, and
	stages  [][]Stage // each one's stage list
	started bool

	stalled  bool
	stallSig *sim.Signal

	// The iteration cursor: where the polling process is in its endless
	// sequence of iterations. Step advances it in event context and block
	// from the process, each as far as it can (see Step).
	inIter      bool // an iteration is in progress, over loops[:n]
	n           int  // loops attached when the iteration began
	loop, stage int  // the stage at the cursor: stages[loop][stage]
	polling     bool // that stage is a poll stage whose pass has begun
	progress    int  // items processed so far this iteration
	idleRun     int  // consecutive idle iterations, 0 after a busy one

	// Stats.
	Iterations     int64 // total poll iterations
	IdleIterations int64 // iterations that processed nothing
	Processed      int64 // total items processed across all loops
	Stalls         int64 // times the core was stalled (fault injection)
}

// NewDriver creates a driver core on h. The name labels the core's process.
func NewDriver(h *host.Host, name string, cfg DriverConfig) *Driver {
	return &Driver{h: h, name: name, cfg: cfg, stallSig: sim.NewSignal(h.Eng)}
}

// Host returns the host whose core this driver occupies.
func (d *Driver) Host() *host.Host { return d.h }

// Name returns the driver core's label.
func (d *Driver) Name() string { return d.name }

// attach adds a loop — a name and its stage list — to this core. A core that
// is already polling picks the loop up on its next iteration: the simulation
// is cooperative and every iteration starts from the loop list as it then
// stands, so a live pod can grow.
func (d *Driver) attach(name string, stages []Stage) {
	d.names = append(d.names, name)
	d.stages = append(d.stages, stages)
}

// Attach adds an opaque loop to this core, as one work stage that is never
// idle: the process is resumed to call PollOnce on every iteration.
func (d *Driver) Attach(l EngineLoop) {
	d.attach(l.LoopName(), []Stage{WorkStage("poll once", func() bool { return false }, l.PollOnce)})
}

// Loops returns the names of the attached loops in attach order.
func (d *Driver) Loops() []string { return d.names }

// Start launches the polling process. Idempotent.
func (d *Driver) Start() {
	if d.started {
		return
	}
	d.started = true
	d.h.Eng.Go(d.name, d.run)
}

// Started reports whether the core is polling.
func (d *Driver) Started() bool { return d.started }

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
// every work stage whose idle predicate holds, every empty poll of a link
// end (the receiver's own Step, leg by leg), the iteration's accounting
// and its LoopCost + backoff sleep — after which the next iteration begins
// in the same chain. The sequence of effects and sleeps is exactly the one
//
//	for {
//		for d.stalled { d.stallSig.Wait(p) }
//		for each loop { for each stage { progress += its run or its pass } }
//		// count the iteration
//		p.Sleep(d.cfg.LoopCost [+ backoff])
//	}
//
// would make, so no event's (time, sequence) depends on how much of it ran
// here. It returns more == false where only block can go on: a stalled core,
// a work stage that is not idle, a poll that found a message or met one of
// the receiver's blocking escapes.
func (d *Driver) Step() (sim.Duration, bool) {
	for {
		if !d.inIter {
			if d.stalled {
				return 0, false
			}
			d.inIter, d.n = true, len(d.stages)
			d.loop, d.stage, d.progress = 0, 0, 0
		}
		if d.loop == d.n {
			d.inIter = false
			d.Iterations++
			d.Processed += int64(d.progress)
			if d.progress > 0 {
				d.idleRun = 0
				return d.cfg.LoopCost, true
			}
			d.IdleIterations++
			d.idleRun++
			return d.cfg.LoopCost + Backoff(d.cfg.LoopCost, d.cfg.IdleBackoff, d.idleRun-1), true
		}
		stages := d.stages[d.loop]
		if d.stage == len(stages) {
			d.loop, d.stage = d.loop+1, 0
			continue
		}
		st := &stages[d.stage]
		if st.run != nil {
			if checking || !st.idle() {
				return 0, false
			}
			d.stage++
			continue
		}
		if !d.polling {
			d.polling = true
			st.begin()
		}
		if dur, more := st.pass.Step(); more {
			return dur, true
		}
		if !st.pass.over() {
			return 0, false
		}
		d.progress += st.progress()
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
	st := &d.stages[d.loop][d.stage]
	if st.run == nil {
		st.pass.block(p)
		return
	}
	if checking && st.idle() {
		d.distrust(p, st)
	} else {
		d.progress += st.run(p)
	}
	d.stage++
}

// checking is OASIS_SIMCHECK=1: no work stage is skipped on its predicate's
// word (see distrust).
var checking = sim.Checking()

// distrust runs a work stage whose idle predicate holds, which Step would
// have skipped, and panics unless the run was the no-op the predicate
// promised: nothing processed, no time passed, nothing scheduled.
func (d *Driver) distrust(p *sim.Proc, st *Stage) {
	eng := d.h.Eng
	now, seq := eng.Now(), eng.Seq()
	if n := st.run(p); n != 0 || eng.Now() != now || eng.Seq() != seq {
		panic(fmt.Sprintf("core: loop %s stage %q reported idle at %v, but its run processed %d items, took %v and scheduled %d events",
			d.names[d.loop], st.name, now, n, eng.Now()-now, eng.Seq()-seq))
	}
}

// Seat is an engine's loop — its name and its stage list — and that loop's
// place on a driver core. Every device engine embeds one, built once in the
// engine's constructor, which gives it its loop name and the two launch modes
// of §3.2 and §5.1: Start on its own puts the loop on a dedicated core named
// after it; Join first puts it on a core shared with other loops, and Start
// then only makes sure that core is polling.
type Seat struct {
	name   string
	stages []Stage
	h      *host.Host
	cfg    DriverConfig
	driver *Driver
}

// NewSeat returns the seat of the loop called name, whose iteration is
// stages in order, on host h; cfg paces the dedicated core Start creates when
// the loop joined no other. The name labels that core's process and the
// engine's stats.
func NewSeat(name string, stages []Stage, h *host.Host, cfg DriverConfig) Seat {
	return Seat{name: name, stages: stages, h: h, cfg: cfg}
}

// LoopName returns the loop's name.
func (s *Seat) LoopName() string { return s.name }

// Driver returns the core the loop polls on (nil before Start or Join).
func (s *Seat) Driver() *Driver { return s.driver }

// Join seats the loop on an already-created driver core, running or not, so
// one core can multiplex several engine loops (§5.1). Must precede Start.
func (s *Seat) Join(d *Driver) {
	if s.driver != nil {
		panic(fmt.Sprintf("core: %s already has a driver core", s.name))
	}
	s.driver = d
	d.attach(s.name, s.stages)
}

// Start launches the loop's polling core: the one it joined, or else a
// dedicated core named after the loop (§3.3). Idempotent.
func (s *Seat) Start() {
	if s.driver == nil {
		s.Join(NewDriver(s.h, s.name, s.cfg))
	}
	s.driver.Start()
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

// EngineStats is the uniform counter block every engine exposes: link-layer
// accounting from its LinkSet plus buffer-area pressure, so operators see
// backpressure (full rings, deferred sends) and exhaustion (alloc failures)
// the same way for every device engine.
type EngineStats struct {
	Name          string
	Links         LinkStats
	BufAllocs     int64
	BufFrees      int64
	BufAllocFails int64
}

// AccumulateArea folds a buffer area's counters into the stats block.
func (s *EngineStats) AccumulateArea(a *BufferArea) {
	if a == nil {
		return
	}
	s.BufAllocs += a.Allocs
	s.BufFrees += a.Frees
	s.BufAllocFails += a.AllocFails
}
