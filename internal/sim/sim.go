// Package sim provides a deterministic, process-based discrete-event
// simulation engine.
//
// All Oasis components — hosts, polling cores, NICs, the CXL pool, the
// switch — run as simulated processes whose every operation advances a
// shared virtual clock by a calibrated cost. Virtual time makes the
// microsecond-scale phenomena the paper reports (0.6 µs message-channel
// latency, 4–7 µs datapath overhead, 38 ms failover) deterministic and
// exactly measurable, which wall-clock time in a garbage-collected runtime
// is not.
//
// The engine is cooperatively single-threaded: although each process runs
// on its own goroutine, exactly one process executes at a time and control
// returns to the engine whenever a process blocks (Sleep, Wait, queue pop).
// Event ordering is total: events fire in (time, sequence) order, so two
// runs of the same simulation produce identical results.
package sim

import (
	"fmt"
	"math"
	"time"

	"oasis/internal/bufpool"
)

// Duration is virtual time, measured in nanoseconds since simulation start.
// It aliases time.Duration so cost constants read naturally
// (205 * time.Nanosecond, 5 * time.Second).
type Duration = time.Duration

// MaxTime is the largest representable virtual time.
const MaxTime = Duration(math.MaxInt64)

// event is a scheduled callback or process wakeup. Dispatched events are
// recycled through the engine's free list, which is safe because no caller
// ever retains an *event across its dispatch.
type event struct {
	at   Duration
	seq  uint64 // tie-breaker: FIFO among same-time events
	fn   func()
	tm   Timer
	proc *Proc // non-nil when the event resumes (or starts) a process
}

// Timer is the closure-free way to schedule work. At(t, func(){...})
// allocates a fresh closure (plus boxed captures) per call, which on
// per-packet paths dominates the allocation profile; a Timer is typically a
// small struct pooled by its owner, and a pointer inside an interface value
// costs nothing to schedule. Fire runs exactly once, in event context, at
// the scheduled time — or never, if the engine shuts down first, so owners
// must not leak resources that only Fire would release.
type Timer interface{ Fire() }

// heapEntry is an event's slot in the timeline: the ordering key beside the
// pointer, so sifting compares adjacent words instead of chasing two events.
type heapEntry struct {
	at  Duration
	seq uint64
	ev  *event
}

// before reports whether a orders strictly before b. (at, seq) is a strict
// total order — seq is unique — so every correct priority queue pops the
// same sequence; the heap's shape is free to differ between implementations.
func (a *heapEntry) before(b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine owns the virtual clock and the event queue.
// The zero value is not usable; call New.
type Engine struct {
	now    Duration
	seq    uint64
	events []heapEntry // 4-ary min-heap ordered by (at, seq); see heapPush/heapPop
	// nowQ holds events scheduled at the current time while the engine is
	// running. They bypass the heap entirely: same-time scheduling is the
	// dominant pattern (signal wakeups, yields), and a FIFO append/scan is
	// both cheaper than O(log n) heap fix-ups and provably order-preserving —
	// any heap entry at the current time was scheduled before the clock
	// reached it, so it carries a smaller sequence number than every
	// now-queue entry and is dispatched first.
	nowQ     []*event
	nowQHead int
	free     []*event // recycled events; dispatch returns them here
	running  bool
	dead     bool    // Shutdown was called; processes unwind
	nprocs   int     // live processes (for leak detection in tests)
	blocked  []*Proc // processes parked on signals/queues (no pending event)
	deadline Duration
	bufs     *bufpool.Pool

	// Token-passing scheduler plumbing (see RunUntil). host wakes the
	// RunUntil caller when the loop finishes on a process goroutine; ack
	// serializes victim unwinding during Shutdown.
	host      chan struct{}
	ack       chan struct{}
	unwinding bool  // inside Shutdown's victim loop
	cur       *Proc // process currently holding the token, nil if the host is
	stepping  *Proc // process whose Step is executing (see SleepSteps), else nil

	ctr Counters

	// Partitioned execution (see partition.go). A standalone engine has
	// group == nil and behaves exactly as before; a partition is an
	// ordinary engine whose windows are driven by its Group.
	group       *Group
	pid         int              // partition index within the group
	windowStart Duration         // partition commit at window entry (SIMCHECK)
	inbox       inbox            // cross-partition events awaiting barrier delivery
	wake        chan windowOrder // persistent window worker's assignment channel
}

// New returns an Engine with the clock at zero and no pending events.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Duration { return e.now }

// Counters are exact costs of a run: they depend only on the simulation, not
// on the machine or the Go scheduler, so two versions of the simulator can be
// compared by them where seconds are too noisy. They are plain fields, not
// obs instruments — reading them never perturbs a snapshot.
type Counters struct {
	Events      uint64 // events the loop dispatched: callbacks, timers, process wakes
	Switches    uint64 // wakes that handed control to another goroutine
	FastSleeps  uint64 // sleeps and stepped legs that advanced the clock in place
	SteppedLegs uint64 // Step calls made by SleepSteps, in event context or inline
}

// Counters returns the engine's cost counters since it was created.
func (e *Engine) Counters() Counters { return e.ctr }

// Seq returns how many events have been scheduled so far: the sequence number
// of the latest one. With Now it is the engine's position in the (time,
// sequence) order, which is what a change of execution strategy must keep.
func (e *Engine) Seq() uint64 { return e.seq }

// Bufs returns the engine-local buffer free list used by the datapath's
// per-packet/per-line allocation sites. Engine-local means race-free by
// construction: exactly one process (or callback) executes at a time, so
// the pool needs no locking, and parallel simulations — one engine per
// worker — never share a pool.
func (e *Engine) Bufs() *bufpool.Pool {
	if e.bufs == nil {
		e.bufs = bufpool.New()
	}
	return e.bufs
}

// newEvent pops a recycled event or allocates one.
func (e *Engine) newEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a dispatched event to the free list, dropping references
// so recycled events never pin callbacks or processes.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.tm, ev.proc = nil, nil, nil
	e.free = append(e.free, ev)
}

// schedule inserts an event at absolute time at (clamped to now).
func (e *Engine) schedule(at Duration, fn func(), tm Timer, p *Proc) {
	if simCheck && at < e.windowStart {
		panic(fmt.Sprintf("sim: event scheduled at %v, in the past of partition %d's window start %v",
			at, e.pid, e.windowStart))
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := e.newEvent()
	ev.at, ev.seq, ev.fn, ev.tm, ev.proc = at, e.seq, fn, tm, p
	if p != nil {
		// A parked process's next wakeup time feeds the group's conservative
		// window bound for mobile processes (see Group.window).
		p.hasWake, p.wakeAt = true, at
	}
	if e.running && at == e.now {
		e.nowQ = append(e.nowQ, ev)
		return
	}
	e.heapPush(ev)
}

// heapPush inserts ev into the timeline. The heap is 4-ary and hand-rolled:
// container/heap's interface indirection was ~20% of a simulation-bound
// profile, and the wider fan-out halves the levels each pop has to walk.
func (e *Engine) heapPush(ev *event) {
	in := heapEntry{ev.at, ev.seq, ev}
	e.events = append(e.events, in)
	h := e.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if h[parent].before(&in) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = in
}

// heapPop removes and returns the earliest event.
func (e *Engine) heapPop() *event {
	h := e.events
	top := h[0].ev
	n := len(h) - 1
	last := h[n]
	h[n].ev = nil
	e.events = h[:n]
	if n > 0 {
		h = h[:n]
		i := 0
		for {
			first := i<<2 + 1
			if first >= n {
				break
			}
			best := first
			end := first + 4
			if end > n {
				end = n
			}
			for j := first + 1; j < end; j++ {
				if h[j].before(&h[best]) {
					best = j
				}
			}
			if last.before(&h[best]) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	return top
}

// At schedules fn to run at absolute virtual time t (or now, if t has passed).
func (e *Engine) At(t Duration, fn func()) { e.schedule(t, fn, nil, nil) }

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn func()) { e.schedule(e.now+d, fn, nil, nil) }

// AtTimer schedules tm.Fire to run at absolute virtual time t. See Timer for
// when to prefer this over At.
func (e *Engine) AtTimer(t Duration, tm Timer) { e.schedule(t, nil, tm, nil) }

// AfterTimer schedules tm.Fire to run d from now.
func (e *Engine) AfterTimer(d Duration, tm Timer) { e.schedule(e.now+d, nil, tm, nil) }

// Go spawns a new simulated process that begins executing at the current
// virtual time. The name appears in diagnostics. fn runs on its own
// goroutine but only ever executes while the engine is blocked on it, so
// processes never race with each other or with event callbacks.
//
// The goroutine is not created until the startup event fires: a process
// whose startup event is dropped by Shutdown simply never existed, and its
// slot in the live-process count is released immediately.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, run: make(chan struct{}), fn: fn, blockedIdx: -1}
	e.nprocs++
	e.schedule(e.now, nil, nil, p)
	return p
}

// Run executes events until the queue is empty or Shutdown is called.
// It returns the final virtual time.
func (e *Engine) Run() Duration { return e.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= deadline and then sets the
// clock to deadline (if any event was beyond it, the clock stops at
// deadline). It returns the final virtual time.
//
// Scheduling is token-passing: exactly one goroutine at a time "drives" the
// event loop. The RunUntil caller starts driving; when the next event
// resumes a process, the driver hands control directly to that process's
// goroutine and the loop continues there the next time that process parks.
// There is no dedicated engine goroutine in the middle, so a process-to-
// process switch costs one channel handoff instead of two — and a process
// whose own wakeup is the next event continues with no handoff at all.
// Event selection is unchanged, so the dispatch order (and with it every
// simulation result) is identical to a centrally-driven loop.
func (e *Engine) RunUntil(deadline Duration) Duration {
	if e.running {
		panic("sim: RunUntil called re-entrantly")
	}
	e.running = true
	e.deadline = deadline
	e.cur = nil // the host goroutine drives first
	if e.host == nil {
		e.host = make(chan struct{})
	}
	defer func() { e.running = false }()
	if e.drive(nil) == driveHandoff {
		// The loop moved onto process goroutines; block until it finishes
		// there (deadline reached, queue drained, or shutdown).
		<-e.host
	}
	if e.now < deadline && deadline != MaxTime {
		e.now = deadline
	}
	return e.now
}

// driveResult says how a drive call ended.
type driveResult int

const (
	driveDone        driveResult = iota // deadline/empty queue/shutdown
	driveHandoff                        // control handed to a process goroutine
	driveOwnerWakeup                    // owner's own wakeup reached; it keeps running
)

// drive executes events on the calling goroutine until the loop terminates,
// control is handed to a process goroutine, or (when owner is non-nil) the
// next event is owner's own wakeup.
func (e *Engine) drive(owner *Proc) driveResult {
	deadline := e.deadline
	for !e.dead {
		// Drain the current instant before moving the clock: heap entries at
		// the current time first (smaller sequence numbers — see nowQ), then
		// the now-queue in FIFO order.
		var next *event
		if len(e.events) > 0 && e.events[0].at == e.now && e.now <= deadline {
			next = e.heapPop()
		} else if e.nowQHead < len(e.nowQ) {
			// A busy instant appends while we drain, so the head chases the
			// tail; compact once the dispatched prefix dominates, keeping the
			// queue's footprint bounded at amortized O(1) per event.
			if e.nowQHead >= 64 && e.nowQHead*2 >= len(e.nowQ) {
				n := copy(e.nowQ, e.nowQ[e.nowQHead:])
				e.nowQ = e.nowQ[:n]
				e.nowQHead = 0
			}
			next = e.nowQ[e.nowQHead]
			e.nowQ[e.nowQHead] = nil
			e.nowQHead++
		} else {
			e.nowQ = e.nowQ[:0]
			e.nowQHead = 0
			if len(e.events) == 0 {
				return driveDone
			}
			if e.events[0].at > deadline {
				e.now = deadline
				return driveDone
			}
			next = e.heapPop()
			e.now = next.at
		}
		e.ctr.Events++
		switch {
		case next.proc != nil:
			q := next.proc
			q.hasWake = false
			e.recycle(next)
			if q.steps != nil && e.runSteps(q) {
				continue // the chain's next leg is scheduled; q stays parked
			}
			if q == owner {
				return driveOwnerWakeup
			}
			e.transfer(q)
			return driveHandoff
		case next.tm != nil:
			next.tm.Fire()
			e.recycle(next)
		case next.fn != nil:
			next.fn()
			e.recycle(next)
		default:
			e.recycle(next)
		}
	}
	return driveDone
}

// transfer hands the control token to process q, spawning its goroutine on
// first resume. The caller stops driving immediately after.
func (e *Engine) transfer(q *Proc) {
	e.ctr.Switches++
	e.cur = q
	if !q.started {
		q.started = true
		fn := q.fn
		q.fn = nil // don't pin the closure for the process's whole lifetime
		go q.main(fn)
		return
	}
	q.run <- struct{}{}
}

// Shutdown terminates the simulation: all parked processes are unwound (their
// blocking calls panic with a killed marker that Proc.main recovers), pending
// events are dropped, and Run returns. A process whose startup event never
// fired is dropped without ever spawning its goroutine. Safe to call from
// within a callback or a process.
func (e *Engine) Shutdown() {
	if e.dead {
		return
	}
	e.dead = true
	var victims []*Proc
	for _, in := range e.events {
		if in.ev.proc != nil {
			victims = append(victims, in.ev.proc)
		}
	}
	for _, ev := range e.nowQ[e.nowQHead:] {
		if ev.proc != nil {
			victims = append(victims, ev.proc)
		}
	}
	victims = append(victims, e.blocked...)
	if e.stepping != nil {
		// Shutdown called from a Step: the stepped process's wake event has
		// been popped, so neither walk above found it.
		victims = append(victims, e.stepping)
	}
	e.events = nil
	e.nowQ = nil
	e.nowQHead = 0
	e.blocked = nil
	if e.ack == nil {
		e.ack = make(chan struct{})
	}
	// The token holder may be the one calling us (Shutdown from a callback
	// dispatched on a parked process's goroutine). It must not be sent its
	// own run token — it unwinds itself when the current dispatch returns.
	// Between RunUntil calls no goroutine holds the token, so a stale cur
	// from the previous run must not shield a victim.
	self := e.cur
	if !e.running {
		self = nil
	}
	e.unwinding = true
	for _, p := range victims {
		switch {
		case p.done:
		case p == self:
		case !p.started:
			// The startup event never fired: no goroutine exists to unwind.
			// Release the process slot directly.
			p.done = true
			e.nprocs--
		default:
			// Wake the parked process; it sees dead, unwinds, and acks from
			// its exit path so victims die strictly one at a time.
			p.run <- struct{}{}
			<-e.ack
		}
	}
	e.unwinding = false
}

// addBlocked registers a process parked on a signal or queue so Shutdown can
// unwind it; primitives call removeBlocked when they wake the process.
func (e *Engine) addBlocked(p *Proc) {
	p.blockedIdx = len(e.blocked)
	e.blocked = append(e.blocked, p)
}

// removeBlocked unregisters a parked process in O(1): the process records
// its slot, and the last entry swaps into the vacated position.
func (e *Engine) removeBlocked(p *Proc) {
	i := p.blockedIdx
	if i < 0 {
		return
	}
	last := len(e.blocked) - 1
	q := e.blocked[last]
	e.blocked[i] = q
	q.blockedIdx = i
	e.blocked[last] = nil
	e.blocked = e.blocked[:last]
	p.blockedIdx = -1
}

// Procs returns the number of live processes. Useful in tests to verify that
// a simulation wound down cleanly.
func (e *Engine) Procs() int { return e.nprocs }

// killed is the panic value used to unwind processes on Shutdown.
type killed struct{}

// Proc is a simulated process. Methods on Proc must only be called from the
// process's own function.
type Proc struct {
	eng  *Engine
	name string
	// run delivers the control token to this process: a parked process
	// blocks in a receive on it, and whoever dispatches the process's
	// wakeup sends. The reverse direction needs no channel — a parking
	// process keeps driving the event loop on its own goroutine (see
	// RunUntil), so a switch is one channel operation, not a round trip.
	run        chan struct{}
	fn         func(p *Proc) // body; retained until the startup event fires
	started    bool
	done       bool
	blockedIdx int // slot in eng.blocked, -1 when not parked on a primitive

	// Mobile-process bookkeeping (see Group). hasWake/wakeAt mirror the
	// process's pending wake event so the barrier can classify a parked
	// mobile process without scanning the heap: parked on a pure timer
	// (hasWake, blockedIdx == -1) means it provably cannot act before
	// wakeAt; parked on a signal means it may act anywhere in the next
	// window.
	hasWake bool
	wakeAt  Duration

	// steps is the chain SleepSteps parked this process on: its wake events
	// run the next Step instead of resuming the goroutine.
	steps Stepper
}

// main runs the process body, handling unwind-on-shutdown. On a normal
// return the dying goroutine keeps driving the event loop — some other
// process's wakeup or the RunUntil caller takes over from there.
func (p *Proc) main(fn func(p *Proc)) {
	defer func() {
		p.done = true
		e := p.eng
		e.nprocs--
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
			if e.unwinding {
				e.ack <- struct{}{} // Shutdown's victim loop is waiting
			} else {
				// Died holding the token after Shutdown (it was the caller):
				// the loop is over, wake RunUntil.
				e.host <- struct{}{}
			}
			return
		}
		if e.drive(nil) == driveDone {
			e.host <- struct{}{}
		}
	}()
	fn(p)
}

// park hands the event loop to this goroutine until the process's own wakeup
// fires; if the loop ends or moves elsewhere first, it blocks until resumed.
// If the engine was (or is while parked) shut down, it unwinds the process.
func (p *Proc) park() {
	e := p.eng
	if e.stepping != nil {
		e.blockedInStep(p)
	}
	if e.dead {
		panic(killed{}) // main's deferred recover hands control onward
	}
	switch e.drive(p) {
	case driveOwnerWakeup:
		return // our own wakeup was next: keep running, zero handoffs
	case driveDone:
		if e.dead {
			// A callback we dispatched called Shutdown: unwind; main's
			// deferred recover wakes RunUntil exactly once.
			panic(killed{})
		}
		e.host <- struct{}{} // loop over while we're parked: wake RunUntil
	case driveHandoff:
		// another process is running; wait for our wakeup
	}
	<-p.run
	if e.dead {
		panic(killed{})
	}
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Duration { return p.eng.now }

// Sleep advances this process's local time by d; other events run meanwhile.
// A non-positive d yields without advancing the clock (the process is
// re-scheduled at the current time, after already-pending same-time events).
//
// Fast path: when no pending event could fire during the sleep, the clock
// advances in place without a goroutine handoff. This is semantically
// identical to park-and-immediately-resume (the wake event would be next
// anyway) and makes busy-polling simulations orders of magnitude faster.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	if e.stepping != nil {
		e.blockedInStep(p)
	}
	t := e.now + d
	if d > 0 && e.quietUntil(t) {
		e.now = t
		e.ctr.FastSleeps++
		return
	}
	e.schedule(t, nil, nil, p)
	p.park()
}

// quietUntil reports whether the clock may jump to t in place: nothing is
// pending at or before t, and t is inside the current run.
func (e *Engine) quietUntil(t Duration) bool {
	return !e.dead && t <= e.deadline && e.nowQHead >= len(e.nowQ) &&
		(len(e.events) == 0 || e.events[0].at > t)
}

// Stepper is the rest of a multi-leg sleep: see SleepSteps. Step is called
// each time a leg ends and returns the next leg's length, or more == false
// when the leg that just ended was the last.
//
// Step runs in event context — on whichever goroutine is driving the loop,
// like a Timer's Fire — so it may schedule events, wake processes and
// mutate model state, but it must not block: Sleep, Wait, Pop and SleepSteps
// panic when entered from a Step. It must not allocate either; a stepper is
// scratch state reused call after call. That state has to belong to the
// sleeping process or to an object only one process uses at a time: two
// processes parked on one stepper overwrite each other's position. A leg's
// length is computed when the leg starts, never ahead of time, because the
// model it is computed from may change while earlier legs sleep.
type Stepper interface {
	Step() (next Duration, more bool)
}

// SleepSteps sleeps a chain of legs, running s.Step between them. It is
// exactly
//
//	for {
//		p.Sleep(d)
//		var more bool
//		if d, more = s.Step(); !more {
//			return
//		}
//	}
//
// except for where Step executes: in event context, when the leg's wake
// event is dispatched (or inline while the Sleep fast path holds), so the
// process's goroutine is resumed at most once per call instead of once per
// leg. Every schedule call is made at the same point of the dispatch order
// as in that loop, so every event keeps its (time, sequence) and the
// simulation cannot tell the two apart. A wake event of a chain carries its
// process like any other, so a deadline that falls mid-chain, Shutdown and
// the group's window bounds all treat the process as parked on a timer.
func (p *Proc) SleepSteps(d Duration, s Stepper) {
	e := p.eng
	if e.stepping != nil {
		e.blockedInStep(p)
	}
	p.steps = s
	if !e.legInPlace(p, d) || e.runSteps(p) {
		p.park() // until the wake event of the last leg
	}
}

// legInPlace starts a leg of q's chain. Like Sleep it advances the clock in
// place when nothing else is due first, and reports true; otherwise it
// schedules the leg's wake event.
func (e *Engine) legInPlace(q *Proc, d Duration) bool {
	if d < 0 {
		d = 0
	}
	t := e.now + d
	if d == 0 || !e.quietUntil(t) {
		e.schedule(t, nil, nil, q)
		return false
	}
	e.now = t
	e.ctr.FastSleeps++
	return true
}

// runSteps continues q's chain from a leg that has just ended — its wake
// event was dispatched, or it ran in place. It reports whether q has to stay
// (or go) parked: true when a further leg was scheduled, false when the
// chain is over.
func (e *Engine) runSteps(q *Proc) bool {
	for {
		e.ctr.SteppedLegs++
		e.stepping = q
		d, more := q.steps.Step()
		e.stepping = nil
		if e.dead {
			return true // the Step shut the engine down; q unwinds with the rest
		}
		if !more {
			q.steps = nil
			return false
		}
		if !e.legInPlace(q, d) {
			return true
		}
	}
}

// blockedInStep reports a blocking call made from inside a Step.
func (e *Engine) blockedInStep(p *Proc) {
	panic(fmt.Sprintf("sim: process %q blocked inside a Step of process %q: a Step runs in event context and must not sleep or wait",
		p.name, e.stepping.name))
}

// Yield lets all other events scheduled at the current time run first.
func (p *Proc) Yield() { p.Sleep(0) }
