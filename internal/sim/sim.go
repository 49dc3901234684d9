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
	"math/bits"
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
	proc *Proc  // non-nil when the event resumes (or starts) a process
	next *event // the next entry of its near bucket (see timeline)
}

// Timer is the closure-free way to schedule work. At(t, func(){...})
// allocates a fresh closure (plus boxed captures) per call, which on
// per-packet paths dominates the allocation profile; a Timer is typically a
// small struct pooled by its owner, and a pointer inside an interface value
// costs nothing to schedule. Fire runs exactly once, in event context, at
// the scheduled time — or never, if the engine shuts down first, so owners
// must not leak resources that only Fire would release.
type Timer interface{ Fire() }

// heapEntry is an event's slot in the far heap: the ordering key beside the
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

// nearWindow is how far ahead of the clock the timeline keeps events in
// per-nanosecond buckets instead of the heap. Counted at every schedule call,
// at − now < 2 048 ns holds for 99.93 % of an idle rack's events, 99.89 % of a
// busy echo pair's and 99.69 % of a storage mix's; at 1 024 ns only 93.7 /
// 97.8 / 98.3 % do, because an idle driver's LoopCost + IdleBackoff sleep is
// 1 060 ns (DESIGN.md §8 has the table). It must be a power of two.
const (
	nearWindow = 2048
	nearMask   = nearWindow - 1
)

// bucket is the FIFO of pending events at one instant.
type bucket struct{ head, tail *event }

// timeline is the pending-event set in two sorted parts and a merge: near, a
// ring of buckets indexed by at & nearMask holding every event scheduled less
// than nearWindow ahead of the clock, and events, a 4-ary heap holding the
// rest ("far"). drive takes the earlier of the heap top and the first occupied
// bucket at or after now, the heap winning ties. That is the (at, seq) order —
// the one order every correct priority queue pops — because:
//
//  1. A bucket holds one instant at a time. Every ring entry lies in
//     [now, now+nearWindow): it did when scheduled, and now only advances,
//     never past a pending entry. Two pending entries congruent mod nearWindow
//     therefore both lie in one span of nearWindow instants, so they are equal.
//  2. seq grows with every schedule call, so a bucket's FIFO order is seq order.
//  3. An entry for instant T went far because at − now ≥ nearWindow and near
//     because at − now < nearWindow, and now never goes back: every far entry
//     for T was scheduled before every near entry for T and carries a smaller
//     seq, which is why the heap wins ties.
//
// The bucket for the current instant is the now-queue: a wakeup scheduled at
// now (a signal, a yield — the dominant pattern) appends to it and is
// dispatched after everything already pending there, without a sift.
type timeline struct {
	events   []heapEntry // far: 4-ary min-heap ordered by (at, seq); see heapPush/heapPop
	near     [nearWindow]bucket
	nearBits [nearWindow / 64]uint64 // bit i set iff near[i] is non-empty
	nearN    int                     // entries in near
}

// Engine owns the virtual clock and the event queue.
// The zero value is not usable; call New.
type Engine struct {
	now Duration
	seq uint64
	timeline
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
	HeapEvents  uint64 // of Events, those dispatched from the far heap (see timeline)
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
	ev.fn, ev.tm, ev.proc, ev.next = nil, nil, nil, nil
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
	if at-e.now >= nearWindow {
		e.heapPush(ev)
		return
	}
	i := uint(at) & nearMask
	b := &e.near[i]
	if b.head == nil {
		b.head = ev
		e.nearBits[i>>6] |= 1 << (i & 63)
	} else {
		b.tail.next = ev
	}
	b.tail = ev
	e.nearN++
}

// after returns the instant d from now, saturating: MaxTime when now + d
// overflows, now when d is not positive. Every relative schedule goes through
// it, so an absolute time handed to schedule has never wrapped.
func (e *Engine) after(d Duration) Duration {
	if d <= 0 {
		return e.now
	}
	if t := e.now + d; t > e.now {
		return t
	}
	return MaxTime
}

// nearAt returns the instant of the first occupied bucket at or after now,
// searching the occupancy bitmap circularly from now's own bit.
func (e *Engine) nearAt() (at Duration, ok bool) {
	if e.nearN == 0 {
		return 0, false
	}
	s := uint(e.now) & nearMask
	w := s >> 6
	if b := e.nearBits[w] >> (s & 63); b != 0 {
		return e.now + Duration(bits.TrailingZeros64(b)), true
	}
	// Whole words from the next boundary on; the last of them is now's own
	// word again, whose bits below now's are the far end of the window.
	off := 64 - s&63
	for range e.nearBits {
		w = (w + 1) & (uint(len(e.nearBits)) - 1)
		if b := e.nearBits[w]; b != 0 {
			return e.now + Duration(off+uint(bits.TrailingZeros64(b))), true
		}
		off += 64
	}
	panic(fmt.Sprintf("sim: timeline counts %d near entries at %v but its bitmap is empty", e.nearN, e.now))
}

// nearPop removes and returns the oldest entry of the bucket for instant at,
// which nearAt has just reported.
func (e *Engine) nearPop(at Duration) *event {
	i := uint(at) & nearMask
	b := &e.near[i]
	ev := b.head
	if b.head = ev.next; b.head == nil {
		b.tail = nil
		e.nearBits[i>>6] &^= 1 << (i & 63)
	}
	e.nearN--
	if simCheck {
		e.checkNear(at, ev)
	}
	return ev
}

// checkNear is the OASIS_SIMCHECK=1 guard on a ring pop: the entry is for the
// instant its bucket was found at (fact 1 of timeline — a bucket that aliased
// two instants panics here, naming them, instead of moving a digest) and the
// entry count agrees with the occupancy bitmap.
func (e *Engine) checkNear(at Duration, ev *event) {
	if ev.at != at {
		panic(fmt.Sprintf("sim: near bucket %d popped at %v holds an event for %v (seq %d)",
			uint(at)&nearMask, at, ev.at, ev.seq))
	}
	occupied := 0
	for _, w := range e.nearBits {
		occupied += bits.OnesCount64(w)
	}
	if occupied > e.nearN || (occupied == 0) != (e.nearN == 0) {
		panic(fmt.Sprintf("sim: timeline counts %d near entries at %v but %d occupied buckets",
			e.nearN, at, occupied))
	}
}

// nextAt returns the instant of the earliest pending event; ok is false when
// nothing is pending. It is the one read of the timeline's front that
// quietUntil and the group's barrier (partition.go) go through.
func (e *Engine) nextAt() (at Duration, ok bool) {
	at, ok = e.nearAt()
	if len(e.events) > 0 && (!ok || e.events[0].at < at) {
		return e.events[0].at, true
	}
	return at, ok
}

// heapPush inserts ev into the far heap. The heap is 4-ary and hand-rolled:
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

// heapPop removes and returns the far heap's earliest event.
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
func (e *Engine) After(d Duration, fn func()) { e.schedule(e.after(d), fn, nil, nil) }

// AtTimer schedules tm.Fire to run at absolute virtual time t. See Timer for
// when to prefer this over At.
func (e *Engine) AtTimer(t Duration, tm Timer) { e.schedule(t, nil, tm, nil) }

// AfterTimer schedules tm.Fire to run d from now.
func (e *Engine) AfterTimer(d Duration, tm Timer) { e.schedule(e.after(d), nil, tm, nil) }

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
// deadline). A deadline already in the past runs nothing and leaves the clock
// where it is: virtual time never goes back. It returns the final virtual time.
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
		at, ok := e.nextAt()
		if !ok {
			return driveDone
		}
		if at > deadline {
			if e.now < deadline {
				e.now = deadline
			}
			return driveDone
		}
		// The merge of the timeline's two parts: the heap wins ties.
		var next *event
		if len(e.events) > 0 && e.events[0].at == at {
			next = e.heapPop()
			e.ctr.HeapEvents++
		} else {
			next = e.nearPop(at)
		}
		e.now = at
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
	// Victims unwind in a defined order: the heap in array order, the ring
	// from now forward (each bucket oldest first), then the blocked list.
	var victims []*Proc
	for _, in := range e.events {
		if in.ev.proc != nil {
			victims = append(victims, in.ev.proc)
		}
	}
	for d := uint(0); d < nearWindow; d++ {
		for ev := e.near[(uint(e.now)+d)&nearMask].head; ev != nil; ev = ev.next {
			if ev.proc != nil {
				victims = append(victims, ev.proc)
			}
		}
	}
	victims = append(victims, e.blocked...)
	if e.stepping != nil {
		// Shutdown called from a Step: the stepped process's wake event has
		// been popped, so neither walk above found it.
		victims = append(victims, e.stepping)
	}
	e.timeline = timeline{}
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
	e := p.eng
	if e.stepping != nil {
		e.blockedInStep(p)
	}
	t := e.after(d)
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
	if e.dead || t > e.deadline {
		return false
	}
	at, ok := e.nextAt()
	return !ok || at > t
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
	t := e.after(d)
	if d <= 0 || !e.quietUntil(t) {
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
