package core

import "oasis/internal/sim"

// Stage is one step of an engine loop's iteration. An engine describes its
// iteration as an ordered stage list, fixed when it hands the list to its
// Seat, and the driver core runs nothing else: the stages that have nothing
// to do — and an idle iteration is all of them — without resuming a goroutine
// (see Driver.Step).
//
// A work stage (WorkStage) is a function plus a predicate that says when
// calling it would be a no-op. A poll stage drains up to a burst of messages
// per end into a handler: from every link of a LinkSet (PollStage), or from
// the engine's one control end, if it has one yet (ControlStage).
type Stage struct {
	name string

	// Work stage.
	idle func() bool
	run  func(p *sim.Proc) int

	// Poll stage: the set polled, or else the engine's field holding its
	// control end, which ctl (a private one-link list) presents to the pass.
	set     *LinkSet
	control **LinkEnd
	ctl     []*Link
	burst   int
	discard bool // polled messages are not loop progress
	pass    pollPass
}

// WorkStage is a stage that runs engine code: queue draining, timed duties,
// flushing. run does the work, sleeping for what it costs, and returns the
// items it processed.
//
// idle must hold only at an instant where run would return 0 without
// sleeping, sending or scheduling anything and without changing state that
// anything reads — so that skipping the call cannot be told from making it.
// It is evaluated in event context at the instant run would have started; it
// must not block. Reporting busy when run would in fact do nothing is always
// safe: the driver then just calls run. If run keeps a time-of-last-pass
// mark, idle is what keeps it on the passes run is skipped for. Under
// OASIS_SIMCHECK=1 the driver distrusts idle and calls run anyway, panicking
// if it processed something, slept or scheduled.
func WorkStage(name string, idle func() bool, run func(p *sim.Proc) int) Stage {
	return Stage{name: name, idle: idle, run: run}
}

// PollStage drains up to burst messages from each link of set, in insertion
// order, into handle; every message is loop progress.
func PollStage(name string, set *LinkSet, burst int, handle func(p *sim.Proc, l *Link, payload []byte)) Stage {
	return Stage{name: name, set: set, burst: burst, pass: pollPass{each: handle}}
}

// ControlStage drains up to burst control messages from *end into handle; a
// payload whose opcode is not a control op is dropped uncounted, and a nil
// *end (no control link yet) is skipped. counted says whether delivered
// messages are loop progress — a frontend acting on allocator commands has
// worked, a backend draining them beside its timed duties has not.
func ControlStage(name string, end **LinkEnd, burst int, handle func(p *sim.Proc, m ControlMsg), counted bool) Stage {
	return Stage{name: name, control: end, ctl: []*Link{{}}, burst: burst, discard: !counted, pass: pollPass{ctl: handle}}
}

// begin starts the stage's pass over whatever it polls at this instant.
func (st *Stage) begin() {
	switch {
	case st.set != nil:
		st.pass.begin(st.set.order, st.burst)
	case *st.control != nil:
		st.ctl[0].End = *st.control
		st.pass.begin(st.ctl, st.burst)
	default:
		st.pass.begin(nil, 0)
	}
}

// progress is what the finished pass adds to the loop's progress.
func (st *Stage) progress() int {
	if st.discard {
		return 0
	}
	return st.pass.got
}

// pollPass is one pass over a list of links, up to burst messages from each:
// the position that LinkSet.PollEach and a driver's poll stage both advance.
// It is a sim.Stepper over the part of a pass that needs no process —
// consecutive empty polls, chained into one sleep — and block is the rest: a
// message to deliver, one of the receiver's two blocking escapes.
type pollPass struct {
	each func(p *sim.Proc, l *Link, payload []byte) // a message from a link, or
	ctl  func(p *sim.Proc, m ControlMsg)            // a control message, decoded

	links []*Link // the pass's snapshot: the links as they were when it began
	burst int
	i, n  int      // links[i] is being polled and has delivered n messages
	end   *LinkEnd // links[i]'s end while a poll of it is in progress
	got   int      // messages delivered by this pass
}

func (c *pollPass) begin(links []*Link, burst int) {
	if burst <= 0 {
		links = nil
	}
	c.links, c.burst, c.i, c.n, c.end, c.got = links, burst, 0, 0, nil, 0
}

// over reports whether every link has been polled.
func (c *pollPass) over() bool { return c.i >= len(c.links) }

// Step implements sim.Stepper. It returns more == false when the pass is
// over or block has to take it from here.
func (c *pollPass) Step() (sim.Duration, bool) {
	for !c.over() {
		if c.end == nil {
			c.end = c.links[c.i].End
			c.end.In.Begin()
		}
		if d, more := c.end.In.Step(); more {
			return d, true
		}
		if !c.end.In.Empty() {
			return 0, false
		}
		c.end = nil
		c.i, c.n = c.i+1, 0
	}
	return 0, false
}

// block does from process p what Step stopped at (the pass is not over), and
// leaves the position where Step carries on.
func (c *pollPass) block(p *sim.Proc) {
	end := c.end
	payload, fresh, done := end.In.Finish(p)
	if !done {
		return // the escape is behind us; the same poll goes on
	}
	c.end = nil
	if fresh {
		end.inLat.observe(p.Now())
		c.deliver(p, c.links[c.i], payload)
		if c.n++; c.n < c.burst {
			return
		}
	}
	c.i, c.n = c.i+1, 0
}

func (c *pollPass) deliver(p *sim.Proc, l *Link, payload []byte) {
	if c.ctl != nil {
		if !IsControlOp(payload[0]) {
			return
		}
		c.ctl(p, DecodeControl(payload))
	} else {
		l.Stats.Received++
		c.each(p, l, payload)
	}
	c.got++
}

// run finishes the pass from process p and returns the messages delivered.
func (c *pollPass) run(p *sim.Proc) int {
	for {
		if d, more := c.Step(); more {
			p.SleepSteps(d, c)
		}
		if c.over() {
			return c.got
		}
		c.block(p)
	}
}
