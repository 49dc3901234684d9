package core

import (
	"oasis/internal/cache"
	"oasis/internal/msgchan"
	"oasis/internal/sim"
)

// Stage is one step of an engine loop's iteration. An engine describes its
// iteration as an ordered stage list, fixed when it builds its driver core
// with it, and the driver core runs nothing else: the stages that have nothing
// to do — and an idle iteration is all of them — without resuming a goroutine
// (see Driver.Step).
//
// A work stage (SteppedWorkStage, WorkStage) is work plus a predicate that
// says when doing it would be a no-op. A poll stage (SteppedPollStage,
// PollStage) drains up to a burst of messages per end into a handler, from
// every link of a LinkSet, and with Control first from the engine's control
// end, if it has one yet: one pass over every ring the core reads.
//
// Work and handlers are jobs (sim.Job): their steps run in event context as
// legs of the driver core's chain, and where a step cannot go on — it would
// block — the core's process finishes that part. A plain function is the job
// that asks for the process at once.
type Stage struct {
	name string

	// Work stage.
	idle func() bool
	work Work

	// Poll stage: the set polled, and the engine's field holding its control
	// end, if the pass polls one (see Control).
	set     *LinkSet
	control **LinkEnd
	burst   int
	pass    pollPass
}

// Work is a work stage's run as a job: Begin starts a run at the instant the
// stage is reached, the job's steps do the work, leg by leg, and Progress is
// read once the run is over: the items it processed.
type Work interface {
	sim.Job
	Begin()
	Progress() int
}

// Handler is a poll stage's handling of one message as a job: Begin hands it
// the message at the instant it was polled, and its steps act on it. The
// payload is valid until the link's next poll, which is after the job ends.
type Handler interface {
	sim.Job
	Begin(l *Link, payload []byte)
}

// SteppedWorkStage is a stage that runs engine code: queue draining, timed
// duties, flushing. w does the work, in legs for what it costs.
//
// idle must hold only at an instant where a run of w would process nothing
// without sleeping, sending or scheduling anything and without changing
// state that anything reads — so that skipping the run cannot be told from
// making it. It is evaluated in event context at the instant the run would
// have started; it must not block. Reporting busy when the run would in fact
// do nothing is always safe: the driver then just runs it. If the run keeps a
// time-of-last-pass mark, idle is what keeps it on the passes it is skipped
// for. Under OASIS_SIMCHECK=1 the driver distrusts idle and runs w anyway
// from its process, panicking if it processed something, took a leg or
// scheduled.
func SteppedWorkStage(name string, idle func() bool, w Work) Stage {
	return Stage{name: name, idle: idle, work: w}
}

// WorkStage is SteppedWorkStage for work that is one function of the
// process: run does the work, sleeping for what it costs, and returns the
// items it processed. The core resumes its process for every run.
func WorkStage(name string, idle func() bool, run func(p *sim.Proc) int) Stage {
	return SteppedWorkStage(name, idle, &procWork{run: run})
}

// SteppedPollStage drains up to burst messages from each link of set, in
// insertion order, into h; every message is loop progress.
func SteppedPollStage(name string, set *LinkSet, burst int, h Handler) Stage {
	return Stage{name: name, set: set, burst: burst, pass: pollPass{h: h, memoize: true}}
}

// PollStage is SteppedPollStage for a handler that is one function of the
// process, which the core resumes for every message.
func PollStage(name string, set *LinkSet, burst int, handle func(p *sim.Proc, l *Link, payload []byte)) Stage {
	return SteppedPollStage(name, set, burst, &procHandler{handle: handle})
}

// Control makes the poll stage's pass poll the engine's control end, the
// one *end holds when the pass begins, before the links of its set: up to
// burst control messages into handle, from the core's process. Its tail load
// goes out with the links' and its empty poll joins their closing flush run,
// so the end costs a pass one more line, not a pass of its own. A payload
// whose opcode is not a control op is dropped uncounted, and a nil *end (no
// control link yet) leaves the pass as it is without it. Control messages
// are not counted in LinkStats.Received; counted says whether they are loop
// progress — a frontend acting on allocator commands has worked, a backend
// draining them beside its timed duties has not.
func (st Stage) Control(end **LinkEnd, handle func(p *sim.Proc, m ControlMsg), counted bool) Stage {
	st.control = end
	st.pass.ctlH, st.pass.counted = &procHandler{ctl: handle}, counted
	return st
}

// procWork is a run function as a Work: a job that stops at its start, for
// the process to make the call.
type procWork struct {
	run     func(p *sim.Proc) int
	n       int
	pending bool
}

func (w *procWork) Begin()                     { w.n, w.pending = 0, true }
func (w *procWork) Step() (sim.Duration, bool) { return 0, false }
func (w *procWork) Blocked() bool              { return w.pending }
func (w *procWork) Finish(p *sim.Proc)         { w.pending = false; w.n = w.run(p) }
func (w *procWork) Progress() int              { return w.n }

// procHandler is a handler function as a Handler, the same way: handle, or
// for a control end ctl, which takes the message decoded.
type procHandler struct {
	handle  func(p *sim.Proc, l *Link, payload []byte)
	ctl     func(p *sim.Proc, m ControlMsg)
	l       *Link
	payload []byte
}

func (h *procHandler) Begin(l *Link, payload []byte) { h.l, h.payload = l, payload }
func (h *procHandler) Step() (sim.Duration, bool)    { return 0, false }
func (h *procHandler) Blocked() bool                 { return h.payload != nil }

func (h *procHandler) Finish(p *sim.Proc) {
	l, payload := h.l, h.payload
	h.l, h.payload = nil, nil
	if h.ctl != nil {
		h.ctl(p, DecodeControl(payload))
		return
	}
	h.handle(p, l, payload)
}

// begin starts the stage's pass over whatever it polls at this instant.
func (st *Stage) begin(eng *sim.Engine) {
	var ctl *LinkEnd
	if st.control != nil {
		ctl = *st.control
	}
	st.pass.begin(eng, ctl, st.set.order, st.burst)
}

// pollPass is one pass over a list of links, up to burst messages from each,
// after an engine's control end if it has one: the position that
// LinkSet.PollEach and a driver's poll stage both advance. A pass is three
// steps, the way a core polls N rings:
//
//  1. the load of every end's tail slot line goes out at once
//     (msgchan.Receiver.LoadAheadIn), and one leg waits until the last has
//     landed — the loads are independent, so they overlap, and N idle rings
//     cost one load-to-use plus the port's serialization of N lines, not N
//     round trips;
//  2. the ends are polled in order, the control end first, each poll
//     collecting its load, and each message is handed to its handler;
//  3. a CLFLUSHOPT for every line the empty polls left to invalidate
//     (msgchan.Receiver.DeferredCost), then one MFENCE — CLFLUSHOPTs are
//     unordered until a fence — as one leg, at whose end the lines are
//     gone.
//
// An idle design-④ ring costs the pass's host time a few integer
// operations, not three walks of the receiver: its fetch is one line of the
// pass's batched run (cache.FetchRun), its poll reads the slot's epoch byte
// (msgchan.Receiver.PollFetched) and, found stale, leaves the closing run
// one CLFLUSHOPT and nothing to drop. A ring that finds a message, or owes
// its counter, is polled through the receiver's steps from the state the
// fetch left, and only rings polled that way are visited at the close.
//
// A pass that would repeat the one before it is replayed from a memo of that
// one in O(1), every effect and leg kept (see capture and replays).
//
// A lone poll (msgchan.Receiver.Poll) closes the same way, so a one-link
// pass costs what it does by construction, leg for leg. It is a sim.Stepper
// over the part of a pass that needs no process — the polls, the handler's
// steps for each message polled and the closing flush run, chained into one
// sleep — and block is the rest: where a handler blocked, or one of the
// receiver's two blocking escapes.
type pollPass struct {
	h    Handler      // what a link's message is handed to
	ctlH *procHandler // what a control message is handed to (see Stage.Control)

	eng      *sim.Engine
	ctl      *LinkEnd // the pass's control end, or nil
	links    []*Link  // the pass's snapshot: the links as they were when it began
	burst    int
	i, n     int          // the end at i is being polled (-1: ctl, else links[i]) and has delivered n messages
	end      *LinkEnd     // that end while a poll of it is in progress
	loaded   sim.Duration // when the last tail load lands; 0 once the pass has waited for it
	flushes  sim.Duration // the CLFLUSHOPTs the empty polls so far left to the pass
	got      int          // messages delivered by this pass that are loop progress
	handling bool         // a handler is handling a message from the end at i
	counted  bool         // control messages are loop progress
	deferred bool         // a poll stepped through its receiver left lines to the closing run
	closing  passEnd      // where the closing flush run is, once every end is polled

	memoize bool      // the pass is made again and again: keep a memo of it (a poll stage's)
	m       *passMemo // the memo and its watch, made on a memoizing pass's first begin
}

// passMemo is what a pass that can be replayed did: one run of fetches that
// the port served at once, every ring found empty by PollFetched at the
// collect instant, no write to any of its rings in flight then, and the
// closing run and fence. While its rings, the port's costs and its watch's
// count stand, and the port is free at a pass's start, the next pass would
// book the same run, wait the same leg, find every ring empty again with
// the same effects and close with the same leg (see replays). The rings'
// EmptyPolls and Fetched are owed reps polls each until the memo ends or
// the counts are read (settle).
type passMemo struct {
	// The pass in progress.
	began   sim.Duration // when it began
	rerun   cache.Rerun  // its fetch run, to book again
	rerunOK bool         // it made one run, from a free port, and has not polled yet
	replay  bool         // it replays the memo and has not yet looked at the watch again

	// The memo, if ok.
	ok      bool
	ctl     *LinkEnd
	links   []*Link
	run     cache.Rerun
	wait    sim.Duration  // from the pass's start to its collect instant, when the last line lands
	flushes sim.Duration  // the CLFLUSHOPTs of the closing run
	count   uint64        // the watch's count when the memo was made
	reps    int64         // passes replayed that the rings' counters do not show yet
	watch   msgchan.Watch // what the rings report the lines written to them to

	passes, replayed int64 // passes begun, and of those replayed
}

// passEnd says where a pass's closing flush run is.
type passEnd uint8

const (
	passFlush   passEnd = iota // charge the deferred CLFLUSHOPTs and the fence
	passFlushed                // their leg is over: drop the lines
	passClosed                 // nothing left
)

func (c *pollPass) begin(eng *sim.Engine, ctl *LinkEnd, links []*Link, burst int) {
	if burst <= 0 {
		ctl, links = nil, nil
	}
	c.eng, c.ctl, c.links, c.burst, c.i, c.n, c.end, c.handling, c.loaded, c.flushes, c.deferred, c.closing, c.got = eng, ctl, links, burst, 0, 0, nil, false, 0, 0, false, passFlush, 0
	if ctl != nil {
		c.i = -1
	}
	if c.memoize {
		if c.m == nil {
			c.m = &passMemo{}
		}
		m := c.m
		m.began, m.rerunOK = eng.Now(), false
		m.passes++
		if m.ok {
			if c.replays() {
				m.run.Book()
				c.loaded, m.replay = m.began+m.wait, true
				m.replayed++
				return
			}
			c.endMemo()
		}
	}
	var run cache.FetchRun
	var loaded sim.Duration
	if ctl != nil {
		loaded = ctl.In.LoadAheadIn(&run)
	}
	for _, l := range links {
		loaded = max(loaded, l.End.In.LoadAheadIn(&run))
	}
	if c.m != nil {
		c.m.rerun, c.m.rerunOK = run.Rerun()
	}
	run.End()
	c.loaded = loaded
}

// replays reports whether the pass just begun repeats the memo's: it polls
// the same ends, nothing was written to their rings since (the watch's
// count), and its fetches would take what the memo's did
// (cache.Rerun.Ready). Then nothing that the memo's pass read has changed.
// A ring is polled only by its pass (a set has one poller), and so only its
// own receiver loads its lines into the host's cache and moves its
// position; only its sender writes it, and each write is counted as it is
// issued. So every ring is still fetchable, its fetch books the same line,
// and its slot still holds a stale epoch once the fetches land, unless a
// write is issued before then (Step looks at the watch again at that
// instant).
func (c *pollPass) replays() bool {
	m := c.m
	return c.ctl == m.ctl && len(c.links) == len(m.links) && (len(c.links) == 0 || &c.links[0] == &m.links[0]) &&
		m.watch.Count() == m.count && m.run.Ready()
}

// capture makes the memo of a pass that found every ring empty from its
// batched fetch, at its collect instant, if no write to any ring is still
// in flight: one issued before now and landing later would change a ring
// without the watch counting it after the memo was made. Its rings report
// to the pass's watch from now on.
func (c *pollPass) capture() {
	m := c.m
	m.watch.Bind(c.eng)
	landed := c.ctl == nil || c.ctl.In.Watch(&m.watch)
	for _, l := range c.links {
		landed = l.End.In.Watch(&m.watch) && landed
	}
	if landed {
		m.ok, m.ctl, m.links, m.run = true, c.ctl, c.links, m.rerun
		m.wait, m.flushes, m.count = c.eng.Now()-m.began, c.flushes, m.watch.Count()
	}
}

// endMemo ends the memo, its rings credited with the polls it replayed.
func (c *pollPass) endMemo() {
	c.settle()
	c.m.ok = false
}

// settle credits the memo's rings with the empty polls of the passes it
// replayed so far (msgchan.Receiver.AddFetched).
func (c *pollPass) settle() {
	m := c.m
	if m == nil || m.reps == 0 {
		return
	}
	if m.ctl != nil {
		m.ctl.In.AddFetched(m.reps)
	}
	for _, l := range m.links {
		l.End.In.AddFetched(m.reps)
	}
	m.reps = 0
}

// unreplay is a replayed pass whose watch counted something while it waited
// for its fetches: a line written may have landed by now. The memo ends, and
// each ring is left as its fetch in a pass of its own would have left it, to
// be polled from the first end as that pass polls them.
func (c *pollPass) unreplay() {
	c.endMemo()
	m, k := c.m, int64(0)
	if c.ctl != nil {
		c.ctl.In.Refetched(m.run.Arrival(m.began, k))
		k++
	}
	for _, l := range c.links {
		l.End.In.Refetched(m.run.Arrival(m.began, k))
		k++
	}
}

// over reports whether every end has been polled and the pass is closed.
func (c *pollPass) over() bool { return c.closing == passClosed }

// handler is what the message of the end at i is handed to.
func (c *pollPass) handler() Handler {
	if c.i < 0 {
		return c.ctlH
	}
	return c.h
}

// Step implements sim.Stepper. It returns more == false when the pass is
// over or block has to take it from here.
func (c *pollPass) Step() (sim.Duration, bool) {
	if c.loaded > 0 {
		wait := c.loaded - c.eng.Now()
		if c.loaded = 0; wait > 0 {
			return wait, true
		}
	}
	if m := c.m; m != nil && m.replay {
		m.replay = false
		if m.watch.Count() != m.count {
			c.unreplay()
		} else {
			m.reps++
			c.i, c.flushes = len(c.links), m.flushes
		}
	}
	for c.i < len(c.links) {
		if c.handling {
			h := c.handler()
			if d, more := h.Step(); more {
				return d, true
			}
			if h.Blocked() {
				return 0, false
			}
			c.handling = false
			if c.i >= 0 || c.counted {
				c.got++
			}
			c.delivered()
			continue
		}
		if c.end == nil {
			if c.pollFetched(); c.i == len(c.links) {
				break
			}
			c.end = c.ctl
			if c.i >= 0 {
				c.end = c.links[c.i].End
			}
			c.end.In.Begin()
		}
		if d, more := c.end.In.Step(); more {
			return d, true
		}
		if c.end.In.Blocked() {
			return 0, false
		}
		end := c.end
		c.end = nil
		payload := end.In.Payload()
		if payload == nil {
			if run := end.In.DeferredCost(); run > 0 {
				c.flushes += run
				c.deferred = true
			}
			c.i, c.n = c.i+1, 0
			continue
		}
		end.inLat.observe(c.eng.Now())
		var l *Link
		if c.i >= 0 {
			l = c.links[c.i]
			l.Stats.Received++
		} else if !IsControlOp(payload[0]) {
			c.delivered()
			continue
		}
		c.handler().Begin(l, payload)
		c.handling = true
	}
	return c.close()
}

// pollFetched makes, from the end at i on, the polls that its batched fetch
// answers (msgchan.Receiver.PollFetched), and leaves i at the first end
// whose poll needs its receiver's steps, or past the last.
func (c *pollPass) pollFetched() {
	i, flushes := c.i, c.flushes
	for ; i < len(c.links); i++ {
		end := c.ctl
		if i >= 0 {
			end = c.links[i].End
		}
		run, ok := end.In.PollFetched()
		if !ok {
			break
		}
		flushes += run
	}
	if i != c.i {
		c.i, c.n, c.flushes = i, 0, flushes
	}
	if m := c.m; m != nil && m.rerunOK {
		// The pass's first polls, at its collect instant: all by its fetch.
		if m.rerunOK = false; i == len(c.links) {
			c.capture()
		}
	}
}

// close runs the pass's third step: the CLFLUSHOPT run its empty polls
// deferred and the fence, as one leg, if there was a run.
func (c *pollPass) close() (sim.Duration, bool) {
	switch c.closing {
	case passFlush:
		c.closing = passClosed
		if c.flushes > 0 {
			c.closing = passFlushed
			first := c.ctl
			if first == nil {
				first = c.links[0].End
			}
			return c.flushes + first.In.FenceLatency(), true
		}
	case passFlushed:
		if c.deferred {
			if c.ctl != nil {
				c.ctl.In.FlushDeferred()
			}
			for _, l := range c.links {
				l.End.In.FlushDeferred()
			}
		}
		c.closing = passClosed
	}
	return 0, false
}

// delivered counts a message against the end's burst.
func (c *pollPass) delivered() {
	if c.n++; c.n >= c.burst {
		c.i, c.n = c.i+1, 0
	}
}

// block does from process p what Step stopped at (the pass is not over), and
// leaves the position where Step carries on.
func (c *pollPass) block(p *sim.Proc) {
	if c.handling {
		c.handler().Finish(p)
		return
	}
	c.end.In.Finish(p) // the escape is behind us; the same poll goes on
}

// run finishes the pass from process p and returns the messages delivered
// that are loop progress.
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
