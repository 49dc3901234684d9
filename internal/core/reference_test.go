package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/sim"
)

// The driver core's stepped iteration must be the blocking loop it replaced,
// sleep for sleep. These are that loop and the per-link poll passes it was
// made of, kept as the reference the cursor is compared against: the process
// is resumed for every poll and every iteration's own sleep.

func refRun(r *oracleRig, p *sim.Proc) {
	d := r.drv
	idle := sim.Duration(0)
	for {
		for d.stalled {
			d.stallSig.Wait(p)
		}
		progress := r.pollOnce(p)
		d.Iterations++
		d.Processed += int64(progress)
		if progress > 0 {
			idle = 0
			p.Sleep(d.cfg.LoopCost)
			continue
		}
		d.IdleIterations++
		idle = refNextIdle(idle, d.cfg.LoopCost, d.cfg.IdleBackoff)
		p.Sleep(d.cfg.LoopCost + idle)
	}
}

// refNextIdle is the stateful doubling the blocking loop used (start, then
// ×2, clamped to cap each step; 0 cap disables) — the oracle for Backoff.
func refNextIdle(cur, start, cap sim.Duration) sim.Duration {
	if cap <= 0 {
		return 0
	}
	if cur == 0 {
		cur = start
	} else {
		cur *= 2
	}
	if cur > cap {
		cur = cap
	}
	return cur
}

// refPass is a poll stage's pass under the batched rule, written as a
// blocking call: the tail loads of the control end (if there is one) and of
// every link issued up front and one sleep until the last lands; up to burst
// control messages from ctrl into handleCtl, a payload that is not a control
// op dropped uncounted, and control messages loop progress only if counted;
// up to burst messages from each link into handle, each poll run from the
// process with its empty flush run left over; then one sleep for all the
// CLFLUSHOPTs and the fence.
func refPass(p *sim.Proc, ctrl *LinkEnd, links []*Link, burst int, handle func(p *sim.Proc, l *Link, payload []byte),
	handleCtl func(p *sim.Proc, m ControlMsg), counted bool) int {
	if burst <= 0 {
		return 0
	}
	var ends []*LinkEnd
	if ctrl != nil {
		ends = append(ends, ctrl)
	}
	for _, l := range links {
		ends = append(ends, l.End)
	}
	refLoadAhead(p, ends)
	progress := 0
	for i := 0; ctrl != nil && i < burst; i++ {
		payload, ok := refPollDeferred(ctrl, p)
		if !ok {
			break
		}
		if IsControlOp(payload[0]) {
			handleCtl(p, DecodeControl(payload))
			if counted {
				progress++
			}
		}
	}
	for _, l := range links {
		for i := 0; i < burst; i++ {
			payload, ok := refPollDeferred(l.End, p)
			if !ok {
				break
			}
			l.Stats.Received++
			handle(p, l, payload)
			progress++
		}
	}
	refFlushDeferred(p, ends)
	return progress
}

// refPollEach is LinkSet.PollEach: the pass over a set's links alone.
func refPollEach(s *LinkSet, p *sim.Proc, burst int, handle func(p *sim.Proc, l *Link, payload []byte)) int {
	return refPass(p, nil, s.order, burst, handle, nil, false)
}

// refLoadAhead issues the ends' tail loads and sleeps until the last lands.
func refLoadAhead(p *sim.Proc, ends []*LinkEnd) {
	var loaded sim.Duration
	for _, e := range ends {
		loaded = max(loaded, e.In.LoadAhead())
	}
	if wait := loaded - p.Now(); wait > 0 {
		p.Sleep(wait)
	}
}

// refPollDeferred is LinkEnd.Poll for a poll made in a pass.
func refPollDeferred(end *LinkEnd, p *sim.Proc) ([]byte, bool) {
	end.In.Begin()
	p.RunJob(end.In)
	payload := end.In.Payload()
	if payload == nil {
		return nil, false
	}
	end.inLat.observe(p.Now())
	return payload, true
}

func refFlushDeferred(p *sim.Proc, ends []*LinkEnd) {
	var run sim.Duration
	for _, e := range ends {
		run += e.In.DeferredCost()
	}
	if run == 0 {
		return
	}
	p.Sleep(run + ends[0].In.FenceLatency())
	for _, e := range ends {
		e.In.FlushDeferred()
	}
}

// refSendOrQueue, refSend and refFlush are a link's operations as they were
// written before a link could step them: straight over its end's blocking
// calls.
func refSendOrQueue(l *Link, p *sim.Proc, payload []byte) {
	if len(l.pending) == 0 && refSend(l, p, payload) {
		return
	}
	l.park(payload)
}

func refSend(l *Link, p *sim.Proc, payload []byte) bool {
	if !l.End.Send(p, payload) {
		l.Stats.SendFull++
		return false
	}
	l.Stats.Sent++
	return true
}

func refFlush(l *LinkEnd, p *sim.Proc) { l.Out.Flush(p) }

// runStages runs one iteration of a stage list from the calling process,
// every stage in turn, and returns the items processed: what the staged
// engines' PollOnce used to be, and what an opaque loop built over a stage
// list still is.
func runStages(p *sim.Proc, stages []Stage) int {
	progress := 0
	for i := range stages {
		st := &stages[i]
		if st.work != nil {
			st.work.Begin()
			p.RunJob(st.work)
			progress += st.work.Progress()
			continue
		}
		st.begin(p.Engine())
		progress += st.pass.run(p)
	}
	return progress
}

// pollJoined is a poll stage's pass over a set and a control end, as a
// call: what an opaque loop makes of the engines' joined pass.
func pollJoined(p *sim.Proc, s *LinkSet, ctrl *LinkEnd, burst int, handle func(p *sim.Proc, l *Link, payload []byte),
	handleCtl func(p *sim.Proc, m ControlMsg), counted bool) int {
	st := PollStage("links", s, burst, handle).Control(&ctrl, handleCtl, counted)
	st.begin(p.Engine())
	return st.pass.run(p)
}

const oracleBurst = 3

// oracleRig is one driver core, the peers it talks to and everything that
// happens to them in a seeded program, on one engine. The core's one loop is
// 1–3 groups of stages in a row: the iteration a core running that many
// loops would make.
type oracleRig struct {
	tag  string
	eng  *sim.Engine
	pool *cxl.Pool
	a, b *host.Host // the core under test, and the host its peers send from
	ref  bool       // run the reference loop and passes instead of the cursor
	cfg  msgchan.Config
	drv  *Driver
	log  []string

	groups  []*oracleGroup
	targets []oracleTarget // what the traffic process sends on; grows as links are added
	ends    []*LinkEnd     // every end ever made, for the final dump
	evRng   *rand.Rand     // drawn from in event context only
}

// oracleTarget is a peer-side end and whether it is a control link.
type oracleTarget struct {
	end *LinkEnd
	ctl bool
}

func (r *oracleRig) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("%10d %s", r.eng.Now(), fmt.Sprintf(format, args...)))
}

// link makes a duplex link a<->b and registers the peer end as a target.
func (r *oracleRig) link(ctl bool) *LinkEnd {
	aEnd, bEnd, err := NewDuplexLink(r.pool, r.a, r.b, r.cfg)
	if err != nil {
		panic(err)
	}
	r.ends = append(r.ends, aEnd, bEnd)
	r.targets = append(r.targets, oracleTarget{bEnd, ctl})
	return aEnd
}

// oracleGroup is a group of stages of every kind: a work queue fed by
// timers, a pass over a link set and an optional control end that may arrive
// late, and the flush. Its work, handler and flush are written twice: as calls
// from the process, and as jobs whose steps the core runs in event context.
type oracleGroup struct {
	rig      *oracleRig
	name     string
	links    *LinkSet
	ctrl     *LinkEnd
	counted  bool
	queue    []int
	nextPeer uint32

	qw queueWork
	hj handlerJob
}

func (l *oracleGroup) queueIdle() bool { return len(l.queue) == 0 && l.links.PendingCount() == 0 }

// workLeg is the leg an item costs: item%4 == 0 yields.
func workLeg(item int) sim.Duration { return sim.Duration(item%4) * 25 * time.Nanosecond }

// workRemainder is the part of some items' work that only the process does.
const workRemainder = 30 * time.Nanosecond

func (l *oracleGroup) runQueue(p *sim.Proc) int {
	progress := l.links.PendingCount()
	l.links.DrainPending(p)
	for n := 0; n < oracleBurst && len(l.queue) > 0; n++ {
		item := l.queue[0]
		l.queue = l.queue[1:]
		l.rig.logf("%s work %d", l.name, item)
		p.Sleep(workLeg(item))
		if item%7 == 3 {
			p.Sleep(workRemainder)
			l.rig.logf("%s work %d remainder", l.name, item)
		}
		if links := l.links.All(); len(links) > 0 && item%2 == 0 {
			l.sendOrQueue(links[item%len(links)], p, []byte{byte(item), 0xAA, 0x33})
		}
		progress++
	}
	return progress
}

// queueWork is runQueue as a job. Redriving parked messages and the
// remainder of an item hand back to the process.
type queueWork struct {
	l        *oracleGroup
	pc       int
	n, item  int
	progress int
	lk       *Link
}

const (
	qDrain     = iota // the process redrives parked messages
	qNext             // take the next item
	qWorked           // the item's leg is over
	qRemainder        // the process does the item's remainder
	qSend             // send the item's message, if it has one
	qSending          // lk's send is in progress
	qDone
)

func (w *queueWork) Begin() {
	w.n, w.progress, w.pc = 0, w.l.links.PendingCount(), qNext
	if w.progress > 0 {
		w.pc = qDrain
	}
}

func (w *queueWork) Step() (sim.Duration, bool) {
	l := w.l
	for {
		switch w.pc {
		case qNext:
			if w.n == oracleBurst || len(l.queue) == 0 {
				w.pc = qDone
				return 0, false
			}
			w.item = l.queue[0]
			l.queue = l.queue[1:]
			l.rig.logf("%s work %d", l.name, w.item)
			w.pc = qWorked
			return workLeg(w.item), true
		case qWorked:
			w.pc = qSend
			if w.item%7 == 3 {
				w.pc = qRemainder
				return 0, false
			}
		case qSend:
			w.pc = qSending
			w.lk = nil
			if links := l.links.All(); len(links) > 0 && w.item%2 == 0 {
				w.lk = links[w.item%len(links)]
				w.lk.BeginSendOrQueue([]byte{byte(w.item), 0xAA, 0x33})
			}
		case qSending:
			if w.lk != nil {
				if d, more := w.lk.Step(); more {
					return d, true
				}
			}
			w.progress++
			w.n++
			w.pc = qNext
		default:
			return 0, false
		}
	}
}

func (w *queueWork) Blocked() bool { return w.pc == qDrain || w.pc == qRemainder }

func (w *queueWork) Finish(p *sim.Proc) {
	if w.pc == qDrain {
		w.l.links.DrainPending(p)
		w.pc = qNext
		return
	}
	p.Sleep(workRemainder)
	w.l.rig.logf("%s work %d remainder", w.l.name, w.item)
	w.pc = qSend
}

func (w *queueWork) Progress() int { return w.progress }

// hop is one operation of a handler: a sleep, a part only the process does
// (a sleep, then a log line), a SendOrQueue or a Send of the reply, a flush.
type hop struct {
	kind byte // 's', 'r', 'q', 't', 'f'
	d    sim.Duration
}

// handlerOps is what a message does, by its first byte mod 8.
var handlerOps = [8][]hop{
	{{'s', 40}},
	{{'q', 0}},
	{{'s', 15}, {'q', 0}},
	nil,
	{{'s', 0}, {'t', 0}},
	{{'s', 10}, {'r', 25}, {'q', 0}, {'s', 5}, {'f', 0}},
	{{'f', 0}, {'s', 7}},
	{{'r', 3}, {'s', 4}, {'r', 0}},
}

func (l *oracleGroup) handle(p *sim.Proc, lk *Link, payload []byte) {
	l.rig.logf("%s link %d got %x", l.name, lk.Peer, payload[:3])
	reply := []byte{payload[0], payload[1], 0xEE}
	for _, op := range handlerOps[payload[0]%8] {
		switch op.kind {
		case 's':
			p.Sleep(op.d)
		case 'r':
			p.Sleep(op.d)
			l.rig.logf("%s link %d remainder", l.name, lk.Peer)
		case 'q':
			l.sendOrQueue(lk, p, reply)
		case 't':
			sent := lk.Send
			if l.rig.ref {
				sent = func(p *sim.Proc, payload []byte) bool { return refSend(lk, p, payload) }
			}
			l.rig.logf("%s link %d sent %v", l.name, lk.Peer, sent(p, reply))
		case 'f':
			l.flushEnd(lk.End, p)
		}
	}
}

// handlerJob is handle as a job: its legs, sends and flushes in event
// context, every 'r' operation from the process.
type handlerJob struct {
	l     *oracleGroup
	lk    *Link
	reply [3]byte
	ops   []hop
	cur   sim.Stepper // ops[0]'s send or flush, in progress
}

func (h *handlerJob) Begin(lk *Link, payload []byte) {
	h.l.rig.logf("%s link %d got %x", h.l.name, lk.Peer, payload[:3])
	h.lk, h.reply, h.ops, h.cur = lk, [3]byte{payload[0], payload[1], 0xEE}, handlerOps[payload[0]%8], nil
}

func (h *handlerJob) Step() (sim.Duration, bool) {
	for len(h.ops) > 0 {
		op := h.ops[0]
		if h.cur != nil {
			if d, more := h.cur.Step(); more {
				return d, true
			}
			if op.kind == 't' {
				h.l.rig.logf("%s link %d sent %v", h.l.name, h.lk.Peer, h.lk.Sent())
			}
			h.cur = nil
			h.ops = h.ops[1:]
			continue
		}
		switch op.kind {
		case 's':
			h.ops = h.ops[1:]
			return op.d, true
		case 'r':
			return 0, false
		case 'q':
			h.lk.BeginSendOrQueue(h.reply[:])
			h.cur = h.lk
		case 't':
			h.lk.BeginSend(h.reply[:])
			h.cur = h.lk
		case 'f':
			h.lk.End.Out.BeginFlush()
			h.cur = h.lk.End.Out
		}
	}
	return 0, false
}

func (h *handlerJob) Blocked() bool { return len(h.ops) > 0 && h.ops[0].kind == 'r' && h.cur == nil }

func (h *handlerJob) Finish(p *sim.Proc) {
	p.Sleep(h.ops[0].d)
	h.l.rig.logf("%s link %d remainder", h.l.name, h.lk.Peer)
	h.ops = h.ops[1:]
}

func (l *oracleGroup) handleCtl(p *sim.Proc, m ControlMsg) {
	l.rig.logf("%s control op %d dev %d", l.name, m.Op, m.Dev)
	if m.Dev%2 == 0 {
		p.Sleep(20 * time.Nanosecond)
	}
}

func (l *oracleGroup) flushIdle() bool { return l.links.FlushIdle() && !l.ctrl.Unflushed() }

func (l *oracleGroup) flush(p *sim.Proc) int {
	if l.rig.ref {
		for _, lk := range l.links.All() {
			refFlush(lk.End, p)
		}
	} else {
		l.links.FlushAll(p)
	}
	if l.ctrl != nil {
		l.flushEnd(l.ctrl, p)
	}
	return 0
}

// sendOrQueue and flushEnd are the link operations of the loop's functions:
// the reference's, or the links' own.
func (l *oracleGroup) sendOrQueue(lk *Link, p *sim.Proc, payload []byte) {
	if l.rig.ref {
		refSendOrQueue(lk, p, payload)
	} else {
		lk.SendOrQueue(p, payload)
	}
}

func (l *oracleGroup) flushEnd(end *LinkEnd, p *sim.Proc) {
	if l.rig.ref {
		refFlush(end, p)
	} else {
		end.Flush(p)
	}
}

// stages is the group as a stage list: of jobs, or with stepped false, of
// the functions the core hands to its process.
func (l *oracleGroup) stages(stepped bool) []Stage {
	if !stepped {
		return []Stage{
			WorkStage("queue", l.queueIdle, l.runQueue),
			PollStage("links", l.links, oracleBurst, l.handle).Control(&l.ctrl, l.handleCtl, l.counted),
			WorkStage("flush", l.flushIdle, l.flush),
		}
	}
	l.qw.l, l.hj.l = l, l
	return []Stage{
		SteppedWorkStage("queue", l.queueIdle, &l.qw),
		SteppedPollStage("links", l.links, oracleBurst, &l.hj).Control(&l.ctrl, l.handleCtl, l.counted),
		SteppedWorkStage("flush", l.flushIdle, NewFlushJob(l.links, &l.ctrl)),
	}
}

// pollOnce is the iteration as the engines used to write it by hand, over
// the reference pass or over today's: PollEach, or a poll stage's pass once
// there is a control end.
func (l *oracleGroup) pollOnce(p *sim.Proc) int {
	progress := l.runQueue(p)
	switch {
	case l.rig.ref:
		progress += refPass(p, l.ctrl, l.links.order, oracleBurst, l.handle, l.handleCtl, l.counted)
	case l.ctrl == nil:
		progress += l.links.PollEach(p, oracleBurst, l.handle)
	default:
		progress += pollJoined(p, l.links, l.ctrl, oracleBurst, l.handle, l.handleCtl, l.counted)
	}
	l.flush(p)
	return progress
}

// pollOnce is the core's iteration written by hand: each group's pass in
// turn.
func (r *oracleRig) pollOnce(p *sim.Proc) int {
	progress := 0
	for _, g := range r.groups {
		progress += g.pollOnce(p)
	}
	return progress
}

// opaqueLoop hides a core's groups from the driver: it goes on the core
// through Driver.Attach's adapter, which has to resume the process and call
// PollOnce on every iteration. PollOnce is the hand-written iteration, or,
// with a stage list, one run of it from the process.
type opaqueLoop struct {
	rig    *oracleRig
	stages []Stage
}

func (o opaqueLoop) PollOnce(p *sim.Proc) int {
	if o.stages != nil {
		return runStages(p, o.stages)
	}
	return o.rig.pollOnce(p)
}

// addGroup builds a group with 0–8 links and, half the time, a control end
// (made now, or handed over later by a timer). It reports whether the group's
// stages are jobs.
func (r *oracleRig) addGroup(rng *rand.Rand, horizon sim.Duration) (stepped bool) {
	l := &oracleGroup{rig: r, name: fmt.Sprintf("%s/group%d", r.tag, len(r.groups)), links: NewLinkSet(4), counted: rng.Intn(2) == 0}
	r.groups = append(r.groups, l)
	for n := rng.Intn(9); n > 0; n-- {
		l.links.Add(l.nextPeer, r.link(false))
		l.nextPeer++
	}
	switch rng.Intn(4) {
	case 0:
		l.ctrl = r.link(true)
	case 1:
		end := r.link(true)
		r.eng.After(sim.Duration(rng.Int63n(int64(horizon))), func() { l.ctrl = end })
	}
	return rng.Intn(3) != 0
}

// newDriver builds the core with its one loop: the groups' stage lists in a
// row, the way every engine builds its core, or an opaque loop through the
// adapter. The reference core calls the hand-written passes whichever it is.
func (r *oracleRig) newDriver(name string, cfg DriverConfig, mode int, stepped []bool) *Driver {
	var stages []Stage
	for i, g := range r.groups {
		stages = append(stages, g.stages(stepped[i])...)
	}
	switch {
	case r.ref:
		return NewDriver(r.a, name, cfg)
	case mode == 0:
		d := NewDriver(r.a, name, cfg)
		d.Attach(opaqueLoop{rig: r})
		return d
	case mode == 1:
		d := NewDriver(r.a, name, cfg)
		d.Attach(opaqueLoop{stages: stages})
		return d
	default:
		return NewDriver(r.a, name, cfg, stages...)
	}
}

// start launches the core: the cursor, or the reference loop in its place.
func (r *oracleRig) start() {
	if !r.ref {
		r.drv.Start()
		return
	}
	r.drv.started = true
	r.eng.Go(r.drv.name, func(p *sim.Proc) { refRun(r, p) })
}

// newOracleRig builds the seeded program on eng and schedules everything
// that will happen to the core within horizon.
func newOracleRig(eng *sim.Engine, tag string, seed int64, horizon sim.Duration, ref bool) *oracleRig {
	rng := rand.New(rand.NewSource(seed))
	r := &oracleRig{tag: tag, eng: eng, ref: ref, evRng: rand.New(rand.NewSource(seed + 1))}
	r.pool = cxl.NewPool(eng, 1<<24, cxl.DefaultParams())
	r.a = host.New(eng, 0, tag+"/a", r.pool, host.DefaultConfig())
	r.b = host.New(eng, 1, tag+"/b", r.pool, host.DefaultConfig())
	r.cfg = msgchan.Config{Slots: 16, MsgSize: 16, PrefetchDepth: 2, CounterBatch: 4,
		Design: msgchan.DesignBypassCache + msgchan.Design(seed%4), Category: "message"}
	dcfg := DriverConfig{LoopCost: sim.Duration(60+rng.Intn(60)) * time.Nanosecond}
	if rng.Intn(2) == 0 {
		dcfg.IdleBackoff = time.Microsecond
	}
	var stepped []bool
	for n := 1 + rng.Intn(3); n > 0; n-- {
		stepped = append(stepped, r.addGroup(rng, horizon))
	}
	r.drv = r.newDriver(tag+"/core", dcfg, rng.Intn(3), stepped)
	at := func() sim.Duration { return sim.Duration(rng.Int63n(int64(horizon))) }

	// Work for the queues.
	for i := 0; i < 30; i++ {
		item := rng.Intn(1000)
		eng.After(at(), func() {
			l := r.groups[r.evRng.Intn(len(r.groups))]
			l.queue = append(l.queue, item)
		})
	}
	// Stalls, each released a little later: most land mid-chain.
	for i := 0; i < 3; i++ {
		t := at()
		eng.After(t, r.drv.Stall)
		eng.After(t+sim.Duration(rng.Intn(4000))*time.Nanosecond, r.drv.Resume)
	}
	// Links added to sets that are, most of the time, part-way through a
	// pass.
	for i := 0; i < 4; i++ {
		eng.After(at(), func() {
			l := r.groups[r.evRng.Intn(len(r.groups))]
			l.links.Add(l.nextPeer, r.link(false))
			l.nextPeer++
		})
	}
	// Lines vanishing under their fills: the receiver's refetch escape.
	for i := 0; i < 12; i++ {
		eng.After(at(), r.a.Cache.InvalidateAll)
	}

	// The disturber keeps its sleeps inside everyone else's, so almost no
	// sleep gets the lone-process fast path; now and then it steps aside
	// for a few µs and they do. Its ticks put the engine's sequence number
	// on the record all along the run.
	drng := rand.New(rand.NewSource(seed + 2))
	eng.Go(tag+"/disturber", func(p *sim.Proc) {
		for {
			if drng.Intn(60) == 0 {
				p.Sleep(sim.Duration(2000+drng.Intn(4000)) * time.Nanosecond)
			} else {
				p.Sleep(sim.Duration(1+drng.Intn(40)) * time.Nanosecond)
			}
			r.logf("tick seq %d", eng.Seq())
		}
	})
	// The peers: bursts of messages at random times on random links, left
	// unflushed now and then, and the replies drained.
	trng := rand.New(rand.NewSource(seed + 3))
	eng.Go(tag+"/traffic", func(p *sim.Proc) {
		for n := 0; ; n++ {
			// Bursts a few hundred ns apart, then a lull the core idles through.
			if trng.Intn(3) == 0 {
				p.Sleep(sim.Duration(5000+trng.Intn(25000)) * time.Nanosecond)
			} else {
				p.Sleep(sim.Duration(trng.Intn(300)) * time.Nanosecond)
			}
			if len(r.targets) == 0 {
				continue
			}
			tg := r.targets[trng.Intn(len(r.targets))]
			for k := 1 + trng.Intn(5); k > 0; k-- {
				switch {
				case !tg.ctl:
					tg.end.Send(p, []byte{byte(trng.Intn(256)), byte(n), 0x11})
				case trng.Intn(5) == 0:
					tg.end.Send(p, []byte{0xF0, byte(n), 0x22}) // not a control op: dropped uncounted
				default:
					SendControl(p, tg.end, ControlMsg{Op: CtlLinkDown + byte(trng.Intn(3)), Kind: DeviceNIC, Dev: uint16(n)})
				}
			}
			if trng.Intn(4) != 0 {
				tg.end.Flush(p)
			}
			// Drain replies, here and elsewhere, so rings and pending queues
			// fill up and empty again.
			for k := trng.Intn(8); k > 0; k-- {
				tg.end.Poll(p)
			}
			if other := r.targets[trng.Intn(len(r.targets))].end; trng.Intn(2) == 0 {
				for k := trng.Intn(20); k > 0; k-- {
					other.Poll(p)
				}
			}
		}
	})
	return r
}

// dump renders everything observable about the finished run.
func (r *oracleRig) dump() string {
	var b strings.Builder
	d := r.drv
	d.EmptyPolls() // credits the ends with the polls of replayed passes
	b.WriteString(strings.Join(r.log, "\n"))
	fmt.Fprintf(&b, "\n== %s: now %d seq %d core %d/%d/%d/%d cache %+v ==\n", r.tag, r.eng.Now(), r.eng.Seq(),
		d.Iterations, d.IdleIterations, d.Processed, d.Stalls, r.a.Cache.Stats())
	for _, l := range r.groups {
		fmt.Fprintf(&b, "%s: queue %d links %d agg %+v\n", l.name, len(l.queue), l.links.Len(), l.links.Stats())
	}
	for i, e := range r.ends {
		fmt.Fprintf(&b, "end %d: rx %d/%d/%d tx %d/%d/%d/%d/%d lat %d\n", i, e.In.Received, e.In.EmptyPolls, e.In.CounterUpdates,
			e.Out.Sent, e.Out.FullStalls, e.Out.CounterReads, e.Out.LinesWritten, e.Out.PartialFlushes, e.InLatency().Count())
	}
	return b.String()
}

// runDriverProgram runs one seeded program — on a bare engine, or as two
// rigs on the two partitions of a group — in slices, so that deadlines fall
// inside chains, and ends it with a Shutdown that does too.
func runDriverProgram(seed int64, partitioned, ref bool) string {
	const horizon = 300 * time.Microsecond
	var g *sim.Group
	var rigs []*oracleRig
	if !partitioned {
		rigs = []*oracleRig{newOracleRig(sim.New(), "r", seed, horizon, ref)}
	} else {
		g = sim.NewGroup()
		e0, e1 := g.AddPartition(), g.AddPartition()
		rigs = []*oracleRig{
			newOracleRig(e0, "p0", seed, horizon, ref),
			newOracleRig(e1, "p1", seed+100, horizon, ref),
		}
	}
	for _, r := range rigs {
		r.start()
	}
	slice := sim.Duration(900+seed%11*131) * time.Nanosecond
	for t := slice; t < horizon; t += slice {
		if g != nil {
			g.RunUntil(t)
		} else {
			rigs[0].eng.RunUntil(t)
		}
	}
	if g != nil {
		g.Shutdown() // the last deadline fell mid-chain
	} else {
		e := rigs[0].eng
		e.After(333*time.Nanosecond, e.Shutdown) // from a callback, mid-chain
		e.RunUntil(horizon + slice)
	}
	var b strings.Builder
	for _, r := range rigs {
		if n := r.eng.Procs(); n != 0 {
			panic(fmt.Sprintf("%s: %d processes leaked", r.tag, n))
		}
		b.WriteString(r.dump())
	}
	return b.String()
}

// The driver core as a stepper, PollEach as a chained pass and the engines'
// iteration as a stage list, against the blocking loop and per-link passes
// they replaced: over seeded programs — one loop a core, 1–3 groups of
// stages in a row, built into the core as its stage list or put on it as an
// opaque loop through Attach's adapter, each group's work, handler and flush
// as functions of the process or as jobs stepped in event context with
// random legs, sends and flushes and a remainder only the process does at
// random points, 0–8 links a set, peers sending at random times, a
// disturber, stalls, links added mid-pass, deadlines and a Shutdown
// mid-chain — every handler call, every disturber tick's sequence number,
// the final (time, seq), the core's counters and every endpoint's stats
// must be equal.
func TestDriverMatchesBlockingReference(t *testing.T) {
	for _, partitioned := range []bool{false, true} {
		for seed := int64(1); seed <= 10; seed++ {
			want := runDriverProgram(seed, partitioned, true)
			got := runDriverProgram(seed, partitioned, false)
			if got != want {
				t.Fatalf("partitioned=%v seed=%d: the stepped core diverged from the blocking reference\n%s",
					partitioned, seed, firstDiff(want, got))
			}
			for _, must := range []string{" got ", " work ", "tick seq", " remainder", " sent "} {
				if !strings.Contains(want, must) {
					t.Fatalf("partitioned=%v seed=%d: no %q in the log: the program is too small to mean anything", partitioned, seed, must)
				}
			}
		}
	}
}

// firstDiff renders the first differing line of two logs with some context.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			lo := max(i-6, 0)
			return fmt.Sprintf("line %d of %d/%d\n%s\nreference: %s\nstepped:   %s", i, len(w), len(g),
				strings.Join(w[lo:i], "\n"), w[i], g[i])
		}
	}
	return fmt.Sprintf("one log is a prefix of the other: %d vs %d lines", len(w), len(g))
}
