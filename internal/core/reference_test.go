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
		progress := 0
		for _, pollOnce := range r.refLoops {
			progress += pollOnce(p)
		}
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

func refPollEach(s *LinkSet, p *sim.Proc, burst int, handle func(p *sim.Proc, l *Link, payload []byte)) int {
	progress := 0
	for _, l := range s.order {
		for i := 0; i < burst; i++ {
			payload, ok := l.End.Poll(p)
			if !ok {
				break
			}
			l.Stats.Received++
			handle(p, l, payload)
			progress++
		}
	}
	return progress
}

func refPollControl(p *sim.Proc, end *LinkEnd, burst int, handle func(p *sim.Proc, m ControlMsg)) int {
	n := 0
	for i := 0; i < burst; i++ {
		payload, ok := end.Poll(p)
		if !ok {
			break
		}
		if IsControlOp(payload[0]) {
			handle(p, DecodeControl(payload))
			n++
		}
	}
	return n
}

// runStages runs one iteration of a stage list from the calling process,
// every stage in turn, and returns the items processed: what the staged
// engines' PollOnce used to be, and what an opaque loop built over a stage
// list still is.
func runStages(p *sim.Proc, stages []Stage) int {
	progress := 0
	for i := range stages {
		st := &stages[i]
		if st.run != nil {
			progress += st.run(p)
			continue
		}
		st.begin()
		st.pass.run(p)
		progress += st.progress()
	}
	return progress
}

// pollControl is a ControlStage's pass as a call, the way the engines used
// to poll their control end: up to burst control messages from end into
// handle, a payload that is not a control op dropped uncounted.
func pollControl(p *sim.Proc, end *LinkEnd, burst int, handle func(p *sim.Proc, m ControlMsg)) int {
	c := &pollPass{ctl: handle}
	c.begin([]*Link{{End: end}}, burst)
	return c.run(p)
}

const oracleBurst = 3

// oracleRig is one driver core, the peers it talks to and everything that
// happens to them in a seeded program, on one engine.
type oracleRig struct {
	tag  string
	eng  *sim.Engine
	pool *cxl.Pool
	a, b *host.Host // the core under test, and the host its peers send from
	ref  bool       // run the reference loop and passes instead of the cursor
	cfg  msgchan.Config
	drv  *Driver
	log  []string

	loops    []*oracleLoop
	refLoops []func(p *sim.Proc) int // the reference core's loop list
	targets  []oracleTarget          // what the traffic process sends on; grows as links are added
	ends     []*LinkEnd              // every end ever made, for the final dump
	evRng    *rand.Rand              // drawn from in event context only
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

// oracleLoop is an engine loop with every kind of stage: a work queue fed by
// timers, a polled link set, an optional control end that may arrive late,
// and the flush.
type oracleLoop struct {
	rig      *oracleRig
	name     string
	links    *LinkSet
	ctrl     *LinkEnd
	counted  bool
	queue    []int
	nextPeer uint32
}

func (l *oracleLoop) queueIdle() bool { return len(l.queue) == 0 && l.links.PendingCount() == 0 }

func (l *oracleLoop) runQueue(p *sim.Proc) int {
	progress := l.links.PendingCount()
	l.links.DrainPending(p)
	for n := 0; n < oracleBurst && len(l.queue) > 0; n++ {
		item := l.queue[0]
		l.queue = l.queue[1:]
		l.rig.logf("%s work %d", l.name, item)
		p.Sleep(sim.Duration(item%4) * 25 * time.Nanosecond) // item%4 == 0 yields
		if links := l.links.All(); len(links) > 0 && item%2 == 0 {
			links[item%len(links)].SendOrQueue(p, []byte{byte(item), 0xAA, 0x33})
		}
		progress++
	}
	return progress
}

func (l *oracleLoop) handle(p *sim.Proc, lk *Link, payload []byte) {
	l.rig.logf("%s link %d got %x", l.name, lk.Peer, payload[:3])
	reply := []byte{payload[0], payload[1], 0xEE}
	switch payload[0] % 4 {
	case 0:
		p.Sleep(40 * time.Nanosecond)
	case 1:
		lk.SendOrQueue(p, reply)
	case 2:
		p.Sleep(15 * time.Nanosecond)
		lk.SendOrQueue(p, reply)
	}
}

func (l *oracleLoop) handleCtl(p *sim.Proc, m ControlMsg) {
	l.rig.logf("%s control op %d dev %d", l.name, m.Op, m.Dev)
	if m.Dev%2 == 0 {
		p.Sleep(20 * time.Nanosecond)
	}
}

func (l *oracleLoop) flushIdle() bool { return l.links.FlushIdle() && !l.ctrl.Unflushed() }

func (l *oracleLoop) flush(p *sim.Proc) int {
	l.links.FlushAll(p)
	if l.ctrl != nil {
		l.ctrl.Flush(p)
	}
	return 0
}

func (l *oracleLoop) stages() []Stage {
	return []Stage{
		WorkStage("queue", l.queueIdle, l.runQueue),
		PollStage("links", l.links, oracleBurst, l.handle),
		ControlStage("control", &l.ctrl, oracleBurst, l.handleCtl, l.counted),
		WorkStage("flush", l.flushIdle, l.flush),
	}
}

// pollOnce is the iteration as the engines used to write it by hand, over
// the reference passes or over today's PollEach and a control stage's pass.
func (l *oracleLoop) pollOnce(p *sim.Proc) int {
	pollEach := func(p *sim.Proc, burst int, h func(*sim.Proc, *Link, []byte)) int {
		return l.links.PollEach(p, burst, h)
	}
	pollControl := pollControl
	if l.rig.ref {
		pollEach = func(p *sim.Proc, burst int, h func(*sim.Proc, *Link, []byte)) int {
			return refPollEach(l.links, p, burst, h)
		}
		pollControl = refPollControl
	}
	progress := l.runQueue(p)
	progress += pollEach(p, oracleBurst, l.handle)
	if l.ctrl != nil {
		if n := pollControl(p, l.ctrl, oracleBurst, l.handleCtl); l.counted {
			progress += n
		}
	}
	l.flush(p)
	return progress
}

// opaqueLoop hides an oracleLoop's stages from the driver: it goes on the
// core through Driver.Attach's adapter, which has to resume the process and
// call PollOnce on every iteration. PollOnce is the hand-written pass, or,
// with a stage list, one run of it from the process.
type opaqueLoop struct {
	l      *oracleLoop
	stages []Stage
}

func (o opaqueLoop) LoopName() string { return o.l.name }
func (o opaqueLoop) PollOnce(p *sim.Proc) int {
	if o.stages != nil {
		return runStages(p, o.stages)
	}
	return o.l.pollOnce(p)
}

// attachNewLoop builds a loop with 0–8 links and, half the time, a control
// end (made now, or handed over later by a timer), and puts it on the core:
// as its stage list through a seat, the way every engine does, or as an
// opaque loop through the adapter. The reference core calls the hand-written
// iteration whichever it is.
func (r *oracleRig) attachNewLoop(rng *rand.Rand, horizon sim.Duration) {
	l := &oracleLoop{rig: r, name: fmt.Sprintf("%s/loop%d", r.tag, len(r.loops)), links: NewLinkSet(4), counted: rng.Intn(2) == 0}
	r.loops = append(r.loops, l)
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
	mode := rng.Intn(4)
	switch {
	case r.ref:
		r.drv.attach(l.name, nil)
		r.refLoops = append(r.refLoops, l.pollOnce)
	case mode == 0:
		r.drv.Attach(opaqueLoop{l: l})
	case mode == 1:
		r.drv.Attach(opaqueLoop{l: l, stages: l.stages()})
	default:
		seat := NewSeat(l.name, l.stages(), r.a, DriverConfig{})
		seat.Join(r.drv)
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
	r.drv = NewDriver(r.a, tag+"/core", dcfg)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		r.attachNewLoop(rng, horizon)
	}
	at := func() sim.Duration { return sim.Duration(rng.Int63n(int64(horizon))) }

	// Work for the queues.
	for i := 0; i < 30; i++ {
		item := rng.Intn(1000)
		eng.After(at(), func() {
			l := r.loops[r.evRng.Intn(len(r.loops))]
			l.queue = append(l.queue, item)
		})
	}
	// Stalls, each released a little later: most land mid-chain.
	for i := 0; i < 3; i++ {
		t := at()
		eng.After(t, r.drv.Stall)
		eng.After(t+sim.Duration(rng.Intn(4000))*time.Nanosecond, r.drv.Resume)
	}
	// A loop attached to the running core.
	eng.After(at(), func() { r.attachNewLoop(r.evRng, horizon/2) })
	// Links added to and removed from sets that are, most of the time,
	// part-way through a pass.
	for i := 0; i < 4; i++ {
		eng.After(at(), func() {
			l := r.loops[r.evRng.Intn(len(r.loops))]
			l.links.Add(l.nextPeer, r.link(false))
			l.nextPeer++
		})
		eng.After(at(), func() {
			l := r.loops[r.evRng.Intn(len(r.loops))]
			if links := l.links.All(); len(links) > 0 {
				l.links.Remove(links[r.evRng.Intn(len(links))].Peer)
			}
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
	b.WriteString(strings.Join(r.log, "\n"))
	fmt.Fprintf(&b, "\n== %s: now %d seq %d core %d/%d/%d/%d loops %d cache %+v ==\n", r.tag, r.eng.Now(), r.eng.Seq(),
		d.Iterations, d.IdleIterations, d.Processed, d.Stalls, len(d.Loops()), r.a.Cache.Stats())
	for _, l := range r.loops {
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
// they replaced: over seeded programs — 1–3 loops a core, each a stage list
// on a seat or an opaque loop through Attach's adapter, 0–8 links a set, peers sending at random times, a disturber, stalls, a loop
// attached to the running core, links added and removed mid-pass, deadlines
// and a Shutdown mid-chain — every handler call, every disturber tick's
// sequence number, the final (time, seq), the core's counters and every
// endpoint's stats must be equal.
func TestDriverMatchesBlockingReference(t *testing.T) {
	for _, partitioned := range []bool{false, true} {
		for seed := int64(1); seed <= 10; seed++ {
			want := runDriverProgram(seed, partitioned, true)
			got := runDriverProgram(seed, partitioned, false)
			if got != want {
				t.Fatalf("partitioned=%v seed=%d: the stepped core diverged from the blocking reference\n%s",
					partitioned, seed, firstDiff(want, got))
			}
			for _, must := range []string{" got ", " work ", "tick seq"} {
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
