package core

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"oasis/internal/cache"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/sim"
)

// passRig is one core's host a with n links to host b, whose ends the test
// sends on, and, if the rig has one, a control link between them.
type passRig struct {
	eng     *sim.Engine
	pool    *cxl.Pool
	a, b    *host.Host
	links   *LinkSet
	peers   []*LinkEnd
	ctrl    *LinkEnd      // the core's end of the control link, once there is one
	ctlPeer *LinkEnd      // the allocator's end of the control link
	stall   func(on bool) // stalls the core, or resumes it (runPassRow)
}

func newPassRig(t testing.TB, n int) *passRig { return newPassRigOn(t, n, cxl.DefaultParams()) }

// newPassRigOn is newPassRig on a pool with the given parameters.
func newPassRigOn(t testing.TB, n int, params cxl.Params) *passRig {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<24, params)
	r := &passRig{eng: eng, pool: pool, links: NewLinkSet(DefaultPendingLimit)}
	r.a = host.New(eng, 0, "a", pool, host.DefaultConfig())
	r.b = host.New(eng, 1, "b", pool, host.DefaultConfig())
	for i := 0; i < n; i++ {
		r.addLink(t)
	}
	return r
}

// addLink adds a link to the core's set, its peer end after the others.
func (r *passRig) addLink(t testing.TB) {
	aEnd, bEnd := r.link(t)
	r.links.Add(uint32(len(r.peers)), aEnd)
	r.peers = append(r.peers, bEnd)
}

// link makes a duplex link a<->b and returns a's end and b's.
func (r *passRig) link(t testing.TB) (*LinkEnd, *LinkEnd) {
	aEnd, bEnd, err := NewDuplexLink(r.pool, r.a, r.b, msgchan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return aEnd, bEnd
}

// passCost is what one pass over n idle default links costs: the n tail
// loads issued together (one load-to-use, the port serializing n lines),
// n CLFLUSHOPTs and one MFENCE.
func passCost(n int) sim.Duration {
	p, c := cxl.DefaultParams(), cache.DefaultParams()
	perLine := sim.Duration(float64(cxl.LineSize) / p.PortBandwidth * float64(time.Second))
	return p.LoadLatency + sim.Duration(n)*(perLine+c.FlushIssue) + c.FenceLatency
}

// A core polling N rings issues their tail loads together, then fences its
// CLFLUSHOPTs once: one pass over 32 idle links costs one load-to-use plus
// the port's serialization of 32 lines, 32 CLFLUSHOPTs and one MFENCE —
// where polling them one blocking miss at a time cost 32 × ~345 ns. The pass
// leaves no ring line cached, and a message whose line lands in the pool
// while a pass runs is found by the next pass at the latest.
func TestPollPassOverlapsTailFills(t *testing.T) {
	const n = 32
	r := newPassRig(t, n)
	type pass struct {
		start, end sim.Duration
		lines      int // lines cached at its end
	}
	var passes []pass
	got := map[byte]int{} // message → the pass that delivered it
	r.eng.Go("core", func(p *sim.Proc) {
		for {
			start := p.Now()
			r.links.PollEach(p, 4, func(p *sim.Proc, l *Link, payload []byte) { got[payload[0]] = len(passes) })
			passes = append(passes, pass{start, p.Now(), r.a.Cache.Len()})
			p.Sleep(100 * time.Nanosecond)
		}
	})
	// Messages land all over the pass: the loads' leg, the polls, the flush
	// run. A write lands WriteLatency after its CLWB, the port serializing it.
	const msgs = 40
	landed := make([]sim.Duration, msgs)
	r.eng.Go("peers", func(p *sim.Proc) {
		p.Sleep(20 * time.Microsecond)
		for i := 0; i < msgs; i++ {
			p.Sleep(sim.Duration(1000+53*i) * time.Nanosecond)
			end := r.peers[i*7%n]
			if !end.Send(p, []byte{byte(i)}) {
				panic("ring full")
			}
			end.Flush(p)
			landed[i] = p.Now() + cxl.DefaultParams().WriteLatency + 2*time.Nanosecond
		}
	})
	r.eng.RunUntil(200 * time.Microsecond)
	r.eng.Shutdown()

	if want := passCost(n); passes[0].end-passes[0].start != want {
		t.Fatalf("a pass over %d idle links took %v, want %v", n, passes[0].end-passes[0].start, want)
	}
	// What stays cached once a pass is over is the consumed counter's line
	// of each link that consumed a message, which the receiver stores to.
	counters, last := 0, passes[len(passes)-1]
	for _, l := range r.links.All() {
		if l.End.In.CounterUpdates > 0 {
			counters++
		}
	}
	if passes[0].lines != 0 || last.lines != counters {
		t.Fatalf("%d lines cached after the first pass and %d after the last, want none and %d counter lines: a ring line was left",
			passes[0].lines, last.lines, counters)
	}
	for i := 0; i < msgs; i++ {
		at, ok := got[byte(i)]
		if !ok {
			t.Fatalf("message %d (landed at %v) was never delivered", i, landed[i])
		}
		next := 0
		for next < len(passes) && passes[next].start < landed[i] {
			next++
		}
		if at > next {
			t.Fatalf("message %d landed at %v and was delivered by pass %d [%v, %v]; pass %d [%v, %v] missed it",
				i, landed[i], at, passes[at].start, passes[at].end, next, passes[next].start, passes[next].end)
		}
	}
}

// A tail load issued ahead is a miss when it is issued, and the poll that
// collects it counts nothing more: one idle pass over 8 links is 8 misses,
// no hit and no fill wait, every pass.
func TestIdlePassCountsOneMissPerLink(t *testing.T) {
	const n = 8
	r := newPassRig(t, n)
	var stats []cache.Stats
	r.eng.Go("core", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if got := r.links.PollEach(p, 4, func(*sim.Proc, *Link, []byte) {}); got != 0 {
				panic("an idle link delivered a message")
			}
			stats = append(stats, r.a.Cache.Stats())
		}
	})
	r.eng.RunUntil(100 * time.Microsecond)
	for i, s := range stats {
		if want := (cache.Stats{Misses: int64(n * (i + 1))}); s != want {
			t.Fatalf("after idle pass %d: cache %+v, want %+v", i+1, s, want)
		}
	}
	if len(stats) != 3 {
		t.Fatalf("%d passes ran, want 3", len(stats))
	}
}

// A lone poll is a one-link pass, leg for leg: LinkEnd.Poll on one idle
// default link and PollEach over that same link each take passCost(1) in two
// stepped legs — the tail load, then the CLFLUSHOPT run and the MFENCE as one
// closing leg — count one miss, and leave no ring line cached.
func TestLonePollIsOneLinkPass(t *testing.T) {
	r := newPassRig(t, 1)
	end := r.links.All()[0].End
	type poll struct {
		took   sim.Duration
		legs   uint64
		misses int64
		lines  int
	}
	measure := func(p *sim.Proc, run func()) poll {
		t0, c0, m0 := p.Now(), r.eng.Counters(), r.a.Cache.Stats().Misses
		run()
		return poll{p.Now() - t0, r.eng.Counters().SteppedLegs - c0.SteppedLegs, r.a.Cache.Stats().Misses - m0, r.a.Cache.Len()}
	}
	var lone, pass poll
	r.eng.Go("core", func(p *sim.Proc) {
		lone = measure(p, func() {
			if _, ok := end.Poll(p); ok {
				panic("an idle link delivered a message")
			}
		})
		pass = measure(p, func() {
			if r.links.PollEach(p, 4, func(*sim.Proc, *Link, []byte) {}) != 0 {
				panic("an idle link delivered a message")
			}
		})
	})
	r.eng.RunUntil(100 * time.Microsecond)
	want := poll{took: passCost(1), legs: 2, misses: 1}
	if lone != want || pass != want {
		t.Fatalf("lone poll %+v, one-link pass %+v; want both %+v", lone, pass, want)
	}
}

// passRow is a scripted program for one core polling a link set, and maybe
// a control end, under the batched rule: messages sent on given links at
// given times, and whatever else an agent process does to the core's port.
type passRow struct {
	name  string
	links int
	ctl   passCtl
	burst int
	hw    bool // the pool has Back Invalidation
	sends []passSend
	setup func(r *passRig)              // before the run
	agent func(r *passRig, p *sim.Proc) // a process beside the core and the peers
	mark  func(r *passRig, iter int)    // at the end of each iteration, between passes
	check func(t *testing.T, log string)
	until sim.Duration // the run's end; 0 is 30 µs
	after int          // the row's event comes at this pass, after ten or more passes replayed on the driver core
}

// passCtl is what a row's poll stage has for a control end.
type passCtl uint8

const (
	ctlNone      passCtl = iota // a poll stage without Control
	ctlNil                      // Control over an engine field that holds no end
	ctlCounted                  // a control end whose messages are loop progress
	ctlDiscarded                // a control end whose messages are not
	ctlLate                     // Control over a field whose end the row's mark makes (passRig.makeControl)
)

// makeControl makes the core's control link mid-run, for a ctlLate row.
func (r *passRig) makeControl(t testing.TB) { r.ctrl, r.ctlPeer = r.link(t) }

type passSend struct {
	at   sim.Duration
	link int // a link of the set, or ctlLink, or ctlJunk
	n    int // messages, sent back to back and flushed once
}

const (
	ctlLink = -1 // control messages on the control link
	ctlJunk = -2 // data-plane payloads on the control link: dropped uncounted
)

// runPassRow runs a row on the driver core, or with ref on the blocking
// reference pass, and renders everything observable: each delivery and each
// iteration's end with the time, the sequence number, its progress, every
// end's empty polls and receiver state, the cache's counters and the core's
// port's read bytes by category and read-link occupancy, and every end's
// stats. On the driver core it also returns how many passes had been
// replayed by the end of each iteration.
func runPassRow(t *testing.T, row passRow, ref bool) (string, []int64) {
	params := cxl.DefaultParams()
	params.HWCoherent = row.hw
	r := newPassRigOn(t, row.links, params)
	if row.setup != nil {
		row.setup(r)
	}
	port := r.a.Cache.Port()
	if row.ctl == ctlCounted || row.ctl == ctlDiscarded {
		r.makeControl(t)
	}
	// ends are the ends the core polls now, the control end first.
	ends := func() []*LinkEnd {
		var ends []*LinkEnd
		if r.ctrl != nil {
			ends = append(ends, r.ctrl)
		}
		for _, l := range r.links.All() {
			ends = append(ends, l.End)
		}
		return ends
	}
	var b strings.Builder
	logf := func(format string, args ...any) {
		fmt.Fprintf(&b, "%8d seq %6d %s\n", r.eng.Now(), r.eng.Seq(), fmt.Sprintf(format, args...))
	}
	handle := func(p *sim.Proc, l *Link, payload []byte) {
		logf("link %d got %x", l.Peer, payload[:2])
		p.Sleep(40 * time.Nanosecond)
	}
	handleCtl := func(p *sim.Proc, m ControlMsg) {
		logf("control op %d dev %x", m.Op, m.Dev)
		p.Sleep(30 * time.Nanosecond)
	}
	iter := 0
	var d *Driver
	var replayed []int64
	mark := func(progress int) int {
		if row.mark != nil {
			row.mark(r, iter)
		}
		iter++
		if d != nil {
			d.EmptyPolls() // credits the ends with the polls of replayed passes
			_, n := d.Passes()
			replayed = append(replayed, n)
		}
		var empty []int64
		for i, e := range ends() {
			empty = append(empty, e.In.EmptyPolls)
			fmt.Fprintf(&b, "  end %d: %s\n", i, e.In.State())
		}
		logf("iteration over: progress %d empty polls %v cache %+v rd %v busy %d",
			progress, empty, r.a.Cache.Stats(), port.ReadMeter(), port.ReadBusy())
		return 0
	}
	cfg := DriverConfig{LoopCost: 100 * time.Nanosecond}
	counted := row.ctl == ctlCounted
	if ref {
		stalled, resumed := false, sim.NewSignal(r.eng)
		r.stall = func(on bool) {
			if on || stalled {
				stalled = on
				if !on {
					resumed.Broadcast()
				}
			}
		}
		r.eng.Go("core", func(p *sim.Proc) {
			for {
				for stalled {
					resumed.Wait(p)
				}
				mark(refPass(p, r.ctrl, r.links.order, row.burst, handle, handleCtl, counted))
				p.Sleep(cfg.LoopCost)
			}
		})
	} else {
		st := PollStage("links", r.links, row.burst, handle)
		if row.ctl != ctlNone {
			st = st.Control(&r.ctrl, handleCtl, counted)
		}
		d = NewDriver(r.a, "core", cfg, st,
			WorkStage("mark", func() bool { return false }, func(*sim.Proc) int { return mark(d.progress) }))
		r.stall = func(on bool) {
			if on {
				d.Stall()
			} else {
				d.Resume()
			}
		}
		d.Start()
	}
	if row.agent != nil {
		r.eng.Go("agent", func(p *sim.Proc) { row.agent(r, p) })
	}
	r.eng.Go("peers", func(p *sim.Proc) {
		for i, s := range row.sends {
			p.Sleep(s.at - p.Now())
			end := r.ctlPeer
			if s.link >= 0 {
				end = r.peers[s.link]
			}
			for k := 0; k < s.n; k++ {
				switch s.link {
				case ctlLink:
					SendControl(p, end, ControlMsg{Op: CtlFailover, Kind: DeviceNIC, Dev: uint16(i<<8 | k)})
				case ctlJunk:
					end.Send(p, []byte{0xF0, byte(i), byte(k)})
				default:
					end.Send(p, []byte{byte(i), byte(k)})
				}
			}
			end.Flush(p)
		}
	})
	until := row.until
	if until == 0 {
		until = 30 * time.Microsecond
	}
	r.eng.RunUntil(until)
	r.eng.Shutdown()
	if d != nil {
		d.EmptyPolls()
	}
	for i, e := range ends() {
		in := e.In
		fmt.Fprintf(&b, "end %d: rx %d empty %d counter %d\n", i, in.Received, in.EmptyPolls, in.CounterUpdates)
	}
	return b.String(), replayed
}

// iterations splits a row's log into its iterations, each ending with its
// "iteration over" line.
func iterations(log string) []string {
	var its []string
	cur := ""
	for _, line := range strings.SplitAfter(log, "\n") {
		if cur += line; strings.Contains(line, "iteration over") {
			its = append(its, cur)
			cur = ""
		}
	}
	return its
}

// progressSum adds up the progress of a row's iterations.
func progressSum(log string) int {
	sum := 0
	for _, m := range regexp.MustCompile(`progress (\d+)`).FindAllStringSubmatch(log, -1) {
		n, _ := strconv.Atoi(m[1])
		sum += n
	}
	return sum
}

// idleRow is the row the batched rows below vary: 8 idle links, burst 2.
var idleRow = passRow{links: 8, burst: 2}

// iterationEnds returns when each iteration of a row's log ended.
func iterationEnds(t *testing.T, log string) []sim.Duration {
	var ends []sim.Duration
	for _, it := range iterations(log) {
		lines := strings.Split(strings.TrimSpace(it), "\n")
		var at sim.Duration
		if _, err := fmt.Sscan(lines[len(lines)-1], &at); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, at)
	}
	return ends
}

// deliveredIn returns the iteration of a row's log whose pass delivered the
// message that the given text names, or -1.
func deliveredIn(log, what string) int {
	for i, it := range iterations(log) {
		if strings.Contains(it, what) {
			return i
		}
	}
	return -1
}

// batchedRows are the rows that take the batched fetch of idle rings to its
// edges, timed against idleRow's iterations on the driver core: a message
// landing 1 ns before, at and 1 ns after a pass's collect instant (when its
// fetches have landed and the idle rings are polled), after a long idle
// stretch; another agent's reads booking the core's port just before and at
// a pass's start; the port degraded, jittered and healed between passes; a
// QoS share on the rings' category; a ring that owes its counter update on
// an empty poll; and a Back-Invalidation pool, whose rings take the cached
// path.
func batchedRows(t *testing.T) []passRow {
	idle, _ := runPassRow(t, idleRow, false)
	ends := iterationEnds(t, idle)
	p, c := cxl.DefaultParams(), cache.DefaultParams()
	perLine := sim.Duration(float64(cxl.LineSize) / p.PortBandwidth * float64(time.Second))
	loopCost := 100 * time.Nanosecond
	begin := func(k int) sim.Duration { return ends[k-1] + loopCost }
	collect := func(k int) sim.Duration { return begin(k) + p.LoadLatency + sim.Duration(idleRow.links)*perLine }
	// A message sent at s lands at s + land: its store, its line's CLWB and
	// the posted write's serialization and propagation.
	land := c.StoreLatency + c.WritebackIssue + perLine + p.WriteLatency
	const k = 20 // the pass the message is timed against: 11 µs of idle passes before it
	landing := func(name string, off sim.Duration, want ...int) passRow {
		row := idleRow
		row.name, row.after = name, k
		row.sends = []passSend{{at: collect(k) + off - land, link: 3, n: 1}}
		row.check = func(t *testing.T, log string) {
			got := deliveredIn(log, "link 3 got")
			for _, w := range want {
				if got == w {
					return
				}
			}
			t.Fatalf("the message landing %v from pass %d's collect instant was delivered by pass %d, want one of %v:\n%s",
				off, k, got, want, log)
		}
		return row
	}
	// A read of a buffer line and of a 4 KiB buffer by another agent on the
	// core's host: booked at a pass's start, or 1 ns before it, they delay
	// its fetches.
	portRead := func(name string, off sim.Duration) passRow {
		row := idleRow
		row.name, row.after = name, 12
		row.agent = func(r *passRig, pr *sim.Proc) {
			buf, err := r.pool.Alloc(4096)
			if err != nil {
				panic(err)
			}
			port := r.a.Cache.Port()
			pr.Sleep(begin(12) + off)
			port.FetchLine(buf.Base, "payload")
			pr.Sleep(begin(16) + off - pr.Now())
			port.DMARead(buf.Base, make([]byte, 4096), "message")
		}
		row.sends = []passSend{{at: 11 * time.Microsecond, link: 6, n: 1}}
		row.check = func(t *testing.T, log string) {
			got := iterationEnds(t, log)
			for _, k := range []int{12, 16} {
				if got[k]-got[k-1] <= ends[k]-ends[k-1] {
					t.Fatalf("pass %d took %v with a read booked %v from its start, as long as an idle pass:\n%s",
						k, got[k]-got[k-1], off, log)
				}
			}
		}
		return row
	}
	degraded := idleRow
	degraded.name = "port-faults-between-passes"
	degraded.sends = []passSend{
		{at: 3 * time.Microsecond, link: 1, n: 1},
		{at: 6 * time.Microsecond, link: 6, n: 3},
		{at: 9 * time.Microsecond, link: 4, n: 1},
		{at: 14 * time.Microsecond, link: 0, n: 2},
	}
	degraded.mark = func(r *passRig, iter int) {
		port := r.a.Cache.Port()
		switch iter {
		case 4:
			port.SetJitter(7 * time.Nanosecond)
		case 8:
			port.SetDegraded(1.5, 0.5)
		case 12:
			port.SetJitter(0)
		case 16:
			port.SetDegraded(1, 1)
		case 20:
			port.SetDegraded(2, 0.25)
			port.SetJitter(3 * time.Nanosecond)
		}
	}
	degraded.check = func(t *testing.T, log string) {
		if n := strings.Count(log, " got "); n != 7 {
			t.Fatalf("%d messages delivered, want 7:\n%s", n, log)
		}
	}
	qos := idleRow
	qos.name = "qos-on-message"
	qos.setup = func(r *passRig) { r.a.Cache.Port().SetQoS("message", 0.25) }
	qos.sends = []passSend{{at: 2 * time.Microsecond, link: 2, n: 3}, {at: 7 * time.Microsecond, link: 5, n: 1}}
	qos.agent = func(r *passRig, pr *sim.Proc) {
		buf, err := r.pool.Alloc(4096)
		if err != nil {
			panic(err)
		}
		pr.Sleep(4 * time.Microsecond)
		r.a.Cache.Port().DMARead(buf.Base, make([]byte, 4096), "payload")
	}
	qos.check = func(t *testing.T, log string) {
		// A 8 GB/s share serializes a line in 8 ns: the first idle pass's
		// fetches land 8 × 8 ns after its start, plus one load.
		if ends[0] >= iterationEnds(t, log)[0] {
			t.Fatalf("the QoS share did not slow the pass's fetches:\n%s", log)
		}
	}
	counter := idleRow
	counter.name = "empty-poll-owes-counter"
	counter.burst = 1
	counter.sends = []passSend{{at: 2 * time.Microsecond, link: 2, n: 3}}
	counter.check = func(t *testing.T, log string) {
		if !strings.Contains(log, "end 2: rx 3 ") || !strings.Contains(log, " counter 1\n") {
			t.Fatalf("link 2 did not deliver its 3 messages and then update its counter once:\n%s", log)
		}
	}
	bi := idleRow
	bi.name = "back-invalidation-pool"
	bi.hw = true
	bi.sends = []passSend{{at: 1 * time.Microsecond, link: 0, n: 2}, {at: 5 * time.Microsecond, link: 7, n: 1}}
	bi.check = func(t *testing.T, log string) {
		if n := strings.Count(log, " got "); n != 3 {
			t.Fatalf("%d messages delivered, want 3:\n%s", n, log)
		}
	}
	// A line whose write is issued before a pass's collect instant and lands
	// 1 ns after it: the pass finds every ring empty, but may not be kept to
	// replay, or the next would miss the line. (Jitter set to what it is
	// changes no cost, but ends the memo before pass k, so that k is made in
	// full and is the one that would be kept.)
	inFlight := idleRow
	inFlight.name, inFlight.after = "write-in-flight-at-capture", k
	inFlight.mark = func(r *passRig, iter int) {
		if iter == k-1 {
			r.a.Cache.Port().SetJitter(0)
		}
	}
	inFlight.sends = []passSend{{at: collect(k) + 1 - land, link: 3, n: 1}}
	inFlight.check = func(t *testing.T, log string) {
		if got := deliveredIn(log, "link 3 got"); got != k+1 {
			t.Fatalf("the message landing 1 ns after pass %d's collect instant was delivered by pass %d, want %d:\n%s", k, got, k+1, log)
		}
	}
	// The port's costs set and healed between passes, each after a stretch
	// of replayed ones: jitter, degradation, a QoS share on the rings'
	// category and its widening to the whole port.
	costs := idleRow
	costs.name, costs.after, costs.until = "port-costs-between-replays", 12, 60*time.Microsecond
	costs.mark = func(r *passRig, iter int) {
		port := r.a.Cache.Port()
		switch iter {
		case 11:
			port.SetJitter(7 * time.Nanosecond)
		case 23:
			port.SetJitter(0)
		case 35:
			port.SetDegraded(1.5, 0.5)
		case 47:
			port.SetDegraded(1, 1)
		case 59:
			port.SetQoS("message", 0.25)
		case 71:
			port.SetQoS("message", 1)
		}
	}
	costs.sends = []passSend{{at: 18 * time.Microsecond, link: 2, n: 1}, {at: 41 * time.Microsecond, link: 5, n: 2}}
	costs.check = func(t *testing.T, log string) {
		if n := strings.Count(log, " got "); n != 3 {
			t.Fatalf("%d messages delivered, want 3:\n%s", n, log)
		}
		if got := iterationEnds(t, log); len(got) < 80 {
			t.Fatalf("%d passes, want the run to reach the QoS share's widening at pass 72:\n%s", len(got), log)
		}
	}
	// A link added to the set, then the control end made, then a link
	// added again — into the room the set's slice grew by at the first, so
	// the set's order keeps its first element's address — each after a
	// stretch of replayed passes, and messages on all three.
	grown := idleRow
	grown.name, grown.after, grown.ctl, grown.until = "links-and-control-added", 12, ctlLate, 40*time.Microsecond
	grown.mark = func(r *passRig, iter int) {
		switch iter {
		case 11:
			r.addLink(t)
		case 24:
			r.makeControl(t)
		case 37:
			r.addLink(t)
		}
	}
	grown.sends = []passSend{
		{at: 12 * time.Microsecond, link: 8, n: 1},
		{at: 16 * time.Microsecond, link: ctlLink, n: 1},
		{at: 32 * time.Microsecond, link: 9, n: 1},
	}
	grown.check = func(t *testing.T, log string) {
		if !strings.Contains(log, "link 8 got") || !strings.Contains(log, "control op") || !strings.Contains(log, "link 9 got") {
			t.Fatalf("the added link or the control end made mid-run did not deliver:\n%s", log)
		}
	}
	// The core stalled after a stretch of replayed passes and resumed, with
	// a message landing while it stands.
	stall := idleRow
	stall.name, stall.after = "stall-and-resume", 12
	stall.agent = func(r *passRig, pr *sim.Proc) {
		pr.Sleep(begin(12) + 50*time.Nanosecond)
		r.stall(true)
		pr.Sleep(3 * time.Microsecond)
		r.stall(false)
	}
	stall.sends = []passSend{{at: begin(12) + time.Microsecond, link: 4, n: 1}}
	stall.check = func(t *testing.T, log string) {
		if got := deliveredIn(log, "link 4 got"); got != 13 {
			t.Fatalf("the message that landed while the core stood was delivered by pass %d, want 13, the first after the resume:\n%s", got, log)
		}
	}
	return []passRow{
		inFlight, costs, grown, stall,
		landing("landing-1ns-before-collect", -1, k),
		landing("landing-at-collect", 0, k, k+1),
		landing("landing-1ns-after-collect", 1, k+1),
		portRead("port-read-1ns-before-pass", -1),
		portRead("port-read-at-pass-start", 0),
		degraded, qos, counter, bi,
	}
}

// The batched pass against its blocking reference on scripted rows: many
// idle links with one message landing while a pass runs, and a link that
// hits its burst — whose last poll found a message, so it leaves no flush
// run to the pass — beside idle ones. With a control end the pass is the
// control poll, then each link's, then one CLFLUSHOPT run and one MFENCE:
// its messages counted as progress or not, alone in a pass, and ahead of a
// data message that landed with them. An engine field that holds no control
// end leaves the pass exactly the data-only one. The batched rows take the
// idle rings' batched fetch to its edges (see batchedRows).
func TestPassMatchesBlockingReference(t *testing.T) {
	controlRow := func(name string, ctl passCtl, wantProgress int) passRow {
		return passRow{name: name, links: 8, ctl: ctl, burst: 2,
			sends: []passSend{
				{at: 1000 * time.Nanosecond, link: ctlLink, n: 3},
				{at: 1100 * time.Nanosecond, link: ctlJunk, n: 1},
				{at: 1200 * time.Nanosecond, link: 5, n: 3},
				{at: 9 * time.Microsecond, link: ctlLink, n: 1},
			},
			check: func(t *testing.T, log string) {
				if n := strings.Count(log, "control op"); n != 4 {
					t.Fatalf("%d control messages delivered, want 4 (the data-plane payload dropped):\n%s", n, log)
				}
				if n := progressSum(log); n != wantProgress {
					t.Fatalf("the iterations made progress %d, want %d:\n%s", n, wantProgress, log)
				}
			}}
	}
	for _, row := range append([]passRow{
		{name: "idle32-message-mid-pass", links: 32, burst: 4,
			// The first pass runs from 0 to ~0.87 µs: this message's line
			// lands at ~0.5 µs, after the pass loaded link 20's tail.
			sends: []passSend{{at: 250 * time.Nanosecond, link: 20, n: 1}, {at: 9 * time.Microsecond, link: 31, n: 1}},
			check: func(t *testing.T, log string) {
				if !strings.Contains(log, "link 20 got 0000") || !strings.Contains(log, "link 31 got 0100") {
					t.Fatalf("a message was not delivered:\n%s", log)
				}
			}},
		{name: "burst-no-deferred-flush", links: 4, burst: 2,
			sends: []passSend{{at: 0, link: 1, n: 5}},
			check: func(t *testing.T, log string) {
				// Link 1 delivers 2, 2 and 1 in the passes that find its
				// messages: the first two end its polls on the burst, with
				// no empty poll to defer, and the third on an empty poll.
				var iters []string
				for _, line := range strings.Split(log, "\n") {
					if strings.Contains(line, "iteration over") {
						iters = append(iters, line)
					}
				}
				if strings.Count(log, "link 1 got") != 5 {
					t.Fatalf("link 1 did not deliver its 5 messages:\n%s", log)
				}
				for _, want := range []string{"[1 0 1 1]", "[2 0 2 2]", "[3 1 3 3]"} {
					found := false
					for _, it := range iters {
						found = found || strings.Contains(it, "empty polls "+want)
					}
					if !found {
						t.Fatalf("no iteration ended with empty polls %s:\n%s", want, strings.Join(iters[:min(6, len(iters))], "\n"))
					}
				}
			}},
		controlRow("control-counted", ctlCounted, 7),
		controlRow("control-discarded", ctlDiscarded, 3),
		{name: "control-first", links: 4, ctl: ctlDiscarded, burst: 2,
			sends: []passSend{{at: 2 * time.Microsecond, link: 2, n: 1}, {at: 2 * time.Microsecond, link: ctlLink, n: 1}},
			check: func(t *testing.T, log string) {
				for _, it := range iterations(log) {
					c, d := strings.Index(it, "control op"), strings.Index(it, "link 2 got")
					if c >= 0 && d >= 0 && c < d {
						return
					}
				}
				t.Fatalf("no iteration handled the control message before the data message that landed with it:\n%s", log)
			}},
		{name: "control-alone", links: 0, ctl: ctlCounted, burst: 2,
			sends: []passSend{{at: 1 * time.Microsecond, link: ctlLink, n: 2}, {at: 5 * time.Microsecond, link: ctlJunk, n: 1}, {at: 5 * time.Microsecond, link: ctlLink, n: 1}},
			check: func(t *testing.T, log string) {
				if n := progressSum(log); n != 3 || strings.Count(log, "control op") != 3 {
					t.Fatalf("progress %d, want 3 control messages:\n%s", n, log)
				}
			}},
		{name: "control-nil", links: 4, ctl: ctlNil, burst: 2,
			sends: []passSend{{at: 1 * time.Microsecond, link: 1, n: 3}},
			check: func(t *testing.T, log string) {
				if n := progressSum(log); n != 3 {
					t.Fatalf("progress %d, want 3:\n%s", n, log)
				}
			}},
	}, batchedRows(t)...) {
		t.Run(row.name, func(t *testing.T) {
			want, _ := runPassRow(t, row, true)
			got, replayed := runPassRow(t, row, false)
			if got != want {
				t.Fatalf("the driver's pass diverged from the blocking reference\n%s", firstDiff(want, got))
			}
			row.check(t, want)
			// OASIS_SIMCHECK=1 fetches no ring uncached, so no pass is kept.
			if row.after > 0 && !sim.Checking() && replayed[row.after-1] < 10 {
				t.Fatalf("%d passes replayed before pass %d, want at least 10", replayed[row.after-1], row.after)
			}
			if row.ctl == ctlNil {
				plain := row
				plain.ctl = ctlNone
				if data, _ := runPassRow(t, plain, false); got != data {
					t.Fatalf("a nil control end changed the data-only pass\n%s", firstDiff(data, got))
				}
			}
		})
	}
}

// Seeded programs for one core polling a link set, and maybe a control end,
// on the driver core against the blocking reference pass (refPass): 1–8
// links, messages a few at a time at random instants with idle stretches
// between them, in which the core's passes are replayed, and an agent that
// books the core's port's read direction, sets and heals its jitter,
// degradation and a QoS share, stalls and resumes the core; links are added
// and a control end is made mid-run. After every pass each side logs every
// receiver's state (msgchan.Receiver.State), the cache's counters and the
// port's read meter and occupancy; the logs must match, and the driver core
// must have replayed passes.
func TestReplayedPassesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		row := programRow(t, seed)
		want, _ := runPassRow(t, row, true)
		got, replayed := runPassRow(t, row, false)
		if got != want {
			t.Fatalf("seed %d: the driver's pass diverged from the blocking reference\n%s", seed, firstDiff(want, got))
		}
		// OASIS_SIMCHECK=1 fetches no ring uncached, so no pass is kept.
		if n := replayed[len(replayed)-1]; n < int64(len(replayed))/4 && !sim.Checking() {
			t.Fatalf("seed %d: %d of %d passes replayed, want a quarter or more", seed, n, len(replayed))
		}
	}
}

// programRow is the seeded program of TestReplayedPassesMatchReference.
func programRow(t *testing.T, seed int64) passRow {
	rng := rand.New(rand.NewSource(seed))
	row := passRow{name: fmt.Sprintf("program-%d", seed), links: 1 + rng.Intn(8), burst: 1 + rng.Intn(4), until: 60 * time.Microsecond}
	row.ctl = []passCtl{ctlNone, ctlCounted, ctlDiscarded, ctlLate}[rng.Intn(4)]
	for at := sim.Duration(0); ; {
		at += sim.Duration(500+rng.Intn(6000)) * time.Nanosecond
		if at >= row.until {
			break
		}
		link := rng.Intn(row.links)
		if (row.ctl == ctlCounted || row.ctl == ctlDiscarded) && rng.Intn(4) == 0 {
			link = ctlLink
		}
		row.sends = append(row.sends, passSend{at: at, link: link, n: 1 + rng.Intn(3)})
	}
	added, ctlAt := map[int]bool{}, -1
	for i := rng.Intn(3); i > 0; i-- {
		added[5+rng.Intn(80)] = true
	}
	if row.ctl == ctlLate {
		ctlAt = 5 + rng.Intn(60)
	}
	row.mark = func(r *passRig, iter int) {
		if added[iter] {
			r.addLink(t)
		}
		if iter == ctlAt {
			r.makeControl(t)
		}
	}
	agentSeed := rng.Int63()
	row.agent = func(r *passRig, p *sim.Proc) {
		rng := rand.New(rand.NewSource(agentSeed))
		buf, err := r.pool.Alloc(4096)
		if err != nil {
			panic(err)
		}
		port := r.a.Cache.Port()
		for {
			p.Sleep(sim.Duration(200+rng.Intn(4000)) * time.Nanosecond)
			switch rng.Intn(10) {
			case 0, 1:
				port.FetchLine(buf.Base, "payload")
			case 2:
				port.DMARead(buf.Base, make([]byte, 1024), []string{"payload", "message"}[rng.Intn(2)])
			case 3:
				port.SetJitter(sim.Duration(rng.Intn(8)) * time.Nanosecond)
			case 4:
				port.SetDegraded(1+rng.Float64(), 0.25+0.75*rng.Float64())
			case 5:
				port.SetDegraded(1, 1)
			case 6:
				port.SetQoS("message", 0.25+0.75*rng.Float64())
			case 7:
				r.stall(true)
				p.Sleep(sim.Duration(rng.Intn(3000)) * time.Nanosecond)
				r.stall(false)
			}
		}
	}
	return row
}
