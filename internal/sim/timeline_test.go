package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The timeline tests run one small program twice — on an Engine and on
// refWorld, which keeps every pending event in one slice sorted by (at, seq) —
// and want the same dispatch log, clock, sequence counter and Counters from
// both. The program is a byte string, so the seeded test, the named cases and
// FuzzTimeline are the same interpreter over different bytes.
//
// The host reads an op (byte % 4) and, where the op takes one, a choice
// (byte % 12: an index into tlDist, or tlStop). Actors read a choice each time
// they fire; everybody reads from the one cursor, and an exhausted program
// reads tlStop, so every run ends.
const (
	opCallback = iota // + choice: start a callback that reschedules itself by its choices
	opTimer           // + choice: the same as a Timer
	opProc            // start a process that sleeps its choice every time it wakes
	opRun             // + choice: RunUntil(now + distance), or exactly the next pending instant
)

// tlDist are the distances of the rack's traffic and of the ring's edges: a
// same-instant wake, the CLFLUSHOPT/MFENCE and fill legs, an idle iteration's
// LoopCost + IdleBackoff, one less than / exactly / one more than nearWindow,
// ten windows, a lease-scale millisecond and forever.
var tlDist = [...]Duration{0, 1, 15, 302, 1060, nearWindow - 1, nearWindow, nearWindow + 1, 10 * nearWindow, time.Millisecond, MaxTime}

// Choices by name, for the hand-written programs.
const (
	d0 = iota
	d1
	d15
	d302
	d1060
	dNearMax
	dWindow
	dWindowPlus1
	d20480
	dMs
	dMax
	tlStop // an actor that reads it stops; a slice that reads it (or dMax) ends exactly on the next pending instant
)

// tlWorld is what the program needs of a simulator.
type tlWorld interface {
	Now() Duration
	Seq() uint64
	Counters() Counters
	After(d Duration, fn func())
	AfterTimer(d Duration, tm Timer)
	spawn(next func() (Duration, bool)) // a process: sleep what next returns until it reports false
	nextAt() (Duration, bool)
	RunUntil(deadline Duration) Duration
	Shutdown()
}

type tlEngine struct{ *Engine }

func (w tlEngine) spawn(next func() (Duration, bool)) {
	w.Go("p", func(p *Proc) {
		for d, more := next(); more; d, more = next() {
			p.Sleep(d)
		}
	})
}

// refWorld is the reference: the engine's scheduling rules (clamp to now,
// saturating relative times, the Sleep fast path, who holds the token) over
// the plainest possible timeline.
type refWorld struct {
	now, deadline Duration
	seq           uint64
	pending       []refEvent // sorted by (at, seq)
	owner         *refProc   // the process whose goroutine would be driving the loop
	dead          bool
	ctr           Counters
}

type refEvent struct {
	at   Duration
	seq  uint64
	far  bool // scheduled nearWindow or more ahead
	fn   func()
	tm   Timer
	proc *refProc
}

type refProc struct{ next func() (Duration, bool) }

func (w *refWorld) Now() Duration      { return w.now }
func (w *refWorld) Seq() uint64        { return w.seq }
func (w *refWorld) Counters() Counters { return w.ctr }

func (w *refWorld) after(d Duration) Duration {
	switch {
	case d <= 0:
		return w.now
	case d > MaxTime-w.now:
		return MaxTime
	}
	return w.now + d
}

func (w *refWorld) schedule(ev refEvent) {
	w.seq++
	ev.seq, ev.far = w.seq, ev.at-w.now >= nearWindow
	// The new event has the largest seq, so it goes behind every entry of its instant.
	i := sort.Search(len(w.pending), func(i int) bool { return w.pending[i].at > ev.at })
	w.pending = append(w.pending, refEvent{})
	copy(w.pending[i+1:], w.pending[i:])
	w.pending[i] = ev
}

func (w *refWorld) After(d Duration, fn func())     { w.schedule(refEvent{at: w.after(d), fn: fn}) }
func (w *refWorld) AfterTimer(d Duration, tm Timer) { w.schedule(refEvent{at: w.after(d), tm: tm}) }
func (w *refWorld) spawn(next func() (Duration, bool)) {
	w.schedule(refEvent{at: w.now, proc: &refProc{next: next}})
}

func (w *refWorld) nextAt() (Duration, bool) {
	if len(w.pending) == 0 {
		return 0, false
	}
	return w.pending[0].at, true
}

func (w *refWorld) Shutdown() { w.dead, w.pending = true, nil }

func (w *refWorld) RunUntil(deadline Duration) Duration {
	w.deadline, w.owner = deadline, nil
	for !w.dead && len(w.pending) > 0 {
		ev := w.pending[0]
		if ev.at > deadline {
			break
		}
		w.pending = w.pending[1:]
		w.now = ev.at
		w.ctr.Events++
		if ev.far {
			w.ctr.HeapEvents++
		}
		switch {
		case ev.proc != nil:
			if ev.proc != w.owner {
				w.ctr.Switches++
			}
			w.resume(ev.proc)
		case ev.tm != nil:
			ev.tm.Fire()
		default:
			ev.fn()
		}
	}
	if w.now < deadline && deadline != MaxTime {
		w.now = deadline
	}
	return w.now
}

// resume runs p until it parks or returns.
func (w *refWorld) resume(p *refProc) {
	for {
		d, more := p.next()
		if !more {
			w.owner = nil // a finished process's goroutine drives on as nobody's
			return
		}
		t := w.after(d)
		quiet := t <= w.deadline && (len(w.pending) == 0 || w.pending[0].at > t)
		if d <= 0 || !quiet {
			w.schedule(refEvent{at: t, proc: p})
			w.owner = p
			return
		}
		w.now = t
		w.ctr.FastSleeps++
	}
}

// tlResult is everything the two worlds must agree on.
type tlResult struct {
	Log  []string // "at #seq actor": one line per firing
	Runs []string // one line per RunUntil
	Now  Duration
	Seq  uint64
	Ctr  Counters
}

// tlCover counts what the slices of a run exercised.
type tlCover struct {
	onPending   int // deadlines exactly on a pending instant
	nearPending int // deadlines that moved the clock with ring entries still pending
	gaps        int // consecutive firings more than nearWindow apart
}

// tlRun interprets one program on one world.
type tlRun struct {
	w      tlWorld
	prog   []byte
	pc     int
	actors int
	last   Duration // the clock at the previous observation, for monotonicity
	fired  Duration
	res    tlResult
	cover  tlCover
	errs   []string
}

func (r *tlRun) choice() int {
	if r.pc >= len(r.prog) {
		return tlStop
	}
	r.pc++
	return int(r.prog[r.pc-1]) % (tlStop + 1)
}

// observe checks that virtual time has not gone back.
func (r *tlRun) observe(what string) {
	if now := r.w.Now(); now < r.last {
		r.errs = append(r.errs, fmt.Sprintf("%s: clock went back from %d to %d", what, r.last, now))
	} else {
		r.last = now
	}
}

func (r *tlRun) name(kind string) string {
	r.actors++
	return fmt.Sprint(kind, r.actors-1)
}

// fire logs one firing of an actor and reads where it goes next.
func (r *tlRun) fire(actor string) int {
	r.observe(actor)
	now := r.w.Now()
	if now-r.fired > nearWindow {
		r.cover.gaps++
	}
	r.fired = now
	r.res.Log = append(r.res.Log, fmt.Sprintf("%d #%d %s", now, r.w.Seq(), actor))
	return r.choice()
}

type tlTimer struct {
	r    *tlRun
	name string
}

func (t *tlTimer) Fire() {
	if k := t.r.fire(t.name); k != tlStop {
		t.r.w.AfterTimer(tlDist[k], t)
	}
}

func (r *tlRun) run() {
	w := r.w
	for r.pc < len(r.prog) {
		r.pc++
		switch r.prog[r.pc-1] % 4 {
		case opCallback:
			name := r.name("c")
			var fn func()
			fn = func() {
				if k := r.fire(name); k != tlStop {
					w.After(tlDist[k], fn)
				}
			}
			if k := r.choice(); k != tlStop {
				w.After(tlDist[k], fn)
			}
		case opTimer:
			tm := &tlTimer{r, r.name("t")}
			if k := r.choice(); k != tlStop {
				w.AfterTimer(tlDist[k], tm)
			}
		case opProc:
			name := r.name("p")
			w.spawn(func() (Duration, bool) {
				k := r.fire(name)
				if k == tlStop {
					return 0, false
				}
				return tlDist[k], true
			})
		case opRun:
			deadline := w.Now()
			if k := r.choice(); k < dMax {
				deadline += tlDist[k]
			} else if at, ok := w.nextAt(); ok {
				deadline = at
				r.cover.onPending++
			}
			w.RunUntil(deadline)
			r.observe("RunUntil")
			at, ok := w.nextAt()
			if ok && at-w.Now() < nearWindow && w.Now() == deadline {
				r.cover.nearPending++
			}
			r.res.Runs = append(r.res.Runs, fmt.Sprintf("until %d: now %d seq %d next %d %v", deadline, w.Now(), w.Seq(), at, ok))
		}
	}
	// Every program ends with a Shutdown from a callback, over whatever is
	// still pending or parked.
	w.After(tlDist[d302], w.Shutdown)
	w.RunUntil(MaxTime)
	r.observe("Run")
	r.res.Now, r.res.Seq, r.res.Ctr = w.Now(), w.Seq(), w.Counters()
}

// forceSimCheck turns the OASIS_SIMCHECK=1 assertions on for the rest of t.
func forceSimCheck(t *testing.T) {
	old := simCheck
	simCheck = true
	t.Cleanup(func() { simCheck = old })
}

// runTimeline runs prog on the engine (under the OASIS_SIMCHECK=1 ring
// assertions) and on the reference and fails on the first difference.
func runTimeline(t *testing.T, prog []byte) (tlResult, tlCover) {
	t.Helper()
	forceSimCheck(t)
	eng := New()
	got := &tlRun{w: tlEngine{eng}, prog: prog}
	got.run()
	want := &tlRun{w: &refWorld{}, prog: prog}
	want.run()
	for _, e := range append(got.errs, want.errs...) {
		t.Error(e)
	}
	if n := eng.Procs(); n != 0 {
		t.Errorf("%d processes outlived Shutdown", n)
	}
	if w, g := strings.Join(want.res.Log, "\n"), strings.Join(got.res.Log, "\n"); w != g {
		t.Fatalf("dispatch log differs from the sorted reference (loop) on the engine (steps):\n%s", firstDiff(w, g))
	}
	if w, g := strings.Join(want.res.Runs, "\n"), strings.Join(got.res.Runs, "\n"); w != g {
		t.Fatalf("slices differ from the sorted reference (loop) on the engine (steps):\n%s", firstDiff(w, g))
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("engine ends at (now %d, seq %d) with %+v, reference at (now %d, seq %d) with %+v",
			got.res.Now, got.res.Seq, got.res.Ctr, want.res.Now, want.res.Seq, want.res.Ctr)
	}
	return got.res, got.cover
}

func TestTimelineMatchesSortedReference(t *testing.T) {
	var ctr Counters
	var cover tlCover
	for seed := int64(1); seed <= 20; seed++ {
		prog := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(prog)
		res, c := runTimeline(t, prog)
		ctr.Events += res.Ctr.Events
		ctr.HeapEvents += res.Ctr.HeapEvents
		ctr.FastSleeps += res.Ctr.FastSleeps
		ctr.Switches += res.Ctr.Switches
		cover.onPending += c.onPending
		cover.nearPending += c.nearPending
		cover.gaps += c.gaps
	}
	t.Logf("20 seeds: %+v, %+v", ctr, cover)
	if ctr.HeapEvents == 0 || ctr.HeapEvents == ctr.Events || ctr.FastSleeps == 0 || ctr.Switches == 0 {
		t.Errorf("programs are one-sided: %+v", ctr)
	}
	if cover.onPending == 0 || cover.nearPending == 0 || cover.gaps == 0 {
		t.Errorf("slices are one-sided: %+v", cover)
	}
}

// timelineCases are the ring's edges, written out. want is the firing order
// ("at actor"); far is how many of the firings came off the heap.
var timelineCases = []struct {
	name string
	prog []byte
	want []string
	far  uint64
}{
	{
		name: "far and near entries for one instant dispatch far-first",
		// c0 for 2049 from 0 (far); at 2048, c1 for 2049 (near).
		prog: []byte{opCallback, dWindowPlus1, opRun, dWindow, opCallback, d1, opRun, d15, tlStop, tlStop},
		want: []string{"2049 c0", "2049 c1"},
		far:  1,
	},
	{
		name: "a bucket is reused 2048 ns later",
		// 15, 16, then 2047 ahead of 16: bucket 15 again.
		prog: []byte{opCallback, d15, opRun, dMs, d1, dNearMax, tlStop},
		want: []string{"15 c0", "16 c0", "2063 c0"},
	},
	{
		name: "exactly nearWindow ahead goes far, one less goes near",
		prog: []byte{opCallback, dWindow, opCallback, dNearMax, opRun, dMs, tlStop, tlStop},
		want: []string{"2047 c1", "2048 c0"},
		far:  1,
	},
	{
		name: "a deadline moves the clock with near entries pending",
		// c0 for 1060; the deadline puts the clock at 302; c1 and t2 are then
		// scheduled 2047 (near) and 2048 (far) ahead of 302.
		prog: []byte{opCallback, d1060, opRun, d302, opCallback, dNearMax, opTimer, dWindow, opRun, dMs, tlStop, tlStop, tlStop},
		want: []string{"1060 c0", "2349 c1", "2350 t2"},
		far:  1,
	},
	{
		name: "an idle gap longer than the ring",
		// 1, a millisecond later (far), then 15 after that (near again).
		prog: []byte{opCallback, d1, opRun, d20480, dMs, opRun, dMs, d15, tlStop},
		want: []string{"1 c0", "1000001 c0", "1000016 c0"},
		far:  1,
	},
	{
		name: "a deadline exactly on a pending instant",
		// t0 for 302 and c1 for 1060; slices end exactly on each.
		prog: []byte{opTimer, d302, opCallback, d1060, opRun, tlStop, d0, tlStop, opRun, tlStop, tlStop},
		want: []string{"302 t0", "302 t0", "1060 c1"},
	},
	{
		name: "Shutdown finds a process whose only wake event is in the ring",
		// p0 parks until 1060 during a 1 ns slice; Shutdown comes at 303.
		prog: []byte{opProc, opRun, d1, d1060},
		want: []string{"0 p0"},
	},
	{
		name: "a MaxTime sleep saturates and stays parked",
		prog: []byte{opProc, opCallback, dMax, opRun, dMs, dMax},
		want: []string{"0 p0"},
	},
}

func TestTimelineCases(t *testing.T) {
	for _, tt := range timelineCases {
		t.Run(tt.name, func(t *testing.T) {
			res, _ := runTimeline(t, tt.prog)
			var got []string
			for _, l := range res.Log {
				at, actor, _ := strings.Cut(l, " #")
				got = append(got, at+actor[strings.Index(actor, " "):])
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("fired %q, want %q", got, tt.want)
			}
			// The closing Shutdown callback is scheduled 302 ns ahead: near.
			if res.Ctr.HeapEvents != tt.far {
				t.Errorf("%d of %d events came off the heap, want %d", res.Ctr.HeapEvents, res.Ctr.Events, tt.far)
			}
		})
	}
}

// FuzzTimeline explores the same program space; its seeds are the named
// cases and two of the seeded test's programs.
func FuzzTimeline(f *testing.F) {
	for _, tt := range timelineCases {
		f.Add(tt.prog)
	}
	for seed := int64(1); seed <= 2; seed++ {
		prog := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<12 {
			t.Skip("every byte is at most one event; longer programs only take longer")
		}
		runTimeline(t, prog)
	})
}

// A partition whose window holds nothing commits its clock without running
// (Group.RunUntil's idle window): entries already in the ring beyond the
// window end must still be found from the new clock, in their buckets.
func TestIdleWindowCommitKeepsNearEntries(t *testing.T) {
	forceSimCheck(t)
	g := NewGroup()
	a, b := g.AddPartition(), g.AddPartition()
	g.Link(a, b, 100)
	g.Link(b, a, 100)
	// a ticks every 50 ns, so b's windows are 100 ns wide; b's only events are
	// 1500 and 1501 ns out — in its ring from the start, idle windows until then.
	var tick func()
	tick = func() {
		if a.Now() < 4000 {
			a.After(50, tick)
		}
	}
	a.After(50, tick)
	var log []string
	note := func(s string) func() { return func() { log = append(log, fmt.Sprint(int64(b.Now()), " ", s)) } }
	b.After(1500, note("first"))
	b.After(1501, func() {
		note("second")()
		b.After(nearWindow-1, note("first's bucket again"))
	})
	for _, deadline := range []Duration{300, 600, 900, 1200, 1499} {
		g.RunUntil(deadline)
		if at, ok := b.nextAt(); b.Now() != deadline || !ok || at != 1500 {
			t.Fatalf("partition b at %v (want %v), its next event at %v (%v), want 1500", b.Now(), deadline, at, ok)
		}
	}
	if n := b.Counters().Events; n != 0 {
		t.Fatalf("partition b ran %d events before 1500 ns: want idle commits only", n)
	}
	g.RunUntil(5000)
	want := []string{"1500 first", "1501 second", fmt.Sprint(1500+nearWindow, " first's bucket again")}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("partition b fired %q, want %q", log, want)
	}
	if c := b.Counters(); c.HeapEvents != 0 {
		t.Fatalf("%d of partition b's events came off the heap, want 0", c.HeapEvents)
	}
	g.Shutdown()
}

// Shutdown unwinds its victims in a defined order: the heap in array order,
// the ring from now forward (a bucket oldest first), then the blocked list.
func TestShutdownVictimOrder(t *testing.T) {
	eng := New()
	sig := NewSignal(eng)
	var order []string
	sleeper := func(name string, d Duration) {
		eng.Go(name, func(p *Proc) {
			defer func() { order = append(order, name) }()
			if d == 0 {
				sig.Wait(p)
			}
			p.Sleep(d)
		})
	}
	// Started in this order at instant 0; three far sleeps (pushed 5000, 3000,
	// 4000: the heap array is 3000, 5000, 4000), one waiter, four near sleeps.
	sleeper("far5000", 5000)
	sleeper("far3000", 3000)
	sleeper("near700", 700)
	sleeper("waiter", 0)
	sleeper("far4000", 4000)
	sleeper("near20", 20)
	sleeper("near700b", 700)
	sleeper("near2047", nearWindow-1)
	eng.RunUntil(10)
	if eng.Procs() != 8 {
		t.Fatalf("%d processes parked, want 8", eng.Procs())
	}
	eng.Shutdown()
	want := []string{"far3000", "far5000", "far4000", "near20", "near700", "near700b", "near2047", "waiter"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("victims unwound as %q, want %q", order, want)
	}
	if eng.Procs() != 0 {
		t.Fatalf("%d processes outlived Shutdown", eng.Procs())
	}
}

// Every relative-time entry point saturates: MaxTime from now is MaxTime, not
// a wrapped negative that schedule clamps to now (After(MaxTime) at 1 µs fired
// at 1 µs) or that the Sleep fast path takes for a quiet instant (Sleep(MaxTime)
// at 5 µs put the clock at −2562047h47m).
func TestRelativeTimesSaturate(t *testing.T) {
	never := func(t *testing.T) func() { return func() { t.Error("an event MaxTime ahead fired") } }
	tests := []struct {
		name   string
		parked int // processes still parked at the deadline
		at5us  func(t *testing.T, eng *Engine, p *Proc)
	}{
		{"After", 0, func(t *testing.T, eng *Engine, p *Proc) { eng.After(MaxTime, never(t)) }},
		{"AfterTimer", 0, func(t *testing.T, eng *Engine, p *Proc) { eng.AfterTimer(MaxTime, timerFunc(never(t))) }},
		{"Sleep", 1, func(t *testing.T, eng *Engine, p *Proc) { p.Sleep(MaxTime) }},
		{"SleepSteps", 1, func(t *testing.T, eng *Engine, p *Proc) {
			p.SleepSteps(time.Microsecond, &fixedChain{d: MaxTime, n: 1})
		}},
		{"Queue.PopTimeout", 1, func(t *testing.T, eng *Engine, p *Proc) { NewQueue[int](eng).PopTimeout(p, MaxTime) }},
		{"Signal.WaitTimeout", 1, func(t *testing.T, eng *Engine, p *Proc) { NewSignal(eng).WaitTimeout(p, MaxTime) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			eng := New()
			returned := false
			eng.Go("caller", func(p *Proc) {
				p.Sleep(5 * time.Microsecond)
				tt.at5us(t, eng, p)
				returned = true
			})
			// An observer every microsecond: the clock never decreases.
			last := Duration(0)
			var watch func()
			watch = func() {
				if eng.Now() < last {
					t.Errorf("clock went back from %v to %v", last, eng.Now())
				}
				last = eng.Now()
				eng.After(time.Microsecond, watch)
			}
			eng.After(time.Microsecond, watch)
			if end := eng.RunUntil(time.Millisecond); end != time.Millisecond || last != time.Millisecond {
				t.Errorf("RunUntil(1ms) ended at %v, observer last ran at %v", end, last)
			}
			if eng.Procs() != tt.parked || returned != (tt.parked == 0) {
				t.Errorf("%d processes parked (returned: %v), want %d", eng.Procs(), returned, tt.parked)
			}
			eng.Shutdown()
		})
	}
}

// timerFunc adapts a func to Timer.
type timerFunc func()

func (f timerFunc) Fire() { f() }

// Group.Hop is the seventh now + d: a hop MaxTime long arrives at MaxTime, not
// at a wrapped instant in the destination's committed past.
func TestHopLatencySaturates(t *testing.T) {
	g := NewGroup()
	a, b := g.AddPartition(), g.AddPartition()
	g.SetMobileLatency(MaxTime)
	g.GoMobile(a, "hopper", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		g.Hop(p, b)
		t.Error("a hop MaxTime long arrived")
	})
	if end := g.RunUntil(time.Millisecond); end != time.Millisecond {
		t.Errorf("RunUntil(1ms) ended at %v", end)
	}
	if at, ok := b.nextAt(); !ok || at != MaxTime || g.Procs() != 1 {
		t.Errorf("the hopper (of %d processes) arrives on b at %v (%v), want MaxTime", g.Procs(), at, ok)
	}
	g.Shutdown()
}

// A deadline already in the past runs nothing and leaves the clock alone (it
// used to pull the clock back to the deadline when anything was pending, which
// would strand the ring's entries outside [now, now+nearWindow)).
func TestRunUntilPastDeadline(t *testing.T) {
	eng := New()
	fired := 0
	eng.After(500, func() { fired++ })
	eng.RunUntil(100)
	if end := eng.RunUntil(40); end != 100 || fired != 0 {
		t.Fatalf("RunUntil(40) at 100 ns ended at %v with %d events fired, want 100ns and 0", end, fired)
	}
	if end := eng.Run(); end != 500 || fired != 1 {
		t.Fatalf("Run ended at %v with %d events fired, want 500ns and 1", end, fired)
	}
}
