// Partitioned execution: conservative-lookahead parallel discrete-event
// simulation (PDES) inside one run.
//
// A Group splits a simulation into N partitions — each an ordinary Engine
// with its own clock, heap, and process loop — and advances them in
// conservative time windows on separate goroutines. The window width is
// derived from the minimum latency cross-partition interactions can have:
// if every event one partition can send another arrives at least L in the
// future, the destination can safely execute a window of L without ever
// receiving an event in its committed past. Those minima are declared up
// front:
//
//   - CrossLink{MinLatency}: a registered cross-partition event channel (no
//     production wiring declares one: pods are coupled only through mobile
//     processes). Sends are timestamp-fenced (at >= sender now + min) and
//     land in the destination's bounded inbox; a barrier between windows
//     merges inboxes in (timestamp, source partition, source sequence)
//     order, so delivery — and with it every simulation result — is
//     byte-identical regardless of GOMAXPROCS or worker interleaving.
//
//   - Mobile processes: a process registered with GoMobile may Hop between
//     partitions, modeling a control-plane RPC with the group's mobile
//     latency. While any mobile process could act (it is runnable or
//     parked on a signal), windows shrink to the mobile latency; while all
//     mobile processes are parked on pure timers, windows extend to their
//     next wake + latency; with none left, windows open to the deadline.
//
// Window ends are per partition, not global: the declarations form a
// lookahead matrix L[src][dst], and each barrier solves the standard
// conservative-PDES fixpoint over it. EOT(j) is the earliest virtual time
// partition j could still execute anything — its own horizon if it has
// pending events, else the earliest arrival that could wake it (which is
// itself a sum of some other partition's EOT and an edge latency, so the
// bound is transitive through relays). EIT(i), the earliest time anything
// can reach i, is the minimum of EOT(src)+L[src][i] over incoming edges
// plus the mobile-process bound; partition i's window then runs to
// EIT(i)−1. Partitions coupled only through slow paths — or not coupled
// at all — advance in wide windows while tight CXL neighbors stay in
// lockstep, and each partition commits its own clock at its own pace (the
// group time is the minimum commit). A partition's "earliest action" in
// that system is its earliest pending event, not its committed time — it
// provably cannot act before it — so windows reach toward the next event
// that actually exists.
//
// Windows execute on persistent per-partition workers: one long-lived
// goroutine per partition parked on a wake channel, with an atomic
// counter + sense-reversing completion barrier — no per-window goroutine
// spawns and no WaitGroup churn.
//
// Zero-lookahead couplings (shared pool memory, intra-pod links) are not
// expressible as CrossLinks — the affected processes must share one
// partition. A degenerate one-partition group IS its engine: RunUntil, Now
// and Shutdown delegate straight to it and a same-partition Hop is a Sleep,
// so it reduces byte-for-byte to the serial loop — which is why serial
// execution needs no code of its own above this package.
package sim

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// simCheck enables the scheduling-in-the-past invariant guard
// (OASIS_SIMCHECK=1): any event scheduled before its partition's committed
// window start indicates a lookahead bug and panics immediately instead of
// silently clamping. Tests may toggle it directly.
var simCheck = os.Getenv("OASIS_SIMCHECK") == "1"

// Checking reports whether OASIS_SIMCHECK=1 asked for the slow self-checks,
// so layers above the engine can hang theirs on the same switch.
func Checking() bool { return simCheck }

// minCrossLatency is the physical floor for declared cross-partition
// latencies. Anything smaller makes windows degenerate (and 0 would
// livelock the barrier loop); real cross-partition media — CXL port hops,
// NIC wire latency, cross-pod RPCs — are all far above it.
const minCrossLatency Duration = 100

// DefaultInboxBound caps each partition's cross-event inbox per window.
// Overflow panics: a partition flooding another faster than the barrier
// drains is a model bug (unbounded hidden queueing), not backpressure.
const DefaultInboxBound = 1 << 14

// extEvent is a cross-partition event awaiting barrier delivery: a
// callback or timer sent through a CrossLink, or a mobile process transfer
// (proc != nil). (at, srcPid, srcSeq) is its canonical merge key.
type extEvent struct {
	at     Duration
	srcPid int
	srcSeq uint64
	fn     func()
	tm     Timer
	proc   *Proc
	srcEng *Engine // transfer bookkeeping (nprocs accounting)
	dst    *Engine // transfer destination
}

// inbox is one partition's bounded cross-event queue. Senders append under
// the lock while the destination window runs; only the barrier drains it.
type inbox struct {
	mu  sync.Mutex
	evs []extEvent
}

// windowOrder is one window assignment handed to a partition's persistent
// worker: run to wend, then report completion on the barrier channel the
// sense bit selects.
type windowOrder struct {
	wend  Duration
	sense uint32
}

// Group coordinates partitioned execution. Build one with NewGroup, add
// partitions, register cross-partition couplings (Link, SetMobileLatency),
// then drive the whole simulation with RunUntil. Methods on Group must be
// called from the coordinating goroutine (the one calling RunUntil) unless
// documented otherwise.
type Group struct {
	parts     []*Engine
	now       Duration     // committed group time: min over partition commits
	la        [][]Duration // la[src][dst]: min declared latency, MaxTime if no edge
	mobileLat Duration     // hop latency for mobile processes; 0 = none set
	inboxCap  int

	mu        sync.Mutex // guards transfers + mobile + la during windows
	transfers []extEvent
	mobile    map[*Proc]bool

	// Persistent window workers (see RunUntil): an atomic countdown of
	// in-flight partitions plus a pair of completion channels indexed by a
	// sense bit that flips every window.
	pending atomic.Int32
	barrier [2]chan struct{}
	sense   uint32

	// Barrier scratch, reused across windows (see windows / deliver).
	wend          []Duration
	busy          []bool
	events        []uint64 // a busy partition's Events when its window began
	act, eot, eit []Duration
	extFree       [][]extEvent // recycled extEvent slices (deliver swaps them in)

	running bool
	ctr     GroupCounters
}

// GroupCounters are exact costs of the barrier loop, the partitioned
// counterpart of an engine's Counters: they depend only on the simulation —
// not on the machine, GOMAXPROCS or worker interleaving — and are plain
// fields, not obs instruments. A one-partition group runs no barrier loop and
// reads all zeros.
type GroupCounters struct {
	Barriers       uint64 // rounds that dispatched windows and waited for them
	Windows        uint64 // partition windows dispatched to a worker (busy)
	IdleCommits    uint64 // windows with nothing to execute: the clock just moved
	CrossEvents    uint64 // CrossLink events merged into a destination's timeline
	Transfers      uint64 // mobile-process hops re-homed
	FixpointPasses uint64 // sweeps over the lookahead matrix by eitFixpoint
	// CriticalEvents sums, over barriers, the events dispatched by that
	// barrier's busiest partition: the critical path of the barrier loop.
	// The partitions' summed Events over CriticalEvents is the speedup the
	// run could reach on unlimited cores with free barriers.
	CriticalEvents uint64
}

// Counters returns the group's barrier-loop counters since it was created.
func (g *Group) Counters() GroupCounters { return g.ctr }

// NewGroup returns an empty group with no partitions.
func NewGroup() *Group {
	return &Group{inboxCap: DefaultInboxBound, mobile: make(map[*Proc]bool)}
}

// AddPartition creates a new partition engine. Partitions added after the
// group has advanced start at the committed group time, matching the
// clamp-to-now semantics a late-built component sees on a shared engine.
func (g *Group) AddPartition() *Engine {
	e := New()
	e.group = g
	e.pid = len(g.parts)
	e.now = g.now
	g.parts = append(g.parts, e)
	for i := range g.la {
		g.la[i] = append(g.la[i], MaxTime)
	}
	row := make([]Duration, len(g.parts))
	for i := range row {
		row[i] = MaxTime
	}
	g.la = append(g.la, row)
	return e
}

// Partitions returns the number of partitions.
func (g *Group) Partitions() int { return len(g.parts) }

// Now returns the committed group time — the minimum partition commit:
// every partition has executed all events up to and including it. A
// one-partition group has nothing to commit between: it reads the engine's
// live clock, from inside a run as well as between runs.
func (g *Group) Now() Duration {
	if len(g.parts) == 1 {
		return g.parts[0].now
	}
	return g.now
}

// Procs returns the number of live processes across all partitions.
func (g *Group) Procs() int {
	n := 0
	for _, e := range g.parts {
		n += e.nprocs
	}
	return n
}

// SetMobileLatency declares the virtual latency of a mobile-process Hop —
// the control-plane RPC cost of moving execution between partitions. It is
// a lookahead source, so it must be at least the 100 ns physical floor.
func (g *Group) SetMobileLatency(d Duration) {
	if d < minCrossLatency {
		panic(fmt.Sprintf("sim: mobile latency %v below the %v lookahead floor", d, minCrossLatency))
	}
	g.mobileLat = d
}

// CrossLink is a declared cross-partition event channel. Every event sent
// through it must carry a timestamp at least MinLatency after the sender's
// clock — the conservative lookahead that lets the destination run a
// window of MinLatency in parallel.
type CrossLink struct {
	g        *Group
	src, dst *Engine
	min      Duration
}

// Link registers a cross-partition channel from src to dst with the given
// minimum event latency and returns it. The declaration tightens exactly
// one entry of the pairwise lookahead matrix — only dst's window shrinks,
// and only relative to src's progress; unrelated partition pairs keep
// their own wider bounds. src == dst is allowed (the link degenerates to
// local scheduling), letting callers wire uniformly and only pay for
// spans that exist.
func (g *Group) Link(src, dst *Engine, min Duration) *CrossLink {
	if src.group != g || dst.group != g {
		panic("sim: CrossLink endpoints must be partitions of this group")
	}
	if min < minCrossLatency {
		panic(fmt.Sprintf("sim: cross-partition latency %v below the %v lookahead floor (zero-lookahead edges must share a partition)", min, minCrossLatency))
	}
	if src != dst {
		g.mu.Lock()
		if min < g.la[src.pid][dst.pid] {
			g.la[src.pid][dst.pid] = min
		}
		g.mu.Unlock()
	}
	return &CrossLink{g: g, src: src, dst: dst, min: min}
}

// MinLatency returns the link's declared minimum event latency.
func (x *CrossLink) MinLatency() Duration { return x.min }

// Send schedules fn on the destination partition at absolute time at. It
// must be called from the source partition's execution context (a process
// or callback running there). The timestamp fence — at >= sender now +
// MinLatency — is what makes the declared lookahead sound, so violating
// it panics rather than silently reordering the simulation.
func (x *CrossLink) Send(at Duration, fn func()) { x.send(at, fn, nil) }

// SendTimer is the closure-free form of Send.
func (x *CrossLink) SendTimer(at Duration, tm Timer) { x.send(at, nil, tm) }

func (x *CrossLink) send(at Duration, fn func(), tm Timer) {
	if at < x.src.now+x.min {
		panic(fmt.Sprintf("sim: cross-partition send at %v violates timestamp fence (sender now %v + min latency %v)",
			at, x.src.now, x.min))
	}
	if x.src == x.dst {
		x.src.schedule(at, fn, tm, nil)
		return
	}
	x.src.seq++
	ev := extEvent{at: at, srcPid: x.src.pid, srcSeq: x.src.seq, fn: fn, tm: tm}
	ib := &x.dst.inbox
	ib.mu.Lock()
	if len(ib.evs) >= x.g.inboxCap {
		ib.mu.Unlock()
		panic(fmt.Sprintf("sim: partition %d inbox overflow (bound %d): partition %d is flooding faster than the barrier drains",
			x.dst.pid, x.g.inboxCap, x.src.pid))
	}
	ib.evs = append(ib.evs, ev)
	ib.mu.Unlock()
}

// GoMobile spawns fn as a mobile process homed on partition e: it may Hop
// between partitions mid-run. While it is registered the group's windows
// stay within the mobile latency of its next possible action; the
// registration is dropped automatically when fn returns. Register mobile
// processes before RunUntil (or from another mobile process): a mobile
// spawned mid-window by a non-mobile context is invisible to the window
// bound already in force and its first hop may trip the delivery fence.
func (g *Group) GoMobile(e *Engine, name string, fn func(p *Proc)) *Proc {
	if g.mobileLat == 0 {
		panic("sim: GoMobile requires SetMobileLatency")
	}
	var p *Proc
	p = e.Go(name, func(q *Proc) {
		defer g.demobilize(q)
		fn(q)
	})
	g.mu.Lock()
	g.mobile[p] = true
	g.mu.Unlock()
	return p
}

// demobilize drops a mobile registration; safe from partition goroutines.
func (g *Group) demobilize(p *Proc) {
	g.mu.Lock()
	delete(g.mobile, p)
	g.mu.Unlock()
}

// Hop moves the calling mobile process to partition dst, arriving exactly
// the mobile latency (SetMobileLatency) later — the modeled cost of a
// cross-partition control RPC. A same-partition hop degenerates to a sleep
// of the same length, so a process's virtual timeline is identical however
// partitions are drawn (and identical to a serial run that sleeps at the
// same points). Must be called by the process itself.
func (g *Group) Hop(p *Proc, dst *Engine) {
	if g.mobileLat == 0 {
		panic("sim: Hop requires SetMobileLatency")
	}
	src := p.eng
	if src == dst {
		p.Sleep(g.mobileLat)
		return
	}
	if dst.group != g || src.group != g {
		panic("sim: Hop destination must be a partition of this group")
	}
	at := src.after(g.mobileLat)
	src.seq++
	g.mu.Lock()
	if !g.mobile[p] {
		g.mu.Unlock()
		panic(fmt.Sprintf("sim: process %q hopped without GoMobile registration", p.name))
	}
	g.transfers = append(g.transfers, extEvent{at: at, srcPid: src.pid, srcSeq: src.seq, proc: p, srcEng: src, dst: dst})
	g.mu.Unlock()
	// No wake event exists on src: the process keeps driving src's loop until
	// it yields there, and the barrier re-homes it and schedules its arrival
	// on dst, whose worker resumes it.
	p.park()
}

// getExt pops a recycled extEvent slice (zero length, retained capacity),
// or returns nil and lets append allocate. Coordinator-only.
func (g *Group) getExt() []extEvent {
	if n := len(g.extFree); n > 0 {
		s := g.extFree[n-1]
		g.extFree[n-1] = nil
		g.extFree = g.extFree[:n-1]
		return s
	}
	return nil
}

// putExt recycles a drained extEvent slice, dropping the element payloads
// so pooled slices never pin callbacks, frames, or processes.
func (g *Group) putExt(evs []extEvent) {
	if cap(evs) == 0 {
		return
	}
	for i := range evs {
		evs[i] = extEvent{}
	}
	g.extFree = append(g.extFree, evs[:0])
}

// deliver merges all pending cross-partition traffic into the destination
// heaps: first process transfers, then each partition's inbox, each sorted
// by the canonical (timestamp, source partition, source sequence) key so
// local sequence numbers — and with them all tie-breaks — are assigned
// identically on every run. The drained slices are recycled; senders get a
// pooled replacement. Runs only between windows, on the coordinator.
func (g *Group) deliver() {
	repl := g.getExt()
	g.mu.Lock()
	tr := g.transfers
	g.transfers = repl
	g.mu.Unlock()
	sortExt(tr)
	for _, t := range tr {
		g.fence(t.at, t.srcPid, t.dst)
		t.srcEng.nprocs--
		t.dst.nprocs++
		t.proc.eng = t.dst
		t.dst.schedule(t.at, nil, nil, t.proc)
	}
	g.ctr.Transfers += uint64(len(tr))
	g.putExt(tr)
	for _, e := range g.parts {
		repl := g.getExt()
		e.inbox.mu.Lock()
		evs := e.inbox.evs
		e.inbox.evs = repl
		e.inbox.mu.Unlock()
		sortExt(evs)
		for _, ev := range evs {
			g.fence(ev.at, ev.srcPid, e)
			e.schedule(ev.at, ev.fn, ev.tm, nil)
		}
		g.ctr.CrossEvents += uint64(len(evs))
		g.putExt(evs)
	}
}

// fence asserts an arriving cross event lands strictly after the
// destination's committed time — the always-on half of the lookahead
// invariant, now per destination: a partition that committed far ahead
// must never have been reachable by this event.
func (g *Group) fence(at Duration, srcPid int, dst *Engine) {
	if at <= dst.now && dst.now > 0 {
		panic(fmt.Sprintf("sim: cross-partition event from partition %d arrives at %v, inside partition %d's committed window (commit %v)",
			srcPid, at, dst.pid, dst.now))
	}
}

// drained reports whether every partition's queues are empty (transfers and
// inboxes were merged by the deliver that just ran). Signal-parked processes
// with no event that could ever wake them do not keep the group alive —
// matching a serial Run returning on an exhausted heap.
func (g *Group) drained() bool {
	for _, e := range g.parts {
		if _, pending := e.nextAt(); pending {
			return false
		}
	}
	return true
}

// sortExt orders by the canonical merge key (timestamp, source partition,
// source sequence); the key is unique, so stability does not matter.
func sortExt(evs []extEvent) {
	slices.SortFunc(evs, func(a, b extEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.srcPid, b.srcPid), cmp.Compare(a.srcSeq, b.srcSeq))
	})
}

// growScratch sizes the per-barrier scratch vectors to the partition count.
func (g *Group) growScratch() {
	n := len(g.parts)
	g.wend = make([]Duration, n)
	g.act = make([]Duration, n)
	g.eot = make([]Duration, n)
	g.eit = make([]Duration, n)
	g.busy = make([]bool, n)
	g.events = make([]uint64, n)
}

// eitFixpoint solves the conservative EOT/EIT system over the lookahead
// matrix for the "earliest action" vector g.act (see windows), into g.eot
// and g.eit:
//
//	eot[j] = min(act[j], max(eit[j], commit[j]+1))
//	eit[j] = min over incoming edges (eot[src] + L[src][j]), and the
//	         mobile-process bound mob (a mobile may hop anywhere)
//
// starting from the top (eit = MaxTime) and iterating to the greatest
// fixpoint: every finite bound traces back to a real pending event through
// edges of at least the 100 ns floor, so relayed influence — a drained
// partition woken next barrier and then emitting — is bounded transitively.
// Values only decrease and each pass propagates bounds one more hop, so it
// converges within len(parts) passes.
func (g *Group) eitFixpoint(mob Duration) {
	act, eot, eit := g.act, g.eot, g.eit
	n := len(g.parts)
	for j := 0; j < n; j++ {
		eot[j] = act[j]
		eit[j] = MaxTime
	}
	for changed := true; changed; {
		changed = false
		g.ctr.FixpointPasses++
		for dst := 0; dst < n; dst++ {
			m := mob
			for src := 0; src < n; src++ {
				l := g.la[src][dst]
				if l == MaxTime || eot[src] == MaxTime {
					continue
				}
				if a := eot[src] + l; a < m {
					m = a
				}
			}
			if m < eit[dst] {
				eit[dst] = m
				changed = true
			}
			o := eit[dst]
			if lo := g.parts[dst].now + 1; o != MaxTime && o < lo {
				o = lo
			}
			if act[dst] < o {
				o = act[dst]
			}
			if o < eot[dst] {
				eot[dst] = o
				changed = true
			}
		}
	}
}

// windows computes each partition's next conservative window end into
// g.wend. The action vector fed to the fixpoint is the event horizon: a
// partition provably cannot act before its earliest pending event (nothing
// local can run sooner, and anything arriving sooner is what eit bounds), and
// a drained one cannot act at all until something reaches it. It derives
// purely from virtual state, so window shapes — and with them all merge
// orders — are identical at any GOMAXPROCS. Window ends are inclusive
// (RunUntil executes events at the boundary), so bounds subtract one tick to
// keep arrivals strictly outside the window.
func (g *Group) windows(deadline Duration) {
	if len(g.wend) != len(g.parts) {
		g.growScratch()
	}
	for i, e := range g.parts {
		g.act[i] = MaxTime
		if h, pending := e.nextAt(); pending {
			g.act[i] = h
		}
	}
	mob := MaxTime
	g.mu.Lock()
	for p := range g.mobile {
		earliest := p.eng.now
		if p.blockedIdx == -1 && p.hasWake {
			// Parked on a pure timer: provably inert until wakeAt. A
			// signal-parked or runnable mobile process may act any time, so
			// it pins the bound at its partition's committed time.
			earliest = p.wakeAt
		}
		if earliest >= MaxTime-g.mobileLat {
			continue
		}
		if b := earliest + g.mobileLat; b < mob {
			mob = b
		}
	}
	g.mu.Unlock()
	g.eitFixpoint(mob)
	for i, e := range g.parts {
		w := deadline
		if eit := g.eit[i]; eit != MaxTime && eit-1 < w {
			w = eit - 1
		}
		if w < e.now {
			w = e.now // held: this partition legally sits this round out
		}
		g.wend[i] = w
	}
}

// ensureWorkers lazily starts the persistent window workers: one goroutine
// per partition, parked on its wake channel until the coordinator assigns
// it a window. Workers live until Shutdown closes the channels.
func (g *Group) ensureWorkers() {
	if g.barrier[0] == nil {
		g.barrier[0] = make(chan struct{}, 1)
		g.barrier[1] = make(chan struct{}, 1)
	}
	for _, e := range g.parts {
		if e.wake == nil {
			e.wake = make(chan windowOrder, 1)
			go g.worker(e, e.wake)
		}
	}
}

// worker is one partition's persistent window loop: run each assigned
// window with the ordinary serial engine loop, then count down the barrier;
// the last partition to finish releases the coordinator on the channel the
// window's sense bit selects. The wake channel is passed by value so only
// the coordinator ever touches the Engine field (Shutdown nils it).
func (g *Group) worker(e *Engine, wake <-chan windowOrder) {
	for w := range wake {
		e.RunUntil(w.wend)
		if g.pending.Add(-1) == 0 {
			g.barrier[w.sense] <- struct{}{}
		}
	}
}

// RunUntil advances every partition to the deadline through the barrier
// loop: deliver pending cross events, solve the pairwise windows, dispatch
// each partition with work to its persistent worker (partitions whose
// window is empty just commit their clock; partitions already at their
// bound sit the round out), wait on the completion barrier, repeat. A
// one-partition group delegates directly to the engine — byte-for-byte the
// serial loop.
func (g *Group) RunUntil(deadline Duration) Duration {
	if g.running {
		panic("sim: Group.RunUntil called re-entrantly")
	}
	if len(g.parts) == 0 {
		panic("sim: group has no partitions")
	}
	g.running = true
	defer func() { g.running = false }()
	if len(g.parts) == 1 {
		g.parts[0].RunUntil(deadline)
		g.now = g.parts[0].now
		return g.now
	}
	g.ensureWorkers()
	for {
		g.deliver()
		g.now = g.parts[0].now
		for _, e := range g.parts[1:] {
			if e.now < g.now {
				g.now = e.now
			}
		}
		if g.now >= deadline {
			return g.now
		}
		if deadline == MaxTime && g.drained() {
			// Open-ended run and every queue is empty: the simulation is
			// over, exactly as a serial Run returns on an exhausted heap.
			// Commit to the latest partition time — the last event anywhere.
			for _, e := range g.parts {
				if e.now > g.now {
					g.now = e.now
				}
			}
			return g.now
		}
		g.windows(deadline)
		nbusy := 0
		progress := false
		for i, e := range g.parts {
			g.busy[i] = false
			wend := g.wend[i]
			if wend <= e.now {
				continue // held
			}
			if at, pending := e.nextAt(); !pending || at > wend {
				// Idle window: nothing to execute, just commit the clock.
				if wend != MaxTime {
					e.now = wend
					progress = true
					g.ctr.IdleCommits++
				}
				continue
			}
			g.busy[i] = true
			nbusy++
			progress = true
			e.windowStart = e.now
		}
		if !progress {
			panic(fmt.Sprintf("sim: window collapsed at %v (no partition can advance; mobile latency %v)", g.now, g.mobileLat))
		}
		if nbusy == 0 {
			continue
		}
		g.ctr.Barriers++
		g.ctr.Windows += uint64(nbusy)
		s := g.sense
		g.pending.Store(int32(nbusy))
		for i, e := range g.parts {
			if g.busy[i] {
				g.events[i] = e.ctr.Events
				e.wake <- windowOrder{wend: g.wend[i], sense: s}
			}
		}
		<-g.barrier[s]
		g.sense ^= 1
		var critical uint64
		for i, e := range g.parts {
			if g.busy[i] {
				critical = max(critical, e.ctr.Events-g.events[i])
			}
		}
		g.ctr.CriticalEvents += critical
	}
}

// Run executes until every partition drains or the clock never advances —
// partitioned simulations are usually driven with an explicit deadline, so
// Run is a convenience for tests.
func (g *Group) Run() Duration { return g.RunUntil(MaxTime) }

// Shutdown terminates the whole group: the persistent workers exit, every
// partition's processes unwind (including mobile processes caught mid-hop)
// and pending events drop. Must not be called while RunUntil is executing
// a window — there a partition's "now" is not a single global instant. A
// one-partition group has no windows, workers or transfers: it is
// Engine.Shutdown, safe from a process or callback mid-run.
func (g *Group) Shutdown() {
	if len(g.parts) == 1 {
		g.parts[0].Shutdown()
		return
	}
	if g.running {
		panic("sim: Group.Shutdown called during a window")
	}
	for _, e := range g.parts {
		if e.wake != nil {
			close(e.wake)
			e.wake = nil
		}
	}
	// Nothing is in flight: RunUntil delivers every hop before it returns, so
	// a mobile process caught mid-hop waits in its destination's timeline and
	// unwinds with that partition.
	for _, e := range g.parts {
		e.Shutdown()
	}
}
