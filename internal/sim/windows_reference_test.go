package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// The window bound's differential oracle: seeded random programs run once on
// a Group of 2–5 partitions and once on one plain Engine, where every cross
// send is an At and every Hop a Sleep. The per-partition transcripts must be
// equal line for line. Whatever Group.windows computes, it may only change
// how far a partition runs between barriers — never what it executes or when.
//
// A program keeps every (partition, instant) to one kind of event so that
// order is decided by time alone and the two runs have no tie to break
// differently: local timers fire on multiples of 16 ns, a cross event from
// partition s arrives on an instant ≡ 2s+1 (mod 16), and the one mobile
// process lives on instants ≡ 11. Events of one kind at one instant were
// scheduled by one partition's code, in the order that code ran, in both runs.
const (
	winTick      = 16
	winHopClass  = 11
	winMaxParts  = 5
	winRootsPer  = 3
	winRootTTL   = 7
	winHopRounds = 12
)

// winMix is splitmix64: every choice a program makes is a hash of the event
// making it, so partitions running in parallel share no random state.
func winMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// winAlign returns the first instant at or after t that is ≡ class (mod 16).
func winAlign(t Duration, class int) Duration {
	return t + (Duration(class)-t%winTick+winTick)%winTick
}

// winProgram is what a seed decides before anything runs.
type winProgram struct {
	seed      uint64
	nparts    int
	lat       [][]Duration // declared Link latency src → dst, 0 = no edge
	hop       Duration     // mobile latency; the hopper runs iff hopper
	hopper    bool
	empty     []bool // partitions that start with nothing pending
	deadlines []Duration
	drain     bool // finish with Run() instead of a last deadline
}

func newWinProgram(seed uint64) *winProgram {
	r := winMix(seed)
	next := func(n uint64) uint64 { r = winMix(r); return r % n }
	pr := &winProgram{seed: seed, nparts: 2 + int(next(winMaxParts-1))}
	pr.lat = make([][]Duration, pr.nparts)
	pr.empty = make([]bool, pr.nparts)
	for s := range pr.lat {
		pr.lat[s] = make([]Duration, pr.nparts)
		for d := range pr.lat[s] {
			if s == d || next(10) < 3 {
				continue // missing edge
			}
			l := minCrossLatency + Duration(next(1900))
			if next(2) == 0 {
				// A latency of the sender's arrival class: a send from a local
				// timer with no jitter lands exactly on the timestamp fence.
				l = winAlign(l, 2*s+1)
			}
			pr.lat[s][d] = l
		}
		pr.empty[s] = s > 0 && next(3) == 0
	}
	pr.hopper = next(4) != 0
	pr.hop = winTick * Duration(7+next(60))
	for i, n := 0, 1+int(next(4)); i < n; i++ {
		pr.deadlines = append(pr.deadlines, Duration(next(40_000))) // any nanosecond: mid-window
	}
	slices.Sort(pr.deadlines)
	pr.drain = next(2) == 0
	if !pr.drain {
		pr.deadlines = append(pr.deadlines, time.Millisecond)
	}
	return pr
}

// winWorld runs a program: on a Group's partitions, or (g == nil) with every
// partition index naming the one plain Engine.
type winWorld struct {
	pr    *winProgram
	g     *Group
	engs  []*Engine
	links [][]*CrossLink
	logs  [][]string // per partition; only that partition's context appends
	cuts  [][]int    // len(logs[i]) after each deadline
	cross int        // deliveries, relays, wakes of an empty partition (reference run only)
	relay int
	woken int
}

func newWinWorld(pr *winProgram, partitioned bool) *winWorld {
	w := &winWorld{pr: pr, engs: make([]*Engine, pr.nparts), logs: make([][]string, pr.nparts)}
	if !partitioned {
		e := New()
		for i := range w.engs {
			w.engs[i] = e
		}
		return w
	}
	w.g = NewGroup()
	w.g.SetMobileLatency(pr.hop)
	for i := range w.engs {
		w.engs[i] = w.g.AddPartition()
	}
	w.links = make([][]*CrossLink, pr.nparts)
	for s := range w.links {
		w.links[s] = make([]*CrossLink, pr.nparts)
		for d, l := range pr.lat[s] {
			if l != 0 {
				w.links[s][d] = w.g.Link(w.engs[s], w.engs[d], l)
			}
		}
	}
	return w
}

func (w *winWorld) logf(part int, kind string, id uint64) {
	w.logs[part] = append(w.logs[part], fmt.Sprintf("%d %s %016x", w.engs[part].Now(), kind, id))
}

func (w *winWorld) local(part int, at Duration, id uint64, ttl int) {
	w.engs[part].At(at, func() { w.fire(part, "local", id, ttl) })
}

// send is a cross event src → dst over a declared edge, arriving at the
// first instant of src's class no earlier than the fence allows plus jitter.
func (w *winWorld) send(src, dst int, jitter Duration, id uint64, ttl int, kind string) {
	at := winAlign(w.engs[src].Now()+w.pr.lat[src][dst]+jitter, 2*src+1)
	fn := func() { w.fire(dst, kind, id, ttl) }
	if w.g != nil {
		w.links[src][dst].Send(at, fn)
	} else {
		w.engs[dst].At(at, fn)
	}
}

// fire is every event's body: log, then spend the event's hash on children —
// local timers and cross sends (from an arrival, a relay) — until ttl runs out.
func (w *winWorld) fire(part int, kind string, id uint64, ttl int) {
	w.logf(part, kind, id)
	if w.g == nil && kind != "local" {
		w.cross++
		if kind == "relay" {
			w.relay++
		}
		if w.pr.empty[part] && len(w.logs[part]) == 1 {
			w.woken++
		}
	}
	if ttl == 0 {
		return
	}
	r := winMix(id)
	now := w.engs[part].Now()
	for k := uint64(0); k < 2; k++ {
		if c := winMix(r + k); c%4 < 2-k {
			w.local(part, winAlign(now+winTick*Duration(1+c>>8%200), 0), c, ttl-1)
		}
	}
	for k := uint64(2); k < 4; k++ {
		c := winMix(r + k)
		dst := int(c >> 4 % uint64(w.pr.nparts))
		if c%4 == 3 || w.pr.lat[part][dst] == 0 {
			continue
		}
		var jitter Duration
		if c>>3&1 == 1 {
			jitter = Duration(c >> 20 % 500)
		}
		childKind := "recv"
		if kind != "local" {
			childKind = "relay"
		}
		w.send(part, dst, jitter, c, ttl-1, childKind)
	}
}

// hopper is the mobile process: it visits partitions at random, acting on
// each — a local timer, a cross send, a sleep — on instants of its own class.
func (w *winWorld) hopper(p *Proc) {
	p.Sleep(winHopClass)
	for round := uint64(0); round < winHopRounds; round++ {
		r := winMix(w.pr.seed ^ 0xabcdef ^ round<<32)
		part := int(r % uint64(w.pr.nparts))
		if w.g != nil {
			w.g.Hop(p, w.engs[part])
		} else {
			p.Sleep(w.pr.hop)
		}
		w.logf(part, "hopper", r)
		w.local(part, winAlign(p.Now()+winTick, 0), winMix(r+1), 2)
		if dst := int(r >> 8 % uint64(w.pr.nparts)); w.pr.lat[part][dst] != 0 {
			w.send(part, dst, 0, winMix(r+2), 2, "recv")
		}
		p.Sleep(winTick * Duration(r>>16%40))
	}
}

func (w *winWorld) run() {
	pr := w.pr
	for part := 0; part < pr.nparts; part++ {
		if pr.empty[part] {
			continue // drained from the start; whatever reaches it wakes it late
		}
		for k := uint64(0); k < winRootsPer; k++ {
			id := winMix(pr.seed<<8 | uint64(part)<<4 | k)
			w.local(part, winTick*Duration(1+id%300), id, winRootTTL)
		}
	}
	if pr.hopper {
		if w.g != nil {
			w.g.GoMobile(w.engs[0], "hopper", w.hopper)
		} else {
			w.engs[0].Go("hopper", w.hopper)
		}
	}
	cut := func() {
		c := make([]int, pr.nparts)
		for i, l := range w.logs {
			c[i] = len(l)
		}
		w.cuts = append(w.cuts, c)
	}
	for _, d := range pr.deadlines {
		if w.g != nil {
			w.g.RunUntil(d)
		} else {
			w.engs[0].RunUntil(d)
		}
		cut()
	}
	if pr.drain {
		if w.g != nil {
			w.g.Run()
		} else {
			w.engs[0].Run()
		}
		cut()
	}
	if w.g != nil {
		w.g.Shutdown()
	} else {
		w.engs[0].Shutdown()
	}
}

func TestWindowsMatchSingleEngineReference(t *testing.T) {
	forceSimCheck(t)
	const seeds = 40
	refs := make([]*winWorld, seeds)
	var cross, relay, woken, hoppers, events int
	for s := range refs {
		refs[s] = newWinWorld(newWinProgram(uint64(s+1)), false)
		refs[s].run()
		cross, relay, woken = cross+refs[s].cross, relay+refs[s].relay, woken+refs[s].woken
		if refs[s].pr.hopper {
			hoppers++
		}
		for _, l := range refs[s].logs {
			events += len(l)
		}
	}
	if cross < 1000 || relay < 200 || woken < 5 || hoppers < 10 {
		t.Fatalf("programs too tame to test anything: %d events, %d cross deliveries, %d relayed, %d drained partitions woken, %d hoppers",
			events, cross, relay, woken, hoppers)
	}
	t.Logf("%d programs: %d events, %d cross deliveries (%d relayed), %d drained partitions woken, %d hoppers",
		seeds, events, cross, relay, woken, hoppers)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, ref := range refs {
			got := newWinWorld(ref.pr, true)
			got.run()
			for part := range ref.logs {
				if !slices.Equal(got.logs[part], ref.logs[part]) {
					i := 0
					for i < len(got.logs[part]) && i < len(ref.logs[part]) && got.logs[part][i] == ref.logs[part][i] {
						i++
					}
					t.Fatalf("seed %d, GOMAXPROCS=%d, partition %d of %d: transcript differs from the single engine's at line %d (%d lines vs %d):\n got %q\nwant %q",
						ref.pr.seed, procs, part, ref.pr.nparts, i, len(got.logs[part]), len(ref.logs[part]),
						lineAt(got.logs[part], i), lineAt(ref.logs[part], i))
				}
			}
			for d := range ref.cuts {
				if !slices.Equal(got.cuts[d], ref.cuts[d]) {
					t.Fatalf("seed %d, GOMAXPROCS=%d: lines logged by deadline %d (%v of %v): %v, the single engine %v",
						ref.pr.seed, procs, d, ref.pr.deadlines, ref.pr.drain, got.cuts[d], ref.cuts[d])
				}
			}
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}
