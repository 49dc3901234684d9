// Package cache models one host's CPU cache in front of the CXL pool.
//
// This is the piece of the substrate that makes the pool *non-coherent*: a
// line cached on host A is never invalidated when host B (or a device)
// overwrites the corresponding pool memory, so A keeps reading stale data
// until software explicitly invalidates the line (CLFLUSHOPT + MFENCE) —
// exactly the behaviour §3.2 of the paper builds its message-channel designs
// around. The model implements:
//
//   - demand fills with load-to-use latency and link-bandwidth serialization,
//   - software prefetch (PREFETCHT0) as an asynchronous fill that is IGNORED
//     when the line is already present — even if the cached copy is stale.
//     This "prefetchers ignore present lines" rule is the root cause of the
//     order-of-magnitude throughput gap between the paper's channel designs
//     ② and ③ (Fig. 6),
//   - CLFLUSHOPT (write back if dirty, then drop), CLWB (write back, keep
//     clean), MFENCE (ordering cost),
//   - write-back caching with LRU eviction (evicted dirty lines reach the
//     pool — a coherence hazard Oasis avoids by explicit management),
//   - snooping for device DMA: DMA that hits a host cache must write back /
//     drop the line first, the cost §3.2.1 eliminates by keeping I/O buffers
//     out of backend caches.
//
// All timing methods take the calling process and advance its virtual time.
// Each is a cost slept around an effect, and the effects are exported on
// their own (the ...Now methods, ReadIssue/ReadCollect) for callers that
// charge several operations as the legs of one sim.Proc.SleepSteps: a
// message-channel poll, or the range helpers below.
package cache

import (
	"fmt"
	"time"

	"oasis/internal/cxl"
	"oasis/internal/sim"
)

// Params configures per-operation CPU costs. Defaults are representative of
// a current x86 server core (§2.3 and common microbenchmark values).
type Params struct {
	HitLatency     sim.Duration // L1/L2 hit, per line access
	StoreLatency   sim.Duration // store into a cached line, per line
	FlushIssue     sim.Duration // CLFLUSHOPT issue cost, per line
	WritebackIssue sim.Duration // CLWB issue cost, per line
	FenceLatency   sim.Duration // MFENCE drain cost
	PrefetchIssue  sim.Duration // PREFETCHT0 issue cost, per line
}

// DefaultCapacityLines is the LRU capacity: 32 Ki lines = 2 MiB, a slice of
// LLC plausibly available to a polling core.
const DefaultCapacityLines = 32768

// DefaultParams returns the calibrated cost model.
func DefaultParams() Params {
	return Params{
		HitLatency:     2 * time.Nanosecond,
		StoreLatency:   6 * time.Nanosecond,
		FlushIssue:     15 * time.Nanosecond,
		WritebackIssue: 15 * time.Nanosecond,
		FenceLatency:   30 * time.Nanosecond,
		PrefetchIssue:  1 * time.Nanosecond,
	}
}

// Stats counts cache events for tests and ablation reports.
type Stats struct {
	Hits              int64 // line accesses served from a ready cached line
	Misses            int64 // demand fills
	FillWaits         int64 // accesses that waited on an in-flight fill
	PrefetchIssued    int64 // prefetches that started a fill
	PrefetchIgnored   int64 // prefetches dropped because the line was present
	Writebacks        int64 // CLWB/CLFLUSHOPT pushes of dirty lines
	Evictions         int64 // capacity evictions
	SnoopWritebacks   int64 // DMA snoops that hit a dirty line
	SnoopDrops        int64 // DMA snoops that hit a clean line
	BackInvalidations int64 // CXL 3.0 BI messages applied (HWCoherent mode)
	DDIOInstalls      int64 // DDIO allocating writes landed in this cache
}

// line is one resident (or orphaned, see dropLine) cache line. It fits the
// 112-byte size class: gen packs beside the two flags as a uint32, which is
// enough, because a stale fill completion could only mistake a reused struct
// for its own fill after 2³² drops of that one struct while the fill was in
// flight.
type line struct {
	addr    int64
	data    [cxl.LineSize]byte
	dirty   bool
	pending bool         // fill in flight
	held    uint16       // processes asleep on the fill, holding the line
	gen     uint32       // invalidation cancels stale fill completions
	readyAt sim.Duration // when the in-flight fill lands
	// Intrusive LRU links (head = most recently used). Embedding the links
	// avoids a list-element allocation per fill on the datapath hot path.
	prev, next *line
	hnext      *line // the next line in its lineTable slot
}

// Cache is one host's cache over the CXL pool, reached through one port.
type Cache struct {
	eng    *sim.Engine
	port   *cxl.Port
	params Params
	lines  lineTable
	// Intrusive LRU list over the resident lines.
	lruHead, lruTail *line
	// Dropped lines are recycled here. A recycled line keeps its gen counter
	// (monotonically increasing for the struct's whole lifetime), so a stale
	// in-flight fill completion can never mistake a reused struct for the
	// fill it was issued for.
	freeLines []*line
	freeFills []*fillOp // recycled fill-completion ops (engine-local, no lock)
	// Steppers of range operations and reads not in flight. A driver and an
	// instance process share their host's cache and may each be mid-range,
	// so every call takes its own.
	freeRanges []*RangeOp
	freeReads  []*ReadOp
	stats      Stats
}

// fillOp is the pooled completion of an asynchronous line fill; firing it as
// a sim.Timer avoids a closure allocation per fill (see sim.Timer). The gen
// snapshot makes a stale completion for an invalidated-and-reused line a
// no-op, exactly as the closure it replaced did.
type fillOp struct {
	c   *Cache
	ln  *line
	gen uint32
}

func (f *fillOp) Fire() {
	c, ln := f.c, f.ln
	if ln.gen == f.gen && ln.pending {
		c.port.CollectLine(ln.addr, ln.data[:])
		ln.pending = false
	}
	f.c, f.ln = nil, nil
	c.freeFills = append(c.freeFills, f)
}

// New returns an empty cache in front of port. When the pool runs in
// HWCoherent (CXL 3.0 Back Invalidation) mode, the cache subscribes to BI
// messages so remote writes invalidate its lines automatically.
func New(eng *sim.Engine, port *cxl.Port, params Params) *Cache {
	c := &Cache{eng: eng, port: port, params: params}
	port.Pool().RegisterBI(c)
	return c
}

// BackInvalidate implements cxl.BackInvalidator: a remote write reached the
// line, so this cache's copy is dropped without writeback (the remote owner
// has the newer data). Only invoked in HWCoherent mode.
func (c *Cache) BackInvalidate(lineAddr int64) {
	if ln := c.lines.get(lineAddr); ln != nil {
		ln.gen++ // cancel in-flight fills
		c.lruUnlink(ln)
		c.lines.del(ln)
		if !ln.pending || ln.held == 0 {
			c.recycleLine(ln)
		}
		c.stats.BackInvalidations++
	}
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Port returns the CXL port this cache fills from.
func (c *Cache) Port() *cxl.Port { return c.port }

// Params returns the per-operation costs, for callers that charge them as
// legs of a stepped sleep.
func (c *Cache) Params() Params { return c.params }

// lruPushFront links a line at the MRU position.
func (c *Cache) lruPushFront(ln *line) {
	ln.prev = nil
	ln.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = ln
	}
	c.lruHead = ln
	if c.lruTail == nil {
		c.lruTail = ln
	}
}

// lruUnlink detaches a line from the LRU list.
func (c *Cache) lruUnlink(ln *line) {
	if ln.prev != nil {
		ln.prev.next = ln.next
	} else {
		c.lruHead = ln.next
	}
	if ln.next != nil {
		ln.next.prev = ln.prev
	} else {
		c.lruTail = ln.prev
	}
	ln.prev, ln.next = nil, nil
}

// touch moves a line to the MRU position. A line dropped while a waiter
// slept on its fill is orphaned (unlinked); touching it is a no-op, exactly
// as moving a removed container/list element was.
func (c *Cache) touch(ln *line) {
	if c.lruHead == ln {
		return
	}
	if ln.prev == nil {
		return // orphaned: not the head and not linked
	}
	c.lruUnlink(ln)
	c.lruPushFront(ln)
}

// newLine returns a recycled (or fresh) line for addr. Recycled lines keep
// their gen counter; every other field is reset.
func (c *Cache) newLine(addr int64) *line {
	if n := len(c.freeLines); n > 0 {
		ln := c.freeLines[n-1]
		c.freeLines[n-1] = nil
		c.freeLines = c.freeLines[:n-1]
		ln.addr = addr
		ln.dirty, ln.pending, ln.held = false, false, 0
		ln.readyAt = 0
		return ln
	}
	return &line{addr: addr}
}

// recycleLine puts a dropped line on the free list.
func (c *Cache) recycleLine(ln *line) {
	c.freeLines = append(c.freeLines, ln)
}

// insert adds a line, evicting LRU entries over capacity.
func (c *Cache) insert(ln *line) {
	c.lruPushFront(ln)
	c.lines.put(ln)
	attempts := c.lines.n
	for c.lines.n > DefaultCapacityLines && attempts > 0 {
		attempts--
		victim := c.lruTail
		if victim.pending {
			// Never evict an in-flight fill; promote it instead.
			c.touch(victim)
			continue
		}
		c.dropLine(victim, "evict")
		c.stats.Evictions++
	}
}

// dropLine removes a line, writing it back first when dirty.
func (c *Cache) dropLine(ln *line, category string) {
	if ln.dirty {
		c.port.WriteLine(ln.addr, ln.data[:], category)
		c.stats.Writebacks++
	}
	ln.gen++ // cancels any in-flight fill completion
	c.lruUnlink(ln)
	c.lines.del(ln)
	// A pending line may still be referenced by a waiter parked on its fill;
	// leave it orphaned rather than letting a reuse corrupt the waiter's view.
	// With no waiter it is reused at once: a fill completion event checks
	// gen, which reuse keeps, and everything else finds lines by address.
	if !ln.pending || ln.held == 0 {
		c.recycleLine(ln)
	}
}

// startFill begins an asynchronous fill for an absent line and returns it.
// With timer, a completion event lands the data at readyAt whoever is or is
// not waiting; without, the caller guarantees a waiter collects the line at
// readyAt itself (see ReadIssue).
func (c *Cache) startFill(addr int64, category string, timer bool) *line {
	ln := c.newLine(addr)
	ln.pending = true
	ln.readyAt = c.port.FetchLine(addr, category)
	if timer {
		var f *fillOp
		if n := len(c.freeFills); n > 0 {
			f = c.freeFills[n-1]
			c.freeFills[n-1] = nil
			c.freeFills = c.freeFills[:n-1]
		} else {
			f = &fillOp{}
		}
		f.c, f.ln, f.gen = c, ln, ln.gen
		c.eng.AtTimer(ln.readyAt, f)
	}
	c.insert(ln)
	return ln
}

// access is the issue half of a load of line a: a ready line is a hit (and
// readyAt is 0); an absent one starts a demand fill and an in-flight one is
// joined, both to be collected at readyAt.
func (c *Cache) access(a int64, category string, timer bool) (readyAt sim.Duration, hit bool) {
	ln := c.lines.get(a)
	if ln == nil {
		c.stats.Misses++
		ln = c.startFill(a, category, timer)
	} else if ln.pending {
		c.stats.FillWaits++
	} else {
		c.stats.Hits++
		c.touch(ln)
		return 0, true
	}
	return ln.readyAt, false
}

// ready reports whether an access of line a now would be a hit.
func (c *Cache) ready(a int64) bool {
	ln := c.lines.get(a)
	return ln != nil && !ln.pending
}

// collect is the other half, run once the fill has had time to land: it
// returns the line with its data in place, or nil when the line was evicted,
// snooped or back-invalidated meanwhile.
func (c *Cache) collect(a int64) *line {
	ln := c.lines.get(a)
	if ln != nil && ln.pending {
		c.port.CollectLine(a, ln.data[:])
		ln.pending = false
	}
	return ln
}

// ensureReady makes the line present and ready, advancing p's time by the
// demand-miss or fill-wait cost. It returns the line.
func (c *Cache) ensureReady(p *sim.Proc, addr int64, category string) *line {
	ln := c.lines.get(addr)
	if ln == nil {
		c.stats.Misses++
		ln = c.startFill(addr, category, true)
	} else if ln.pending {
		c.stats.FillWaits++
	} else {
		c.stats.Hits++
		c.touch(ln)
		p.Sleep(c.params.HitLatency)
		return ln
	}
	if wait := ln.readyAt - p.Now(); wait > 0 {
		ln.held++
		p.Sleep(wait)
		ln.held--
	}
	// The fill-completion event and this wakeup share a timestamp; the fill
	// event was scheduled first, so the data has landed. Guard regardless.
	if ln.pending {
		c.port.CollectLine(addr, ln.data[:])
		ln.pending = false
	}
	c.touch(ln)
	p.Sleep(c.params.HitLatency)
	return ln
}

// Read copies len(buf) bytes at addr through the cache into buf, advancing
// p's time. Fills for all absent lines are issued up front and overlap (the
// core's miss-level parallelism), so bulk copies run at link bandwidth plus
// one load-to-use latency, not one latency per line. Present lines are
// served from the cache — including stale ones; staleness is the caller's
// problem, as on real non-coherent hardware. It is a ReadOp run as a job.
func (c *Cache) Read(p *sim.Proc, addr int64, buf []byte, category string) {
	var o *ReadOp
	if k := len(c.freeReads); k > 0 {
		o = c.freeReads[k-1]
		c.freeReads = c.freeReads[:k-1]
	} else {
		o = &ReadOp{}
	}
	o.Begin(c, addr, buf, category)
	p.RunJob(o)
	o.buf = nil
	c.freeReads = append(c.freeReads, o)
}

// ReadOp is Read as a sim.Job, for a caller that runs a read as part of its
// own chain of steps: Begin, then Step from the first Step. Every line's
// access is issued in turn — a run of hits costs one leg of HitLatency per
// hit before the next access — with a fill-completion event for each miss,
// as Read has always scheduled them; one leg waits for the slowest fill;
// then every line is copied out.
// A line that went away under its fill (evicted by a capacity squeeze
// mid-copy, rare) blocks the job: Finish refills it synchronously, and the
// copy goes on.
type ReadOp struct {
	c          *Cache
	addr       int64
	buf        []byte
	category   string
	next, last int64 // the line the read is at; its final line
	lastReady  sim.Duration
	pc         readPC
}

// readPC says where a ReadOp is.
type readPC uint8

const (
	readIssue   readPC = iota // issue line next's access (after its predecessor's hit leg)
	readCollect               // every fill has landed: copy line next out
	readRefill                // line next vanished: Finish refills it
	readDone
)

// Begin starts a read of len(buf) bytes at addr through c into buf.
func (o *ReadOp) Begin(c *Cache, addr int64, buf []byte, category string) {
	*o = ReadOp{c: c, addr: addr, buf: buf, category: category, pc: readDone}
	if len(buf) > 0 {
		o.next, o.last = cxl.LineAddr(addr), cxl.LineAddr(addr+int64(len(buf))-1)
		o.pc = readIssue
	}
}

// Step implements sim.Stepper.
func (o *ReadOp) Step() (sim.Duration, bool) {
	c := o.c
	switch o.pc {
	case readIssue:
		hits := 0
		for o.next <= o.last {
			if hits > 0 && !c.ready(o.next) {
				break // a miss or a fill in flight is issued after the run's leg
			}
			readyAt, hit := c.access(o.next, o.category, true)
			o.next += cxl.LineSize
			if hit {
				hits++
				continue
			}
			o.lastReady = max(o.lastReady, readyAt)
		}
		if hits > 0 {
			return c.params.HitLatency * sim.Duration(hits), true
		}
		o.next, o.pc = cxl.LineAddr(o.addr), readCollect
		if wait := o.lastReady - c.eng.Now(); wait > 0 {
			return wait, true
		}
		fallthrough
	case readCollect:
		for ; o.next <= o.last; o.next += cxl.LineSize {
			ln := c.collect(o.next)
			if ln == nil {
				o.pc = readRefill
				return 0, false
			}
			copyOut(o.buf, o.addr, ln)
		}
		o.pc = readDone
	}
	return 0, false
}

// Blocked implements sim.Job: a line vanished under its fill.
func (o *ReadOp) Blocked() bool { return o.pc == readRefill }

// Finish implements sim.Job: it refills the vanished line, blocking p.
func (o *ReadOp) Finish(p *sim.Proc) {
	copyOut(o.buf, o.addr, o.c.ensureReady(p, o.next, o.category))
	o.next += cxl.LineSize
	o.pc = readCollect
}

// overlap returns the part [lo, hi) of [addr, addr+n) that lies in line a.
func overlap(a, addr int64, n int) (lo, hi int64) {
	return max(a, addr), min(a+cxl.LineSize, addr+int64(n))
}

// copyOut copies the part of [addr, addr+len(buf)) that lies in ln into buf.
func copyOut(buf []byte, addr int64, ln *line) {
	lo, hi := overlap(ln.addr, addr, len(buf))
	copy(buf[lo-addr:hi-addr], ln.data[lo-ln.addr:hi-ln.addr])
}

// ReadIssue is the issue half of a Read that stays inside one line, for a
// caller that sleeps the wait as a leg of a stepped sleep and then calls
// ReadCollect. A hit costs HitLatency; otherwise the leg lasts until the
// fill lands, and is skipped when wait is not positive.
//
// A fill started here schedules no completion event. Read would schedule
// the completion at (readyAt, s) and its own wake-up at (readyAt, s+1) — no
// event sorts between them — so the collect step at the end of the leg is
// that completion, and leaving the event out moves every later sequence
// number down by one without reordering any (by two when, with no timer in
// the way, the leg then takes the fast path and needs no wake-up either).
func (c *Cache) ReadIssue(addr int64, category string) (wait sim.Duration, hit bool) {
	readyAt, hit := c.access(cxl.LineAddr(addr), category, false)
	if hit {
		return c.params.HitLatency, true
	}
	return readyAt - c.eng.Now(), false
}

// LoadAhead starts the load of line addr ahead of the access that will use
// it, for a caller that issues several independent loads before it waits on
// any (a poll pass's tail slots, see msgchan.Receiver.LoadAhead). It is a
// demand fill with no completion event, counted as a miss now; the access
// that collects it waits until readyAt and counts nothing more. When the
// line is present, ready or in flight, it does nothing and reports false:
// the access then counts as any other.
func (c *Cache) LoadAhead(addr int64, category string) (readyAt sim.Duration, started bool) {
	a := cxl.LineAddr(addr)
	if c.lines.get(a) != nil {
		return 0, false
	}
	c.stats.Misses++
	return c.startFill(a, category, false).readyAt, true
}

// FetchAhead is LoadAhead of an absent line that makes no line: the same
// port reservation, meters and miss, for a caller that keeps the line only
// if it wants it. It collects the bytes with CollectFetched at or after the
// returned arrival, and then may keep the line with KeepFetched.
func (c *Cache) FetchAhead(addr int64, category string) sim.Duration {
	c.stats.Misses++
	return c.port.FetchLine(cxl.LineAddr(addr), category)
}

// FetchRun is FetchAhead for many absent lines at one instant, each of a
// region, inside its pool, whose load latency the caller knows
// (cxl.Region.LoadLatency): a poll pass's idle tail slots. A line joins the
// run if it is the run's cache's, latency and category (Joins), or begins a
// new one (Begin), and Fetch books it on the port's cxl.FetchRun. Each line
// is a miss; the misses are counted, and the lines booked and metered, when
// the run ends. Nothing reads either before then, so a run leaves the cache
// and the port as FetchAhead line by line would. The zero FetchRun is
// empty.
type FetchRun struct {
	c    *Cache
	run  cxl.FetchRun
	runs int // runs begun
}

// Joins reports whether a line of c's with this load latency and category
// goes on the run as it is.
func (f *FetchRun) Joins(c *Cache, load sim.Duration, category string) bool {
	return f.c == c && f.run.Load() == load && f.run.Category() == category
}

// Begin ends the run so far and begins one for lines of c's with this load
// latency and category.
func (f *FetchRun) Begin(c *Cache, load sim.Duration, category string) {
	f.End()
	f.c, f.run = c, c.port.BeginFetch(category, load)
	f.runs++
}

// Fetch books a line on the run, which Joins it, and returns its arrival.
func (f *FetchRun) Fetch() sim.Duration { return f.run.Fetch() }

// End books the run's lines on the port, meters them and counts their
// misses. A line may follow: it begins a new run.
func (f *FetchRun) End() {
	if f.c != nil {
		f.c.stats.Misses += f.run.Lines()
		f.run.End()
		f.c = nil
	}
}

// Rerun returns, before End, the lines booked as a booking to make again at
// a later instant (Rerun), with ok when they are one run that started at
// once (cxl.FetchRun.Rerun).
func (f *FetchRun) Rerun() (r Rerun, ok bool) {
	if f.runs != 1 || f.c == nil {
		return Rerun{}, false
	}
	r.run, ok = f.run.Rerun()
	r.c = f.c
	return r, ok
}

// Rerun is a FetchRun's one run kept to be made again: its port booking
// (cxl.Rerun) and its misses.
type Rerun struct {
	c   *Cache
	run cxl.Rerun
}

// Ready reports whether Book, now, repeats the run (cxl.Rerun.Ready).
func (r *Rerun) Ready() bool { return r.run.Ready() }

// Book books the run's lines on the port, meters them and counts their
// misses, as its End did.
func (r *Rerun) Book() {
	r.c.stats.Misses += r.run.Lines()
	r.run.Book()
}

// Arrival returns when the k-th line (from 0) of a booking made at start
// arrives.
func (r *Rerun) Arrival(start sim.Duration, k int64) sim.Duration { return r.run.Arrival(start, k) }

// CollectFetched copies len(buf) bytes at addr, inside one line, out of the
// pool as it is now: the collection of a FetchAhead.
func (c *Cache) CollectFetched(addr int64, buf []byte) { c.port.Pool().Peek(addr, buf) }

// KeepFetched makes the absent line addr resident, ready and clean, holding
// the pool's contents: called at the instant of the CollectFetched it keeps,
// it leaves the line as a demand fill collected then would have.
func (c *Cache) KeepFetched(addr int64) {
	a := cxl.LineAddr(addr)
	ln := c.newLine(a)
	c.port.CollectLine(a, ln.data[:])
	c.insert(ln)
}

// ReadCollect completes ReadIssue: it copies len(buf) bytes at addr out of
// the line. It reports false, with buf untouched, when the line went away
// while the fill was in flight; the caller then owes a ReadRefill.
func (c *Cache) ReadCollect(addr int64, buf []byte) bool {
	ln := c.collect(cxl.LineAddr(addr))
	if ln == nil {
		return false
	}
	copyOut(buf, addr, ln)
	return true
}

// ReadRefill is Read's path for a line that vanished under its fill: fetch
// it again, blocking, and copy out.
func (c *Cache) ReadRefill(p *sim.Proc, addr int64, buf []byte, category string) {
	copyOut(buf, addr, c.ensureReady(p, cxl.LineAddr(addr), category))
}

// Write stores data at addr through the cache (write-back, so the pool does
// not see it until CLWB/CLFLUSHOPT or eviction), advancing p's time.
//
// Absent lines are allocated by merging the current pool contents at zero
// latency cost: all Oasis datapath writes are streaming full-buffer writes
// for which real cores hide the read-for-ownership behind the store buffer;
// merging keeps the untouched bytes of partially-written lines correct.
func (c *Cache) Write(p *sim.Proc, addr int64, data []byte, category string) {
	if len(data) == 0 {
		return
	}
	first := cxl.LineAddr(addr)
	last := cxl.LineAddr(addr + int64(len(data)) - 1)
	for a := first; a <= last; a += cxl.LineSize {
		ln := c.lines.get(a)
		for ln != nil && ln.pending {
			// Store to an in-flight line: wait for the fill, then merge. A
			// flush, snoop or back-invalidation may drop the line meanwhile,
			// and a new fill may replace it, so the store goes to whatever
			// line is resident once the wait is over.
			c.stats.FillWaits++
			if wait := ln.readyAt - p.Now(); wait > 0 {
				ln.held++
				p.Sleep(wait)
				ln.held--
			}
			if now := c.lines.get(a); now != ln {
				ln = now
				continue
			}
			if ln.pending {
				c.port.CollectLine(a, ln.data[:])
				ln.pending = false
			}
		}
		c.store(ln, a, addr, data)
		p.Sleep(c.params.StoreLatency)
	}
}

// store merges the part of data that falls in line a into ln, allocating the
// line when ln is nil.
func (c *Cache) store(ln *line, a, addr int64, data []byte) {
	if ln == nil {
		ln = c.newLine(a)
		c.port.Pool().Peek(a, ln.data[:])
		c.insert(ln)
	} else {
		c.touch(ln)
	}
	lo, hi := overlap(a, addr, len(data))
	copy(ln.data[lo-a:hi-a], data[lo-addr:hi-addr])
	ln.dirty = true
}

// StoreNow is Write's effect for data inside one line, without its
// StoreLatency. It reports false, having done nothing, when the line has a
// fill in flight: that store has to wait, which only Write can.
func (c *Cache) StoreNow(addr int64, data []byte) bool {
	a := cxl.LineAddr(addr)
	ln := c.lines.get(a)
	if ln != nil && ln.pending {
		return false
	}
	c.store(ln, a, addr, data)
	return true
}

// Prefetch issues PREFETCHT0 for the line containing addr. If the line is
// already present — ready, in flight, or STALE — the prefetch is ignored,
// as hardware prefetch queues do. Otherwise an asynchronous fill begins.
// The issue cost is charged to p.
func (c *Cache) Prefetch(p *sim.Proc, addr int64, category string) {
	p.Sleep(c.params.PrefetchIssue)
	c.PrefetchNow(addr, category)
}

// PrefetchNow is Prefetch's effect, without its PrefetchIssue cost.
func (c *Cache) PrefetchNow(addr int64, category string) {
	a := cxl.LineAddr(addr)
	if c.lines.get(a) != nil {
		c.stats.PrefetchIgnored++
		return
	}
	c.stats.PrefetchIssued++
	c.startFill(a, category, true)
}

// PrefetchRangeNow is PrefetchNow for every line of [addr, addr+n), in
// address order. It returns the lines' PrefetchIssue cost, for the caller to
// charge as one leg.
func (c *Cache) PrefetchRangeNow(addr int64, n int, category string) sim.Duration {
	if n <= 0 {
		return 0
	}
	lines := 0
	for a := cxl.LineAddr(addr); a < addr+int64(n); a += cxl.LineSize {
		c.PrefetchNow(a, category)
		lines++
	}
	return c.params.PrefetchIssue * sim.Duration(lines)
}

// FlushLine is CLFLUSHOPT: write the line back if dirty, then drop it so the
// next access refetches from the pool. No-op (beyond issue cost) when the
// line is absent.
func (c *Cache) FlushLine(p *sim.Proc, addr int64, category string) {
	p.Sleep(c.params.FlushIssue)
	c.FlushLineNow(addr, category)
}

// FlushLineNow is FlushLine's effect, without its FlushIssue cost.
func (c *Cache) FlushLineNow(addr int64, category string) {
	if ln := c.lines.get(cxl.LineAddr(addr)); ln != nil {
		c.dropLine(ln, category)
	}
}

// WritebackLine is CLWB: push a dirty line to the pool but keep it cached
// clean. No-op (beyond issue cost) for absent or clean lines.
func (c *Cache) WritebackLine(p *sim.Proc, addr int64, category string) {
	p.Sleep(c.params.WritebackIssue)
	c.WritebackLineNow(addr, category)
}

// WritebackLineNow is WritebackLine's effect, without its WritebackIssue
// cost.
func (c *Cache) WritebackLineNow(addr int64, category string) {
	a := cxl.LineAddr(addr)
	if ln := c.lines.get(a); ln != nil && ln.dirty && !ln.pending {
		c.port.WriteLine(a, ln.data[:], category)
		ln.dirty = false
		c.stats.Writebacks++
	}
}

// Fence is MFENCE: orders preceding flushes/writebacks. The model applies
// flush effects eagerly, so the fence only charges its drain cost — but
// protocols must still call it where real hardware requires it, and the
// cost shows up in their throughput.
func (c *Cache) Fence(p *sim.Proc) {
	p.Sleep(c.params.FenceLatency)
}

// WritebackRange is a WritebackLine for every line of [addr, addr+n), then
// a Fence, as one stepped sleep.
func (c *Cache) WritebackRange(p *sim.Proc, addr int64, n int, category string) {
	c.sleepRange(p, false, addr, n, category)
}

// FlushRange is a FlushLine for every line of [addr, addr+n), then a Fence,
// as one stepped sleep.
func (c *Cache) FlushRange(p *sim.Proc, addr int64, n int, category string) {
	c.sleepRange(p, true, addr, n, category)
}

func (c *Cache) sleepRange(p *sim.Proc, flush bool, addr int64, n int, category string) {
	if n <= 0 {
		return
	}
	var o *RangeOp
	if k := len(c.freeRanges); k > 0 {
		o = c.freeRanges[k-1]
		c.freeRanges = c.freeRanges[:k-1]
	} else {
		o = &RangeOp{}
	}
	o.Begin(c, flush, addr, n, category)
	o.issued = true
	p.SleepSteps(o.issueCost(), o)
	c.freeRanges = append(c.freeRanges, o)
}

// RangeOp steps a range operation — FlushRange, or else WritebackRange — for
// a caller that sleeps it as part of its own chain: Begin, then Step from
// the first Step. Each leg but the last is one line's issue cost, ended by
// that line's effect; the last is the fence. An empty range has no legs.
type RangeOp struct {
	c          *Cache
	next, last int64 // line the current leg pays for (past last: the fence); final line
	flush      bool  // CLFLUSHOPT, else CLWB
	issued     bool  // the first leg has begun
	category   string
}

// Begin starts the operation on the lines of [addr, addr+n).
func (o *RangeOp) Begin(c *Cache, flush bool, addr int64, n int, category string) {
	*o = RangeOp{c: c, next: 1, flush: flush, category: category}
	if n > 0 {
		o.next, o.last = cxl.LineAddr(addr), cxl.LineAddr(addr+int64(n)-1)
	}
}

func (o *RangeOp) issueCost() sim.Duration {
	if o.flush {
		return o.c.params.FlushIssue
	}
	return o.c.params.WritebackIssue
}

// Step implements sim.Stepper.
func (o *RangeOp) Step() (sim.Duration, bool) {
	if o.next > o.last {
		return 0, false
	}
	if !o.issued {
		o.issued = true
		return o.issueCost(), true
	}
	if o.flush {
		o.c.FlushLineNow(o.next, o.category)
	} else {
		o.c.WritebackLineNow(o.next, o.category)
	}
	o.next += cxl.LineSize
	if o.next > o.last {
		return o.c.params.FenceLatency, true
	}
	return o.issueCost(), true
}

// Contains reports whether the line holding addr is present (ready or in
// flight).
func (c *Cache) Contains(addr int64) bool { return c.lines.get(cxl.LineAddr(addr)) != nil }

// DirtyLines returns the number of dirty lines (test/debug).
func (c *Cache) DirtyLines() int {
	n := 0
	for ln := c.lruHead; ln != nil; ln = ln.next {
		if ln.dirty {
			n++
		}
	}
	return n
}

// Len returns the number of resident lines.
func (c *Cache) Len() int { return c.lines.n }

// InstallLine models a DDIO/"PCIe allocating write": the device writes the
// line INTO this CPU cache (dirty) instead of memory. Within one coherent
// host that is a latency win; across a non-coherent CXL pod it is the §3.2.1
// hazard — the data never reaches pool memory until eviction, so other
// hosts read stale bytes. Oasis therefore requires DDIO disabled; the nic
// package's DDIO flag plus this method exist to demonstrate why.
func (c *Cache) InstallLine(addr int64, data []byte) {
	if len(data) != cxl.LineSize {
		panic("cache: InstallLine requires a full line")
	}
	a := cxl.LineAddr(addr)
	ln := c.lines.get(a)
	if ln == nil {
		ln = c.newLine(a)
		c.insert(ln)
	} else {
		ln.pending = false
		ln.gen++
		c.touch(ln)
	}
	copy(ln.data[:], data)
	ln.dirty = true
	c.stats.DDIOInstalls++
}

// Snoop services a device DMA touching [addr, addr+n): any cached line in
// the range is written back (if dirty) and dropped, and the method returns
// the extra device-side delay this caused. With the paper's discipline —
// backend never inspects I/O buffers (§3.2.1) — snoops always miss and the
// cost is zero.
func (c *Cache) Snoop(addr int64, n int, category string) sim.Duration {
	if n <= 0 {
		return 0
	}
	var delay sim.Duration
	first := cxl.LineAddr(addr)
	last := cxl.LineAddr(addr + int64(n) - 1)
	for a := first; a <= last; a += cxl.LineSize {
		ln := c.lines.get(a)
		if ln == nil {
			continue
		}
		if ln.dirty {
			c.stats.SnoopWritebacks++
			delay += snoopWritebackCost
		} else {
			c.stats.SnoopDrops++
			delay += snoopDropCost
		}
		c.dropLine(ln, category)
	}
	return delay
}

// Snoop costs: a cross-die snoop that hits dirty data costs roughly a cache
// miss; dropping a clean line costs a coherence round only.
const (
	snoopWritebackCost = 90 * time.Nanosecond
	snoopDropCost      = 30 * time.Nanosecond
)

// InvalidateAll drops every line (test/reset helper); dirty lines write back,
// least recently used first — each write-back reserves the port, so the order
// is the LRU list's.
func (c *Cache) InvalidateAll() {
	for c.lruTail != nil {
		c.dropLine(c.lruTail, "reset")
	}
}

// String summarizes occupancy for debugging.
func (c *Cache) String() string {
	return fmt.Sprintf("cache{lines=%d dirty=%d}", c.lines.n, c.DirtyLines())
}
