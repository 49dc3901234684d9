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
	CapacityLines  int          // LRU capacity; 0 means DefaultCapacityLines
}

// DefaultCapacityLines is 32 Ki lines = 2 MiB, a slice of LLC plausibly
// available to a polling core.
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

type line struct {
	addr    int64
	data    [cxl.LineSize]byte
	dirty   bool
	pending bool         // fill in flight
	readyAt sim.Duration // when the in-flight fill lands
	gen     uint64       // invalidation cancels stale fill completions
	// Intrusive LRU links (head = most recently used). Embedding the links
	// avoids a list-element allocation per fill on the datapath hot path.
	prev, next *line
}

// Cache is one host's cache over the CXL pool, reached through one port.
type Cache struct {
	eng    *sim.Engine
	port   *cxl.Port
	params Params
	lines  map[int64]*line
	// Intrusive LRU list over the resident lines.
	lruHead, lruTail *line
	// Dropped lines are recycled here. A recycled line keeps its gen counter
	// (monotonically increasing for the struct's whole lifetime), so a stale
	// in-flight fill completion can never mistake a reused struct for the
	// fill it was issued for.
	freeLines []*line
	freeFills []*fillOp // recycled fill-completion ops (engine-local, no lock)
	// Steppers of range operations not in flight. A driver and an instance
	// process share their host's cache and may each be mid-range, so every
	// call takes its own.
	freeRanges []*rangeOp
	stats      Stats
}

// fillOp is the pooled completion of an asynchronous line fill; firing it as
// a sim.Timer avoids a closure allocation per fill (see sim.Timer). The gen
// snapshot makes a stale completion for an invalidated-and-reused line a
// no-op, exactly as the closure it replaced did.
type fillOp struct {
	c   *Cache
	ln  *line
	gen uint64
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
	if params.CapacityLines == 0 {
		params.CapacityLines = DefaultCapacityLines
	}
	c := &Cache{
		eng:    eng,
		port:   port,
		params: params,
		lines:  make(map[int64]*line),
	}
	port.Pool().RegisterBI(c)
	return c
}

// BackInvalidate implements cxl.BackInvalidator: a remote write reached the
// line, so this cache's copy is dropped without writeback (the remote owner
// has the newer data). Only invoked in HWCoherent mode.
func (c *Cache) BackInvalidate(lineAddr int64) {
	if ln, ok := c.lines[lineAddr]; ok {
		ln.gen++ // cancel in-flight fills
		c.lruUnlink(ln)
		delete(c.lines, lineAddr)
		if !ln.pending {
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
		ln.dirty, ln.pending = false, false
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
	c.lines[ln.addr] = ln
	attempts := len(c.lines)
	for len(c.lines) > c.params.CapacityLines && attempts > 0 {
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
	delete(c.lines, ln.addr)
	// A pending line may still be referenced by a waiter parked on its fill;
	// leave it orphaned rather than letting a reuse corrupt the waiter's view.
	if !ln.pending {
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
	ln, ok := c.lines[a]
	if !ok {
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

// collect is the other half, run once the fill has had time to land: it
// returns the line with its data in place, or nil when the line was evicted,
// snooped or back-invalidated meanwhile.
func (c *Cache) collect(a int64) *line {
	ln := c.lines[a]
	if ln != nil && ln.pending {
		c.port.CollectLine(a, ln.data[:])
		ln.pending = false
	}
	return ln
}

// ensureReady makes the line present and ready, advancing p's time by the
// demand-miss or fill-wait cost. It returns the line.
func (c *Cache) ensureReady(p *sim.Proc, addr int64, category string) *line {
	ln, ok := c.lines[addr]
	if !ok {
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
		p.Sleep(wait)
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
// problem, as on real non-coherent hardware.
func (c *Cache) Read(p *sim.Proc, addr int64, buf []byte, category string) {
	if len(buf) == 0 {
		return
	}
	// Phase 1: issue fills for all absent lines.
	first := cxl.LineAddr(addr)
	last := cxl.LineAddr(addr + int64(len(buf)) - 1)
	var lastReady sim.Duration
	for a := first; a <= last; a += cxl.LineSize {
		readyAt, hit := c.access(a, category, true)
		if hit {
			p.Sleep(c.params.HitLatency)
		} else if readyAt > lastReady {
			lastReady = readyAt
		}
	}
	// Phase 2: wait for the slowest fill.
	if wait := lastReady - p.Now(); wait > 0 {
		p.Sleep(wait)
	}
	// Phase 3: collect.
	for a := first; a <= last; a += cxl.LineSize {
		ln := c.collect(a)
		if ln == nil {
			// Evicted by a concurrent capacity squeeze mid-copy; refill
			// synchronously. Rare, but must stay correct.
			ln = c.ensureReady(p, a, category)
		}
		copyOut(buf, addr, ln)
	}
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
		ln := c.lines[a]
		if ln != nil && ln.pending {
			// Store to an in-flight line: wait for the fill, then merge.
			c.stats.FillWaits++
			if wait := ln.readyAt - p.Now(); wait > 0 {
				p.Sleep(wait)
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
	ln := c.lines[a]
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
	if _, ok := c.lines[a]; ok {
		c.stats.PrefetchIgnored++
		return
	}
	c.stats.PrefetchIssued++
	c.startFill(a, category, true)
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
	if ln, ok := c.lines[cxl.LineAddr(addr)]; ok {
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
	if ln, ok := c.lines[a]; ok && ln.dirty && !ln.pending {
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
	var o *rangeOp
	if k := len(c.freeRanges); k > 0 {
		o = c.freeRanges[k-1]
		c.freeRanges = c.freeRanges[:k-1]
	} else {
		o = &rangeOp{c: c}
	}
	o.next, o.last = cxl.LineAddr(addr), cxl.LineAddr(addr+int64(n)-1)
	o.flush, o.category = flush, category
	p.SleepSteps(o.issueCost(), o)
	c.freeRanges = append(c.freeRanges, o)
}

// rangeOp steps a range operation: each leg but the last is one line's issue
// cost, ended by that line's effect; the last is the fence.
type rangeOp struct {
	c          *Cache
	next, last int64 // line the current leg pays for (past last: the fence); final line
	flush      bool  // CLFLUSHOPT, else CLWB
	category   string
}

func (o *rangeOp) issueCost() sim.Duration {
	if o.flush {
		return o.c.params.FlushIssue
	}
	return o.c.params.WritebackIssue
}

func (o *rangeOp) Step() (sim.Duration, bool) {
	if o.next > o.last {
		return 0, false
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
func (c *Cache) Contains(addr int64) bool {
	_, ok := c.lines[cxl.LineAddr(addr)]
	return ok
}

// DirtyLines returns the number of dirty lines (test/debug).
func (c *Cache) DirtyLines() int {
	n := 0
	for _, ln := range c.lines {
		if ln.dirty {
			n++
		}
	}
	return n
}

// Len returns the number of resident lines.
func (c *Cache) Len() int { return len(c.lines) }

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
	ln, ok := c.lines[a]
	if !ok {
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
		ln, ok := c.lines[a]
		if !ok {
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
// is the LRU list's, not the map's.
func (c *Cache) InvalidateAll() {
	for c.lruTail != nil {
		c.dropLine(c.lruTail, "reset")
	}
}

// String summarizes occupancy for debugging.
func (c *Cache) String() string {
	return fmt.Sprintf("cache{lines=%d dirty=%d}", len(c.lines), c.DirtyLines())
}
