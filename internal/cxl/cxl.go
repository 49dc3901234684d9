// Package cxl models a CXL 2.0 pooled memory device (a multi-headed device,
// MHD) shared by the hosts of a pod.
//
// The pool is byte-addressable backing memory plus one Port per host. Ports
// meter traffic by category ("payload" vs "message", Table 3) and serialize
// transfers on per-direction link resources sized like a ×8 CXL 2.0 link
// (4 GB/s per lane, §2.3). Load-to-use latency defaults to ~2.2× local DDR
// (§2.3).
//
// Crucially, the pool is *not* cache-coherent across hosts (§2.3, §3.2):
// coherence is the job of the software running above — package cache models
// each host's CPU cache, and packages msgchan/core implement the paper's
// software coherence protocols on top.
//
// Backing memory is sparse so that simulations can declare paper-sized
// regions (4 GB TX areas) without committing host RAM: a two-level page
// table whose 256-byte pages, and the directories of pages above them, are
// allocated on the first write into them. Pages are carved from slabs that
// double in size, so committing a page is rarely a heap allocation of its
// own. Reading memory nothing has written yields zeros and allocates
// nothing. Regions are never freed, but the pages under a freed I/O buffer
// are (Discard): host memory holds only bytes a reader can still see.
package cxl

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"oasis/internal/bufpool"
	"oasis/internal/metrics"
	"oasis/internal/sim"
)

// LineSize is the coherence/transfer granularity in bytes.
const LineSize = 64

const (
	pageSize = 256 // four lines: a small packet commits little more than it writes
	dirPages = 128 // pages per page directory: 32 KiB of pool each

	// Pages are carved from slabs of slabMinPages pages, doubling up to
	// slabMaxPages.
	slabMinPages = 16
	slabMaxPages = 256
)

// pageDir is one directory of the pool's page table; a nil page was never
// written.
type pageDir [dirPages]*[pageSize]byte

// Params configures the pool's timing model.
type Params struct {
	// LoadLatency is idle load-to-use latency for one line.
	LoadLatency sim.Duration
	// WriteLatency is how long a posted write takes to land in pool memory
	// and become visible to other ports. The paper's ~0.6 µs idle message
	// latency is one write propagation plus one load (§3.2.2 ①).
	WriteLatency sim.Duration
	// PortBandwidth is per-port, per-direction link bandwidth in bytes/s.
	PortBandwidth float64
	// HWCoherent enables CXL 3.0-style Back Invalidation (§6): every write
	// that lands in pool memory invalidates the line in all registered
	// host caches. No CXL 2.0 device supports this; it exists here for the
	// paper's forward-compatibility ablation and defaults to off.
	HWCoherent bool
}

// DefaultParams matches the paper's platform: a ×8 CXL 2.0 port (8 lanes ×
// 4 GB/s). The paper withholds the device's raw latency and reports only
// the ~2.2×-DDR ratio (§2.3) plus one absolute anchor: ~0.6 µs idle one-way
// message latency ≈ one CXL write + one CXL read (§3.2.2 ①). These values
// are calibrated to that anchor.
func DefaultParams() Params {
	return Params{
		LoadLatency:   300 * time.Nanosecond,
		WriteLatency:  220 * time.Nanosecond,
		PortBandwidth: 32e9,
	}
}

// Pool is the shared CXL memory device.
type Pool struct {
	eng    *sim.Engine
	params Params
	size   int64
	dirs   []*pageDir // sparse backing store, indexed by addr/(dirPages*pageSize); grown on write
	ports  []*Port
	slab   []byte            // the uncarved tail of the newest page slab
	slabN  int               // pages in the newest slab
	spare  []*[pageSize]byte // zeroed pages Discard released, taken before the slab
	// scribble is the OASIS_SIMCHECK=1 use-after-free guard: Discard
	// poisons a page in place and keeps it instead of releasing it.
	scribble bool
	next     int64       // bump pointer: [0, next) is allocated, never freed
	classes  []classSpan // latency-class overrides, in address order
	bi       []BackInvalidator
}

// BackInvalidator receives CXL 3.0 Back Invalidation messages when the pool
// runs in HWCoherent mode. Host caches implement it.
type BackInvalidator interface {
	BackInvalidate(lineAddr int64)
}

// RegisterBI subscribes a cache to Back Invalidation (no-op unless the pool
// is HWCoherent).
func (p *Pool) RegisterBI(b BackInvalidator) { p.bi = append(p.bi, b) }

// backInvalidate drops [addr, addr+n) from every registered cache.
func (p *Pool) backInvalidate(addr int64, n int) {
	if !p.params.HWCoherent || len(p.bi) == 0 || n <= 0 {
		return
	}
	last := LineAddr(addr + int64(n) - 1)
	for a := LineAddr(addr); a <= last; a += LineSize {
		for _, b := range p.bi {
			b.BackInvalidate(a)
		}
	}
}

// Class overrides load/write latency for a region. The Figure 11 breakdown
// ("baseline + I/O buffers in CXL") mixes DDR-latency message rings with
// CXL-latency buffers in one address space; classes express that. Zero
// values fall back to the pool defaults.
type Class struct {
	Load  sim.Duration
	Write sim.Duration
}

// LocalClass returns DDR-like latencies for regions modelling host-local
// shared memory (Junction-style IPC rings).
func LocalClass() Class {
	return Class{Load: 90 * time.Nanosecond, Write: 40 * time.Nanosecond}
}

type classSpan struct {
	base, end int64
	c         Class
}

// classFor returns the effective latencies for an address.
func (p *Pool) classFor(addr int64) (load, write sim.Duration) {
	i := sort.Search(len(p.classes), func(i int) bool { return p.classes[i].end > addr })
	if i < len(p.classes) && p.classes[i].base <= addr {
		c := p.classes[i].c
		load, write = c.Load, c.Write
	}
	if load == 0 {
		load = p.params.LoadLatency
	}
	if write == 0 {
		write = p.params.WriteLatency
	}
	return load, write
}

// NewPool creates a pool of the given byte size.
func NewPool(eng *sim.Engine, size int64, params Params) *Pool {
	if size <= 0 || size%LineSize != 0 {
		panic("cxl: pool size must be a positive multiple of the line size")
	}
	return &Pool{
		eng:      eng,
		params:   params,
		size:     size,
		scribble: sim.Checking(),
	}
}

// Params returns the timing parameters.
func (p *Pool) Params() Params { return p.params }

// AttachPort adds a host-facing port and returns it. The name appears in
// bandwidth reports ("host0", "nic1-dma", ...).
func (p *Pool) AttachPort(name string) *Port {
	port := &Port{
		pool:    p,
		name:    name,
		id:      len(p.ports),
		rdLink:  sim.NewResource(p.eng),
		wrLink:  sim.NewResource(p.eng),
		rdMeter: metrics.NewMeter(),
		wrMeter: metrics.NewMeter(),
	}
	// Both directions list Table 3's categories from the start, so a port's
	// byte series do not depend on what its host happens to run.
	for _, m := range []*metrics.Meter{port.rdMeter, port.wrMeter} {
		m.Add("message", 0)
		m.Add("payload", 0)
	}
	p.ports = append(p.ports, port)
	return port
}

// Ports returns all attached ports.
func (p *Pool) Ports() []*Port { return p.ports }

// Alloc carves the next line-aligned region of the given size out of the
// pool. It returns an error when the size is not positive or the pool is
// exhausted.
//
// Regions are never freed, so allocation is a bump pointer. Oasis hands
// no region back (§3.3.1): the buffer area and channels of a removed volume
// or a failed device stay quarantined, because a zombie device may still
// DMA into them. Only the pages under a freed buffer go back (Discard).
func (p *Pool) Alloc(size int64) (Region, error) {
	return p.AllocClass(size, Class{})
}

// AllocClass allocates a region with a latency-class override.
func (p *Pool) AllocClass(size int64, c Class) (Region, error) {
	// Compare before rounding: size + LineSize - 1 could overflow, and the
	// free space is a whole number of lines, so a size that fits still fits
	// rounded up.
	if size <= 0 || size > p.size-p.next {
		return Region{}, fmt.Errorf("cxl: cannot allocate %d bytes (%d free)", size, p.size-p.next)
	}
	r := Region{pool: p, Base: p.next, Size: (size + LineSize - 1) &^ (LineSize - 1)}
	p.next += r.Size
	if c != (Class{}) {
		p.setClass(r, c)
	}
	return r, nil
}

// setClass records a latency override. Regions arrive in address order, so
// the spans stay sorted.
func (p *Pool) setClass(r Region, c Class) {
	p.classes = append(p.classes, classSpan{base: r.Base, end: r.Base + r.Size, c: c})
}

// page returns the backing page for addr, or nil if nothing was ever
// written there.
func (p *Pool) page(addr int64) *[pageSize]byte {
	di := addr / (dirPages * pageSize)
	if di >= int64(len(p.dirs)) || p.dirs[di] == nil {
		return nil
	}
	return p.dirs[di][addr/pageSize%dirPages]
}

// writablePage returns the backing page for addr, allocating it — and its
// directory — on the first write.
func (p *Pool) writablePage(addr int64) *[pageSize]byte {
	di, pi := addr/(dirPages*pageSize), addr/pageSize%dirPages
	if di >= int64(len(p.dirs)) {
		p.dirs = slices.Grow(p.dirs, int(di)+1-len(p.dirs))[:di+1]
	}
	if p.dirs[di] == nil {
		p.dirs[di] = new(pageDir)
	}
	d := p.dirs[di]
	if d[pi] == nil {
		d[pi] = p.newPage()
	}
	return d[pi]
}

// newPage returns a zeroed page: the last one Discard released, else one
// carved from the newest slab, allocating a slab twice the last one's size
// (up to slabMaxPages pages) when it is used up.
func (p *Pool) newPage() *[pageSize]byte {
	if n := len(p.spare); n > 0 {
		pg := p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		return pg
	}
	if len(p.slab) == 0 {
		p.slabN = min(max(2*p.slabN, slabMinPages), slabMaxPages)
		p.slab = make([]byte, p.slabN*pageSize)
	}
	pg := (*[pageSize]byte)(p.slab)
	p.slab = p.slab[pageSize:]
	return pg
}

// Discard releases the pages wholly inside [addr, addr+n): they read as
// zeros again, and their memory backs the next page committed. Partial pages
// at the edges keep their bytes. A freed I/O buffer is discarded — its bytes
// are dead, because every datapath writes a buffer before the buffer's next
// reader reads it and every reader copies out only what was written — so
// host memory follows the buffers live at once, not all traffic carried. A
// posted write landing after Discard commits a page again.
//
// Under OASIS_SIMCHECK=1 Discard instead fills each whole page with
// bufpool.Poison and keeps it, so a read of a freed buffer's bytes sees
// garbage — a failed parse, a moved digest — rather than zeros.
func (p *Pool) Discard(addr int64, n int) {
	p.checkRange(addr, n)
	end := (addr + int64(n)) &^ (pageSize - 1)
	for a := (addr + pageSize - 1) &^ (pageSize - 1); a < end; a += pageSize {
		if p.scribble {
			pg := p.writablePage(a)
			for i := range pg {
				pg[i] = bufpool.Poison
			}
			continue
		}
		di := a / (dirPages * pageSize)
		if di >= int64(len(p.dirs)) || p.dirs[di] == nil {
			continue
		}
		d, pi := p.dirs[di], a/pageSize%dirPages
		if pg := d[pi]; pg != nil {
			clear(pg[:])
			d[pi] = nil
			p.spare = append(p.spare, pg)
		}
	}
}

// checkRange panics on out-of-pool accesses — these are simulation bugs.
func (p *Pool) checkRange(addr int64, n int) {
	if addr < 0 || addr+int64(n) > p.size {
		panic(fmt.Sprintf("cxl: access [%d, %d) outside pool of size %d", addr, addr+int64(n), p.size))
	}
}

// peek copies pool contents into buf with no timing or metering; used by the
// cache model at fill completion and by tests. A page nothing has written
// reads as zeros without being allocated.
func (p *Pool) peek(addr int64, buf []byte) {
	p.checkRange(addr, len(buf))
	for len(buf) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(buf), pageSize-int(off))
		if pg := p.page(addr); pg != nil {
			copy(buf[:n], pg[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += int64(n)
	}
}

// poke writes buf into pool contents with no timing or metering.
func (p *Pool) poke(addr int64, buf []byte) {
	p.checkRange(addr, len(buf))
	for len(buf) > 0 {
		pg := p.writablePage(addr)
		off := addr & (pageSize - 1)
		n := copy(pg[off:], buf)
		buf = buf[n:]
		addr += int64(n)
	}
}

// Peek copies raw pool contents into buf, with no timing or metering: the
// test/debug accessor. Memory never written reads as zeros, and reading it
// allocates nothing.
func (p *Pool) Peek(addr int64, buf []byte) { p.peek(addr, buf) }

// Poke is the test/debug mutator for raw pool contents.
func (p *Pool) Poke(addr int64, buf []byte) { p.poke(addr, buf) }

// Region is a line-aligned allocation within the pool.
type Region struct {
	pool *Pool
	Base int64
	Size int64
}

// Contains reports whether [addr, addr+n) lies inside the region.
func (r Region) Contains(addr int64, n int) bool {
	return addr >= r.Base && addr+int64(n) <= r.Base+r.Size
}

// Pool returns the pool the region was allocated from.
func (r Region) Pool() *Pool { return r.pool }

// Port is one host's (or one device's DMA path's) attachment to the pool.
type Port struct {
	pool   *Pool
	name   string
	id     int
	rdLink *sim.Resource // pool -> host
	wrLink *sim.Resource // host -> pool

	rdMeter *metrics.Meter
	wrMeter *metrics.Meter

	freeWrites []*postedWrite // recycled posted-write ops (engine-local, no lock)

	// QoS (§6): Intel RDT-style bandwidth throttling. A category with a
	// share is serialized on its own sub-link at share × PortBandwidth,
	// so a bandwidth-hungry co-tenant (e.g. an OLAP scan) cannot queue
	// ahead of Oasis's latency-critical message traffic.
	qosRd map[string]*classLink
	qosWr map[string]*classLink

	// Degradation (fault injection): a flaky retimer or downgraded link
	// width stretches every latency term by latMult and shrinks the
	// effective bandwidth to bwFrac × PortBandwidth. Zero values mean
	// healthy (multiplier 1).
	latMult float64
	bwFrac  float64
	// jitter is a flat added latency per transaction (cxl-jitter gray
	// fault): a marginal retimer adding delay without shrinking bandwidth.
	jitter sim.Duration
}

type classLink struct {
	res *sim.Resource
	bps float64
}

// SetQoS throttles a traffic category to fraction × the port bandwidth,
// isolating every other category from its queueing. fraction must be in
// (0, 1].
func (pt *Port) SetQoS(category string, fraction float64) {
	if fraction <= 0 || fraction > 1 {
		panic(fmt.Sprintf("cxl: QoS fraction %v out of (0,1]", fraction))
	}
	if pt.qosRd == nil {
		pt.qosRd = make(map[string]*classLink)
		pt.qosWr = make(map[string]*classLink)
	}
	bps := pt.pool.params.PortBandwidth * fraction
	pt.qosRd[category] = &classLink{res: sim.NewResource(pt.pool.eng), bps: bps}
	pt.qosWr[category] = &classLink{res: sim.NewResource(pt.pool.eng), bps: bps}
}

// SetDegraded injects (or, with 1, 1, clears) a link-quality fault on this
// port: latencies are multiplied by latMult and bandwidth scaled to bwFrac
// of nominal. Both must be positive; latMult ≥ 1 and bwFrac ≤ 1 model
// degradation, the inverse would model an (unphysical) upgrade.
func (pt *Port) SetDegraded(latMult, bwFrac float64) {
	if latMult <= 0 || bwFrac <= 0 {
		panic(fmt.Sprintf("cxl: SetDegraded(%v, %v) requires positive factors", latMult, bwFrac))
	}
	pt.latMult, pt.bwFrac = latMult, bwFrac
}

// SetJitter injects (or, with 0, clears) a flat added latency on every
// transaction through this port — the cxl-jitter gray fault. Unlike
// SetDegraded's multiplier it is independent of the nominal latency term,
// so even cache-speed operations pay it.
func (pt *Port) SetJitter(d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("cxl: SetJitter(%v) requires a non-negative delay", d))
	}
	pt.jitter = d
}

// Degraded reports whether a degradation fault is active.
func (pt *Port) Degraded() bool {
	return (pt.latMult != 0 && pt.latMult != 1) || (pt.bwFrac != 0 && pt.bwFrac != 1) || pt.jitter != 0
}

// scaleLat stretches a latency term by the active degradation multiplier
// and adds the active jitter.
func (pt *Port) scaleLat(d sim.Duration) sim.Duration {
	if pt.latMult != 0 && pt.latMult != 1 {
		d = sim.Duration(float64(d) * pt.latMult)
	}
	return d + pt.jitter
}

// scaleSer stretches a serialization term by the active bandwidth fraction.
func (pt *Port) scaleSer(d sim.Duration) sim.Duration {
	if pt.bwFrac != 0 && pt.bwFrac != 1 {
		return sim.Duration(float64(d) / pt.bwFrac)
	}
	return d
}

// reserveRd books n bytes on the read direction for a category.
func (pt *Port) reserveRd(category string, n int) sim.Duration {
	if cl, ok := pt.qosRd[category]; ok {
		return cl.res.Reserve(pt.scaleSer(sim.Duration(float64(n) / cl.bps * float64(time.Second))))
	}
	return pt.rdLink.Reserve(pt.serialization(n))
}

// reserveWr books n bytes on the write direction for a category.
func (pt *Port) reserveWr(category string, n int) sim.Duration {
	if cl, ok := pt.qosWr[category]; ok {
		return cl.res.Reserve(pt.scaleSer(sim.Duration(float64(n) / cl.bps * float64(time.Second))))
	}
	return pt.wrLink.Reserve(pt.serialization(n))
}

// Name returns the port's diagnostic name.
func (pt *Port) Name() string { return pt.name }

// Pool returns the pool this port attaches to.
func (pt *Port) Pool() *Pool { return pt.pool }

// Engine returns the engine the pool's timing runs on.
func (p *Pool) Engine() *sim.Engine { return p.eng }

// ReadMeter returns the device-to-host byte meter.
func (pt *Port) ReadMeter() *metrics.Meter { return pt.rdMeter }

// WriteMeter returns the host-to-device byte meter.
func (pt *Port) WriteMeter() *metrics.Meter { return pt.wrMeter }

// serialization returns the link occupancy time of n bytes.
func (pt *Port) serialization(n int) sim.Duration {
	return pt.scaleSer(sim.Duration(float64(n) / pt.pool.params.PortBandwidth * float64(time.Second)))
}

// FetchLine initiates a line read and returns the absolute time at which the
// data arrives. The data itself must be collected at (or after) that time
// with CollectLine; splitting issue from collection lets callers model
// overlapped (prefetched) fills. The category labels the traffic for
// Table 3 accounting.
func (pt *Port) FetchLine(addr int64, category string) sim.Duration {
	pt.pool.checkRange(addr, LineSize)
	pt.rdMeter.Add(category, LineSize)
	done := pt.reserveRd(category, LineSize)
	load, _ := pt.pool.classFor(addr)
	return done + pt.scaleLat(load)
}

// CollectLine snapshots the line's pool contents into buf. Callers must only
// invoke it at or after the arrival time returned by FetchLine. A line
// nothing has written collects as zeros and allocates nothing.
func (pt *Port) CollectLine(addr int64, buf []byte) {
	if len(buf) != LineSize {
		panic("cxl: CollectLine requires a full line buffer")
	}
	pt.pool.peek(addr, buf)
}

// WriteLine pushes a full line to the pool. The write is posted: the caller
// does not stall, but the data only lands in pool memory — and becomes
// visible to other ports — at the returned time (link occupancy plus write
// propagation latency).
func (pt *Port) WriteLine(addr int64, data []byte, category string) sim.Duration {
	if len(data) != LineSize {
		panic("cxl: WriteLine requires a full line")
	}
	pt.pool.checkRange(addr, LineSize)
	pt.wrMeter.Add(category, LineSize)
	_, write := pt.pool.classFor(addr)
	done := pt.reserveWr(category, LineSize) + pt.scaleLat(write)
	// The in-flight snapshot is recycled once it lands in pool memory; its
	// ownership provably ends after poke.
	snap := pt.pool.eng.Bufs().Get(LineSize)
	copy(snap, data)
	pt.postWrite(addr, snap, done)
	return done
}

// postedWrite is the pooled in-flight half of WriteLine/DMAWrite: the
// snapshot lands in pool memory at the scheduled time. Pooling the op (and
// firing it as a sim.Timer rather than a closure) keeps posted writes — the
// single hottest allocation site in cache-heavy runs — off the heap.
type postedWrite struct {
	pt   *Port
	addr int64
	snap []byte
}

func (w *postedWrite) Fire() {
	pt := w.pt
	pt.pool.poke(w.addr, w.snap)
	pt.pool.backInvalidate(w.addr, len(w.snap))
	pt.pool.eng.Bufs().Put(w.snap)
	w.pt, w.snap = nil, nil
	pt.freeWrites = append(pt.freeWrites, w)
}

func (pt *Port) postWrite(addr int64, snap []byte, done sim.Duration) {
	var w *postedWrite
	if n := len(pt.freeWrites); n > 0 {
		w = pt.freeWrites[n-1]
		pt.freeWrites[n-1] = nil
		pt.freeWrites = pt.freeWrites[:n-1]
	} else {
		w = &postedWrite{}
	}
	w.pt, w.addr, w.snap = pt, addr, snap
	pt.pool.eng.AtTimer(done, w)
}

// DMARead models a device reading n bytes from the pool (bypassing CPU
// caches, §3.2.1). It returns the completion time and fills buf with the
// data. Transfers are line-granular on the link.
func (pt *Port) DMARead(addr int64, buf []byte, category string) sim.Duration {
	pt.pool.checkRange(addr, len(buf))
	lines := linesSpanned(addr, len(buf))
	pt.rdMeter.Add(category, int64(lines*LineSize))
	done := pt.reserveRd(category, lines*LineSize)
	pt.pool.peek(addr, buf)
	load, _ := pt.pool.classFor(addr)
	return done + pt.scaleLat(load)
}

// DMAWrite models a device writing n bytes into the pool. Completion — and
// visibility to other ports — is when the last line clears the link and
// propagates into pool memory.
func (pt *Port) DMAWrite(addr int64, data []byte, category string) sim.Duration {
	pt.pool.checkRange(addr, len(data))
	lines := linesSpanned(addr, len(data))
	pt.wrMeter.Add(category, int64(lines*LineSize))
	_, write := pt.pool.classFor(addr)
	done := pt.reserveWr(category, lines*LineSize) + pt.scaleLat(write)
	snap := pt.pool.eng.Bufs().Get(len(data))
	copy(snap, data)
	pt.postWrite(addr, snap, done)
	return done
}

// linesSpanned counts the cache lines touched by [addr, addr+n).
func linesSpanned(addr int64, n int) int {
	if n == 0 {
		return 0
	}
	first := addr / LineSize
	last := (addr + int64(n) - 1) / LineSize
	return int(last - first + 1)
}

// LineAddr returns the base address of the line containing addr.
func LineAddr(addr int64) int64 { return addr &^ (LineSize - 1) }
