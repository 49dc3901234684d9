// Package host models a pod member: a server with local DDR memory, a CPU
// cache in front of its CXL port, and attachment points for PCIe devices
// and container instances.
//
// Local memory is cache-coherent within the host (ordinary DDR), so it has
// a flat cost model; the interesting coherence behaviour only exists on the
// CXL side (package cache). Its backing store is sparse at both levels —
// the page table grows to the highest page touched and pages are allocated
// on first touch — so building a host allocates a few kilobytes whatever
// its memory size, and a 128-host rack of mostly idle hosts is cheap.
package host

import (
	"fmt"
	"time"

	"oasis/internal/cache"
	"oasis/internal/cxl"
	"oasis/internal/memalloc"
	"oasis/internal/sim"
)

// MemParams is the local-DDR cost model.
type MemParams struct {
	// CPULatency is the per-access latency for CPU reads/writes (a miss to
	// DRAM; hits are folded in, since local-memory hot paths in Oasis are
	// queue rings with predictable locality).
	CPULatency sim.Duration
	// CPUBandwidth is the streaming copy bandwidth in bytes/s.
	CPUBandwidth float64
	// DMALatency is a device's PCIe round-trip to DDR.
	DMALatency sim.Duration
	// DMABandwidth is the device DMA bandwidth in bytes/s.
	DMABandwidth float64
}

// DefaultMemParams models DDR5 behind a PCIe 5.0 device.
func DefaultMemParams() MemParams {
	return MemParams{
		CPULatency:   90 * time.Nanosecond,
		CPUBandwidth: 64e9,
		DMALatency:   350 * time.Nanosecond,
		DMABandwidth: 32e9,
	}
}

const pageSize = 4096

// LocalMemory is one host's DDR: sparse backing pages plus an allocator.
// It implements nic.DMAMemory.
type LocalMemory struct {
	eng    *sim.Engine
	params MemParams
	size   int64
	pages  [][]byte // sparse backing store, indexed by addr/pageSize; see page
	alloc  *memalloc.Allocator
	dma    *sim.Resource
	frees  []*memWrite // recycled posted-write ops (engine-local, no lock)
}

// NewLocalMemory returns size bytes of DDR.
func NewLocalMemory(eng *sim.Engine, size int64, params MemParams) *LocalMemory {
	if size <= 0 || size%pageSize != 0 {
		panic("host: local memory size must be a positive multiple of 4096")
	}
	return &LocalMemory{
		eng:    eng,
		params: params,
		size:   size,
		alloc:  memalloc.New(size, cxl.LineSize),
		dma:    sim.NewResource(eng),
	}
}

// Alloc reserves a line-aligned buffer, returning its base address.
func (m *LocalMemory) Alloc(size int64) (int64, int64, error) {
	return m.alloc.Alloc(size)
}

// Free releases a buffer returned by Alloc.
func (m *LocalMemory) Free(base, size int64) { m.alloc.Free(base, size) }

func (m *LocalMemory) check(addr int64, n int) {
	if addr < 0 || addr+int64(n) > m.size {
		panic(fmt.Sprintf("host: local access [%d, %d) outside memory of size %d", addr, addr+int64(n), m.size))
	}
}

// page returns the backing page of addr, which check has already bounded.
// The table and the pages both grow on first touch, so an idle host costs
// nothing and a rack no more than the hosts that do I/O.
func (m *LocalMemory) page(addr int64) []byte {
	i := addr / pageSize
	if i >= int64(len(m.pages)) {
		// Amortised doubling, capped by the size of the memory.
		n := min(max(2*int64(len(m.pages)), i+1), m.size/pageSize)
		m.pages = append(make([][]byte, 0, n), m.pages...)[:n]
	}
	pg := m.pages[i]
	if pg == nil {
		pg = make([]byte, pageSize)
		m.pages[i] = pg
	}
	return pg
}

// Peek copies raw contents without timing.
func (m *LocalMemory) Peek(addr int64, buf []byte) {
	m.check(addr, len(buf))
	for len(buf) > 0 {
		pg := m.page(addr)
		off := addr & (pageSize - 1)
		n := copy(buf, pg[off:])
		buf = buf[n:]
		addr += int64(n)
	}
}

// Poke writes raw contents without timing.
func (m *LocalMemory) Poke(addr int64, data []byte) {
	m.check(addr, len(data))
	for len(data) > 0 {
		pg := m.page(addr)
		off := addr & (pageSize - 1)
		n := copy(pg[off:], data)
		data = data[n:]
		addr += int64(n)
	}
}

// CPURead copies memory into buf, charging latency plus streaming time.
func (m *LocalMemory) CPURead(p *sim.Proc, addr int64, buf []byte) {
	m.Peek(addr, buf)
	p.Sleep(m.params.CPULatency + m.streamTime(len(buf), m.params.CPUBandwidth))
}

// CPUWrite stores data, charging latency plus streaming time.
func (m *LocalMemory) CPUWrite(p *sim.Proc, addr int64, data []byte) {
	m.Poke(addr, data)
	p.Sleep(m.params.CPULatency + m.streamTime(len(data), m.params.CPUBandwidth))
}

// DMARead implements nic.DMAMemory for device reads from DDR.
func (m *LocalMemory) DMARead(addr int64, buf []byte, category string) sim.Duration {
	m.Peek(addr, buf)
	return m.dma.Reserve(m.streamTime(len(buf), m.params.DMABandwidth)) + m.params.DMALatency
}

// DMAWrite implements nic.DMAMemory for device writes to DDR.
func (m *LocalMemory) DMAWrite(addr int64, data []byte, category string) sim.Duration {
	done := m.dma.Reserve(m.streamTime(len(data), m.params.DMABandwidth)) + m.params.DMALatency
	snap := m.eng.Bufs().Get(len(data))
	copy(snap, data)
	var w *memWrite
	if n := len(m.frees); n > 0 {
		w = m.frees[n-1]
		m.frees[n-1] = nil
		m.frees = m.frees[:n-1]
	} else {
		w = &memWrite{}
	}
	w.m, w.addr, w.snap = m, addr, snap
	m.eng.AtTimer(done, w)
	return done
}

// memWrite is the pooled in-flight half of DMAWrite; firing it as a
// sim.Timer avoids a closure allocation per DMA (see sim.Timer).
type memWrite struct {
	m    *LocalMemory
	addr int64
	snap []byte
}

func (w *memWrite) Fire() {
	m := w.m
	m.Poke(w.addr, w.snap)
	m.eng.Bufs().Put(w.snap)
	w.m, w.snap = nil, nil
	m.frees = append(m.frees, w)
}

func (m *LocalMemory) streamTime(n int, bw float64) sim.Duration {
	return sim.Duration(float64(n) / bw * float64(time.Second))
}

// TouchCost returns the CPU cost of moving n bytes through local memory
// without materializing an address — used to charge for copies whose
// destination buffer identity does not matter (e.g. the frontend's
// isolation copy into an instance's private memory, §3.3.2).
func (m *LocalMemory) TouchCost(n int) sim.Duration {
	return m.params.CPULatency + m.streamTime(n, m.params.CPUBandwidth)
}

// Host is one pod member.
type Host struct {
	Name string
	ID   int

	Eng   *sim.Engine
	Local *LocalMemory
	// CXLPort is the host's CPU-side attachment to the pool (nil for hosts
	// outside the pod, e.g. load-generator clients).
	CXLPort *cxl.Port
	// Cache is the CPU cache in front of CXLPort.
	Cache *cache.Cache

	// IPCCost is the cost of posting one message on an intra-host shared
	// memory ring (instance <-> frontend driver, Junction-style).
	IPCCost sim.Duration
}

// Config sizes a host.
type Config struct {
	LocalMemBytes int64
	MemParams     MemParams
	CacheParams   cache.Params
	IPCCost       sim.Duration
}

// DefaultConfig matches the evaluation hosts (768 GB is overkill for the
// simulation; 1 GiB of modelled DDR is plenty since buffers are recycled).
func DefaultConfig() Config {
	return Config{
		LocalMemBytes: 1 << 30,
		MemParams:     DefaultMemParams(),
		CacheParams:   cache.DefaultParams(),
		IPCCost:       150 * time.Nanosecond,
	}
}

// New creates a host. pool may be nil for hosts outside the CXL pod.
func New(eng *sim.Engine, id int, name string, pool *cxl.Pool, cfg Config) *Host {
	h := &Host{
		Name:    name,
		ID:      id,
		Eng:     eng,
		Local:   NewLocalMemory(eng, cfg.LocalMemBytes, cfg.MemParams),
		IPCCost: cfg.IPCCost,
	}
	if pool != nil {
		h.CXLPort = pool.AttachPort(name)
		h.Cache = cache.New(eng, h.CXLPort, cfg.CacheParams)
	}
	return h
}

// InPod reports whether the host is attached to the CXL pool.
func (h *Host) InPod() bool { return h.CXLPort != nil }
