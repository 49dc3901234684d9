// Package host models a pod member: a server with local DDR memory, a CPU
// cache in front of its CXL port, and attachment points for PCIe devices
// and container instances.
//
// Local memory is cache-coherent within the host (ordinary DDR), so it is
// only a flat cost (TouchCost) that the datapath charges for copies into an
// instance's private memory; the interesting coherence behaviour only exists
// on the CXL side (package cache). The baseline's DDR is pool memory priced
// at DDR latency, not a store of its own.
package host

import (
	"time"

	"oasis/internal/cache"
	"oasis/internal/cxl"
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
}

// DefaultMemParams models DDR5.
func DefaultMemParams() MemParams {
	return MemParams{
		CPULatency:   90 * time.Nanosecond,
		CPUBandwidth: 64e9,
	}
}

// Host is one pod member.
type Host struct {
	Name string
	ID   int

	Eng *sim.Engine
	mem MemParams
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
	// LocalMemBytes is read by nothing: host DDR is only the cost TouchCost
	// charges. It stays because the repository benchmark sets it.
	LocalMemBytes int64
	MemParams     MemParams
	IPCCost       sim.Duration
}

// DefaultConfig matches the evaluation hosts.
func DefaultConfig() Config {
	return Config{
		MemParams: DefaultMemParams(),
		IPCCost:   150 * time.Nanosecond,
	}
}

// New creates a host. pool may be nil for hosts outside the CXL pod.
func New(eng *sim.Engine, id int, name string, pool *cxl.Pool, cfg Config) *Host {
	h := &Host{
		Name:    name,
		ID:      id,
		Eng:     eng,
		mem:     cfg.MemParams,
		IPCCost: cfg.IPCCost,
	}
	if pool != nil {
		h.CXLPort = pool.AttachPort(name)
		h.Cache = cache.New(eng, h.CXLPort, cache.DefaultParams())
	}
	return h
}

// InPod reports whether the host is attached to the CXL pool.
func (h *Host) InPod() bool { return h.CXLPort != nil }

// TouchCost returns the CPU cost of moving n bytes through local memory
// without materializing an address — used to charge for copies whose
// destination buffer identity does not matter (e.g. the frontend's
// isolation copy into an instance's private memory, §3.3.2).
func (h *Host) TouchCost(n int) sim.Duration {
	return h.mem.CPULatency + sim.Duration(float64(n)/h.mem.CPUBandwidth*float64(time.Second))
}
