// Package ssd models a datacenter NVMe SSD as the Oasis storage backend
// sees it through a kernel-bypass driver (SPDK-style, §3.4): submission and
// completion queues carrying 64-byte commands, DMA to arbitrary memory
// (the CXL pool for Oasis), namespaces, a latency/bandwidth/IOPS
// performance model (Table 1: ~5 GB/s, 0.5 MOp/s, ~100 µs reads), and
// failure injection that fails outstanding and future commands — the
// paper's storage engine propagates those errors to the guest rather than
// attempting transparent failover (§3.4 "Failure semantics").
package ssd

import (
	"fmt"
	"time"

	"oasis/internal/sim"
)

// BlockSize is the logical block size in bytes.
const BlockSize = 4096

// DMAMemory is the space the SSD's DMA engine moves data through
// (*cxl.Port and host.LocalMemory both satisfy it).
type DMAMemory interface {
	DMARead(addr int64, buf []byte, category string) sim.Duration
	DMAWrite(addr int64, data []byte, category string) sim.Duration
}

// Opcodes (subset of the NVM command set).
const (
	OpRead  = 0x02
	OpWrite = 0x01
	OpFlush = 0x00
)

// Status codes.
const (
	StatusOK          = 0x00
	StatusDeviceFault = 0x06
	StatusInvalidNS   = 0x0B
	StatusLBARange    = 0x80
)

// Command mirrors the fields of a 64 B NVMe command (§3.4: the engine's
// channel messages carry exactly these).
type Command struct {
	Opcode uint8
	CID    uint16 // command identifier, echoed in the completion
	NSID   uint32
	LBA    uint64
	Blocks uint16 // number of logical blocks
	Buf    int64  // DMA address (PRP) in the SSD's memory space
}

// Completion is one CQ entry.
type Completion struct {
	CID    uint16
	Status uint8
}

// Params is the device performance model.
type Params struct {
	ReadLatency  sim.Duration // media read access time
	WriteLatency sim.Duration // program (buffered) time
	Bandwidth    float64      // bytes/s of media throughput
	OpCost       sim.Duration // per-command pipeline cost (bounds IOPS)
}

// The controller's shape.
const (
	workers    = 64   // internal parallelism (channels/dies)
	queueDepth = 1024 // max outstanding commands in the SQ
)

// DefaultParams models the paper's Table 1 SSD: 5 GB/s, 0.5 MOp/s, 100 µs.
func DefaultParams() Params {
	return Params{
		ReadLatency:  80 * time.Microsecond,
		WriteLatency: 20 * time.Microsecond,
		Bandwidth:    5e9,
		OpCost:       2 * time.Microsecond, // 0.5 MOp/s through the shared pipeline
	}
}

// SSD is one simulated NVMe device.
type SSD struct {
	eng    *sim.Engine
	name   string
	params Params
	mem    DMAMemory

	namespaces  map[uint32]*Namespace
	sq          *sim.Queue[Command]
	cq          *sim.Queue[Completion]
	media       *sim.Resource // serializes media bandwidth
	pipeline    *sim.Resource // serializes per-command controller work (IOPS bound)
	outstanding int
	failed      bool
	slowMult    float64 // > 1 while an ssd-slow fault inflates media latency

	// Stats.
	Reads, Writes, Errors   int64
	BytesRead, BytesWritten int64
	QueueFullRejects        int64
}

// Namespace is a logical block range with sparse backing storage.
type Namespace struct {
	Blocks uint64
	data   map[uint64][]byte // block index -> 4 KiB
}

// New creates an SSD that DMAs through mem.
func New(eng *sim.Engine, name string, mem DMAMemory, params Params) *SSD {
	d := &SSD{
		eng:        eng,
		name:       name,
		params:     params,
		mem:        mem,
		namespaces: make(map[uint32]*Namespace),
		sq:         sim.NewQueue[Command](eng),
		cq:         sim.NewQueue[Completion](eng),
		media:      sim.NewResource(eng),
		pipeline:   sim.NewResource(eng),
	}
	return d
}

// AddNamespace creates namespace nsid with the given block count.
func (d *SSD) AddNamespace(nsid uint32, blocks uint64) *Namespace {
	ns := &Namespace{Blocks: blocks, data: make(map[uint64][]byte)}
	d.namespaces[nsid] = ns
	return ns
}

// Start launches the device's internal workers.
func (d *SSD) Start() {
	for i := 0; i < workers; i++ {
		d.eng.Go(fmt.Sprintf("%s/w%d", d.name, i), d.worker)
	}
}

// Name returns the device name.
func (d *SSD) Name() string { return d.name }

// Fail injects a device failure: outstanding and future commands complete
// with a device fault (§3.4).
func (d *SSD) Fail() { d.failed = true }

// Repair clears an injected failure; subsequent commands execute normally.
// The stored blocks survive (the fault models a controller hang, not media
// loss) — but a frontend must still treat a repaired drive's copy as stale
// until re-mirrored, which is why failover never automatically fails back.
func (d *SSD) Repair() { d.failed = false }

// Failed reports the failure state (the backend's health check reads it).
func (d *SSD) Failed() bool { return d.failed }

// SetSlow inflates the drive's media latency by mult (>= 1) without
// failing it — the gray-failure half of the fault model (faults.SSDSlow):
// commands still succeed, they just take mult times the nominal media
// latency. SetSlow(1) restores nominal service.
func (d *SSD) SetSlow(mult float64) {
	if mult <= 1 {
		d.slowMult = 0
		return
	}
	d.slowMult = mult
}

// SlowMult reports the current latency inflation factor (1 = nominal).
func (d *SSD) SlowMult() float64 {
	if d.slowMult == 0 {
		return 1
	}
	return d.slowMult
}

// mediaLat applies the ssd-slow inflation to a nominal media latency.
func (d *SSD) mediaLat(lat sim.Duration) sim.Duration {
	if d.slowMult == 0 {
		return lat
	}
	return sim.Duration(float64(lat) * d.slowMult)
}

// Submit posts one command to the SQ, charging the doorbell cost to p.
// It reports false when the queue is full.
func (d *SSD) Submit(p *sim.Proc, cmd Command) bool {
	p.Sleep(100 * time.Nanosecond) // SQ doorbell
	if d.outstanding >= queueDepth {
		d.QueueFullRejects++
		return false
	}
	d.outstanding++
	d.sq.Push(cmd)
	return true
}

// PollCompletion pops one CQ entry if available.
func (d *SSD) PollCompletion() (Completion, bool) {
	return d.cq.TryPop()
}

// CompletionsReady reports whether the CQ holds an entry.
func (d *SSD) CompletionsReady() bool { return d.cq.Len() > 0 }

// worker drains the SQ, performing media access and DMA.
func (d *SSD) worker(p *sim.Proc) {
	for {
		cmd := d.sq.Pop(p)
		// The controller pipeline is shared across all internal workers:
		// it, not the worker count, bounds the device at 1/OpCost IOPS
		// (Table 1's 0.5 MOp/s).
		d.pipeline.Use(p, d.params.OpCost)
		status := d.execute(p, cmd)
		d.outstanding--
		if status != StatusOK {
			d.Errors++
		}
		d.cq.Push(Completion{CID: cmd.CID, Status: status})
	}
}

func (d *SSD) execute(p *sim.Proc, cmd Command) uint8 {
	if d.failed {
		return StatusDeviceFault
	}
	if cmd.Opcode == OpFlush {
		p.Sleep(5 * time.Microsecond)
		return StatusOK
	}
	ns, ok := d.namespaces[cmd.NSID]
	if !ok {
		return StatusInvalidNS
	}
	if cmd.Blocks == 0 || cmd.LBA+uint64(cmd.Blocks) > ns.Blocks {
		return StatusLBARange
	}
	n := int(cmd.Blocks) * BlockSize
	switch cmd.Opcode {
	case OpRead:
		// Media access, then DMA the data to the host buffer.
		d.media.Use(p, d.streamTime(n))
		p.Sleep(d.mediaLat(d.params.ReadLatency))
		// Staged through the pool: DMAWrite snapshots what it carries.
		buf := d.eng.Bufs().Get(n)
		for b := 0; b < int(cmd.Blocks); b++ {
			part := buf[b*BlockSize : (b+1)*BlockSize]
			if blk := ns.data[cmd.LBA+uint64(b)]; blk != nil {
				copy(part, blk)
			} else {
				clear(part) // never written: reads zeros
			}
		}
		done := d.mem.DMAWrite(cmd.Buf, buf, "payload")
		d.eng.Bufs().Put(buf)
		if wait := done - p.Now(); wait > 0 {
			p.Sleep(wait)
		}
		d.Reads++
		d.BytesRead += int64(n)
	case OpWrite:
		// DMA the data from the host buffer, then program the media.
		buf := d.eng.Bufs().Get(n)
		arrive := d.mem.DMARead(cmd.Buf, buf, "payload")
		if wait := arrive - p.Now(); wait > 0 {
			p.Sleep(wait)
		}
		d.media.Use(p, d.streamTime(n))
		p.Sleep(d.mediaLat(d.params.WriteLatency))
		// Only the first write to an LBA allocates its block; a rewrite
		// copies over it (no one else holds a block: reads copy out).
		for b := 0; b < int(cmd.Blocks); b++ {
			lba := cmd.LBA + uint64(b)
			blk := ns.data[lba]
			if blk == nil {
				blk = make([]byte, BlockSize)
				ns.data[lba] = blk
			}
			copy(blk, buf[b*BlockSize:(b+1)*BlockSize])
		}
		d.eng.Bufs().Put(buf)
		d.Writes++
		d.BytesWritten += int64(n)
	default:
		return StatusInvalidNS
	}
	return StatusOK
}

func (d *SSD) streamTime(n int) sim.Duration {
	return sim.Duration(float64(n) / d.params.Bandwidth * float64(time.Second))
}
