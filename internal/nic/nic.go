// Package nic models a datacenter NIC (Mellanox ConnectX-5 class) as the
// Oasis backend driver sees it through a kernel-bypass driver (§3.3):
// descriptor rings for TX and RX, completion queues, DMA into an arbitrary
// memory space (host DDR for the baseline, the CXL pool for Oasis), flow
// tagging that matches RX packets to instances by destination IP without
// the CPU touching the payload, a link-status register with PHY debounce,
// and line-rate/packet-rate limits.
//
// DMA always bypasses CPU caches (DDIO disabled, §3.2.1); the snoop cost of
// violating that discipline is modelled by the cache package and charged by
// whoever configures a SnoopTarget.
package nic

import (
	"fmt"
	"time"

	"oasis/internal/netsw"
	"oasis/internal/sim"
)

// DMAMemory is the space the NIC's DMA engine reads packets from and writes
// packets to. *cxl.Port implements it for pool-backed buffers;
// host.LocalMemory implements it for the baseline's DDR buffers.
type DMAMemory interface {
	DMARead(addr int64, buf []byte, category string) sim.Duration
	DMAWrite(addr int64, data []byte, category string) sim.Duration
}

// Snooper covers the case where a CPU cache may hold lines of a DMA target
// (e.g. the backend inspected a buffer). cache.Cache implements it.
type Snooper interface {
	Snoop(addr int64, n int, category string) sim.Duration
}

// LineInstaller is the DDIO target: a CPU cache that accepts allocating
// writes. cache.Cache implements it.
type LineInstaller interface {
	InstallLine(addr int64, data []byte)
}

// Params configures the NIC's performance model.
type Params struct {
	// PacketCost is the per-packet pipeline cost, bounding packet rate
	// (~250 ns ≈ 4 MOp/s, Table 1).
	PacketCost sim.Duration
	// DoorbellCost is the CPU-side MMIO cost of posting work (charged to
	// the backend driver's core).
	DoorbellCost sim.Duration
	// LinkDebounce is how long after a physical link event the link-status
	// register reflects it. Tens of milliseconds on real PHYs; this
	// dominates the paper's 38 ms failover interruption.
	LinkDebounce sim.Duration
	// DDIO enables "PCIe allocating write flows" (Intel DDIO, §3.2.1): RX
	// DMA writes land in the owning host's cache instead of memory. Oasis
	// requires this OFF — across a non-coherent pod the payload never
	// reaches pool memory, so remote frontends read stale bytes. Off by
	// default, as §3.2.1 assumes; tests exercise the hazard.
	DDIO bool
	// TxRing and RxRing bound outstanding descriptors.
	TxRing, RxRing int
}

// DefaultParams models a 100 Gbit CX5-class NIC.
func DefaultParams() Params {
	return Params{
		PacketCost:   250 * time.Nanosecond,
		DoorbellCost: 100 * time.Nanosecond,
		LinkDebounce: 35 * time.Millisecond,
		TxRing:       1024,
		RxRing:       4096,
	}
}

// WQE is a transmit work-queue entry: a packet already resident in DMA
// memory. Cookie comes back in the TX completion.
type WQE struct {
	Addr   int64
	Len    int
	Cookie uint64
}

// RxDesc is a receive descriptor: a free buffer the NIC may write one
// packet into.
type RxDesc struct {
	Addr int64
	Cap  int
}

// TxCompletion reports a transmitted packet.
type TxCompletion struct {
	Cookie uint64
}

// RxCompletion reports a received packet.
type RxCompletion struct {
	Addr    int64
	Len     int
	Tag     uint32 // flow tag (instance identifier)
	Matched bool   // false when no flow rule matched (§3.3.1 footnote)
}

// FlowKeyFunc extracts the flow-steering key (destination IPv4 address)
// from a frame's bytes. Supplied by the network stack so the NIC package
// stays independent of the packet format.
type FlowKeyFunc func(frame []byte) (key uint32, ok bool)

// NIC is one physical NIC.
type NIC struct {
	eng    *sim.Engine
	name   string
	mac    netsw.MAC
	params Params
	mem    DMAMemory
	snoop  Snooper // optional: set when a CPU cache may alias DMA targets
	port   *netsw.Port

	flowKey FlowKeyFunc
	flows   map[uint32]uint32 // dst IP -> tag

	freeRxOps []*rxCompOp // recycled RX-completion ops (engine-local, no lock)

	txq    *sim.Queue[WQE]
	txOut  int // occupied TX ring slots (posted, not yet completed)
	rxFree []RxDesc
	txcq   *sim.Queue[TxCompletion]
	rxcq   *sim.Queue[RxCompletion]

	linkUp  bool
	linkGen int // invalidates stale debounce timers

	lossRate float64 // > 0 while a nic-lossy fault drops RX frames
	lossRng  uint64  // seeded LCG state driving the drop decisions

	// Stats.
	TxPackets, RxPackets int64
	TxBytes, RxBytes     int64
	RxNoDesc             int64 // frames dropped: RX ring empty
	TxRingFull           int64 // posts refused
	Oversize             int64 // frames dropped: larger than the RX buffer
	RxLossDropped        int64 // frames dropped by an injected nic-lossy fault
	TxCarrierErrs        int64 // frames transmitted into a disabled port (carrier lost)

	// PCIe Advanced Error Reporting counters (§3.5: backend telemetry
	// includes "network health metrics (e.g., link status and PCIe AER
	// counters)"). Correctable errors are normal background noise; a burst
	// of uncorrectable errors is a dying device.
	AERCorrectable   int64
	AERUncorrectable int64
}

// New creates a NIC that DMAs through mem. Call Connect to wire it to a
// switch port, then Start to launch its TX engine.
func New(eng *sim.Engine, name string, mac netsw.MAC, mem DMAMemory, flowKey FlowKeyFunc, params Params) *NIC {
	return &NIC{
		eng:     eng,
		name:    name,
		mac:     mac,
		params:  params,
		mem:     mem,
		flowKey: flowKey,
		flows:   make(map[uint32]uint32),
		txq:     sim.NewQueue[WQE](eng),
		txcq:    sim.NewQueue[TxCompletion](eng),
		rxcq:    sim.NewQueue[RxCompletion](eng),
		linkUp:  true,
	}
}

// Name returns the NIC's diagnostic name.
func (n *NIC) Name() string { return n.name }

// MAC returns the NIC's burned-in address.
func (n *NIC) MAC() netsw.MAC { return n.mac }

// Connect wires the NIC to a switch port and registers for link events.
func (n *NIC) Connect(port *netsw.Port) {
	n.port = port
	n.linkUp = port.Enabled()
	port.OnLinkChange(func(up bool) {
		n.linkGen++
		gen := n.linkGen
		// The status register lags the physical event by the PHY debounce.
		n.eng.After(n.params.LinkDebounce, func() {
			if n.linkGen == gen {
				n.linkUp = up
			}
		})
	})
}

// Start launches the NIC's TX engine process.
func (n *NIC) Start() {
	n.eng.Go(n.name+"/tx", func(p *sim.Proc) { n.txLoop(p) })
}

// ForceLink overrides the PHY state (failure injection): down takes the
// link-status register down immediately, regardless of the switch port; up
// restores it only if the attached port is actually enabled. Any in-flight
// debounce timer is invalidated so a stale event can't undo the injection.
func (n *NIC) ForceLink(up bool) {
	n.linkGen++
	if up && n.port != nil && !n.port.Enabled() {
		up = false
	}
	n.linkUp = up
}

// InjectAER increments an AER counter (failure injection for the
// proactive-failover tests).
func (n *NIC) InjectAER(uncorrectable bool) {
	if uncorrectable {
		n.AERUncorrectable++
	} else {
		n.AERCorrectable++
	}
}

// LinkUp reads the link-status register (§3.3.3: the backend driver polls
// this to detect hardware faults, cable pulls, and switch linecard issues).
func (n *NIC) LinkUp() bool { return n.linkUp }

// SetLossy makes the NIC silently drop a pseudo-random fraction rate of
// incoming frames while the link stays administratively up — gray-failure
// injection (faults.NICLossy). The drop sequence is a seeded LCG stepped
// once per delivered frame, so a replay is deterministic. SetLossy(0, _)
// — or ClearLossy — restores lossless delivery.
func (n *NIC) SetLossy(rate float64, seed int64) {
	n.lossRate = rate
	n.lossRng = uint64(seed)*2862933555777941757 + 3037000493
}

// ClearLossy stops an injected nic-lossy fault.
func (n *NIC) ClearLossy() { n.lossRate = 0 }

// Lossy reports whether a nic-lossy fault is active.
func (n *NIC) Lossy() bool { return n.lossRate > 0 }

// dropLossy steps the loss LCG for one incoming frame and reports whether
// the frame is to be dropped.
func (n *NIC) dropLossy() bool {
	if n.lossRate <= 0 {
		return false
	}
	n.lossRng = n.lossRng*6364136223846793005 + 1442695040888963407
	if float64(n.lossRng>>11)/(1<<53) < n.lossRate {
		n.RxLossDropped++
		return true
	}
	return false
}

// SetSnooper configures a CPU cache that may alias DMA buffers; used by the
// DDIO/inspection ablations.
func (n *NIC) SetSnooper(s Snooper) { n.snoop = s }

// AddFlowRule steers packets with the given destination IP to tag
// (rte_flow-style, §3.3.1).
func (n *NIC) AddFlowRule(dstIP uint32, tag uint32) { n.flows[dstIP] = tag }

// RemoveFlowRule deletes a steering rule.
func (n *NIC) RemoveFlowRule(dstIP uint32) { delete(n.flows, dstIP) }

// PostTx posts a transmit WQE, charging the doorbell cost to the calling
// core. It returns false when the TX ring is full.
func (n *NIC) PostTx(p *sim.Proc, wqe WQE) bool {
	p.Sleep(n.params.DoorbellCost)
	if n.txOut >= n.params.TxRing {
		n.TxRingFull++
		return false
	}
	n.txOut++
	n.txq.Push(wqe)
	return true
}

// PostRx replenishes one RX descriptor, charging the doorbell cost.
// It returns false when the RX ring is full.
func (n *NIC) PostRx(p *sim.Proc, desc RxDesc) bool {
	p.Sleep(n.params.DoorbellCost)
	if len(n.rxFree) >= n.params.RxRing {
		return false
	}
	n.rxFree = append(n.rxFree, desc)
	return true
}

// RxDescCount returns the number of free RX descriptors posted.
func (n *NIC) RxDescCount() int { return len(n.rxFree) }

// PollTxCompletion returns one TX completion if available.
func (n *NIC) PollTxCompletion() (TxCompletion, bool) { return n.txcq.TryPop() }

// CompletionsReady reports whether either completion queue holds an entry.
func (n *NIC) CompletionsReady() bool { return n.txcq.Len() > 0 || n.rxcq.Len() > 0 }

// PollRxCompletion returns one RX completion if available.
func (n *NIC) PollRxCompletion() (RxCompletion, bool) { return n.rxcq.TryPop() }

// txLoop is the NIC's transmit pipeline: fetch WQE, DMA-read the packet
// (bypassing CPU caches), pace by the per-packet cost, hand the frame to
// the wire, and complete.
func (n *NIC) txLoop(p *sim.Proc) {
	for {
		wqe := n.txq.Pop(p)
		p.Sleep(n.params.PacketCost)
		// Drawn from the pool but never recycled: the frame escapes to the
		// switch, which may flood it to several sinks. DMARead overwrites
		// every byte, so recycled contents are harmless.
		buf := n.eng.Bufs().Get(wqe.Len)
		if n.snoop != nil {
			if d := n.snoop.Snoop(wqe.Addr, wqe.Len, "dma-snoop"); d > 0 {
				p.Sleep(d)
			}
		}
		arrival := n.mem.DMARead(wqe.Addr, buf, "payload")
		if wait := arrival - p.Now(); wait > 0 {
			p.Sleep(wait)
		}
		frame, err := parseFrame(buf)
		if err != nil {
			// Malformed WQE contents are a driver bug; complete it anyway so
			// the ring does not leak, but do not transmit.
			n.completeTx(wqe)
			continue
		}
		if n.port != nil {
			// A MAC transmitting into a dead cable records a carrier error —
			// the counter that makes a sub-debounce flaky link visible to
			// telemetry while the link-status register still reads "up".
			if !n.port.Enabled() {
				n.TxCarrierErrs++
			}
			n.port.Send(frame)
		}
		n.TxPackets++
		n.TxBytes += int64(wqe.Len)
		n.completeTx(wqe)
	}
}

func (n *NIC) completeTx(wqe WQE) {
	n.txOut--
	n.txcq.Push(TxCompletion{Cookie: wqe.Cookie})
}

// parseFrame extracts src/dst MACs from the wire image (bytes 0-5 dst,
// 6-11 src, as on real Ethernet).
func parseFrame(b []byte) (*netsw.Frame, error) {
	if len(b) < 14 {
		return nil, fmt.Errorf("nic: frame too short (%d bytes)", len(b))
	}
	var f netsw.Frame
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	f.Bytes = b
	return &f, nil
}

// ddioWrite lands the packet in the owning host's cache (allocating write).
// Pool memory is NOT updated — the §3.2.1 hazard this models.
func (n *NIC) ddioWrite(addr int64, data []byte) sim.Duration {
	inst, ok := n.snoop.(LineInstaller)
	if !ok {
		return n.mem.DMAWrite(addr, data, "payload")
	}
	first := addr &^ 63
	last := (addr + int64(len(data)) - 1) &^ 63
	var line [64]byte
	for a := first; a <= last; a += 64 {
		for i := range line {
			line[i] = 0
		}
		lo, hi := a, a+64
		if lo < addr {
			lo = addr
		}
		if hi > addr+int64(len(data)) {
			hi = addr + int64(len(data))
		}
		copy(line[lo-a:hi-a], data[lo-addr:hi-addr])
		inst.InstallLine(a, line[:])
	}
	// An allocating write is a cache-speed operation.
	return n.eng.Now() + 100*time.Nanosecond
}

// SendRaw injects a pre-built frame directly (used for the failover
// MAC-borrowing frame, §3.3.3, which the backend crafts rather than an
// instance). It bypasses the DMA path; timing is one packet cost.
func (n *NIC) SendRaw(f *netsw.Frame) {
	if n.port == nil {
		return
	}
	n.eng.After(n.params.PacketCost, func() { n.port.Send(f) })
	n.TxPackets++
	n.TxBytes += int64(len(f.Bytes))
}

// DeliverFrame implements netsw.Sink: a frame arrived from the wire. The
// NIC claims an RX descriptor, DMA-writes the packet, classifies it, and
// raises an RX completion.
func (n *NIC) DeliverFrame(f *netsw.Frame) {
	if n.dropLossy() {
		return
	}
	if len(n.rxFree) == 0 {
		n.RxNoDesc++
		return
	}
	desc := n.rxFree[0]
	if len(f.Bytes) > desc.Cap {
		n.Oversize++
		return
	}
	n.rxFree = n.rxFree[1:]
	n.RxPackets++
	n.RxBytes += int64(len(f.Bytes))
	if n.snoop != nil {
		n.snoop.Snoop(desc.Addr, len(f.Bytes), "dma-snoop")
	}
	var done sim.Duration
	if n.params.DDIO {
		done = n.ddioWrite(desc.Addr, f.Bytes)
	} else {
		done = n.mem.DMAWrite(desc.Addr, f.Bytes, "payload")
	}
	comp := RxCompletion{Addr: desc.Addr, Len: len(f.Bytes)}
	if key, ok := n.flowKey(f.Bytes); ok {
		if tag, hit := n.flows[key]; hit {
			comp.Tag = tag
			comp.Matched = true
		}
	}
	var op *rxCompOp
	if k := len(n.freeRxOps); k > 0 {
		op = n.freeRxOps[k-1]
		n.freeRxOps[k-1] = nil
		n.freeRxOps = n.freeRxOps[:k-1]
	} else {
		op = &rxCompOp{}
	}
	op.n, op.comp = n, comp
	n.eng.AtTimer(done+n.params.PacketCost, op)
}

// rxCompOp is the pooled posting of an RX completion once the packet's DMA
// lands; firing it as a sim.Timer avoids a closure allocation per received
// packet (see sim.Timer).
type rxCompOp struct {
	n    *NIC
	comp RxCompletion
}

func (op *rxCompOp) Fire() {
	n := op.n
	comp := op.comp
	op.n = nil
	n.freeRxOps = append(n.freeRxOps, op)
	n.rxcq.Push(comp)
}
