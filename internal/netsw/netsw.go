// Package netsw models the rack's Ethernet fabric: a store-and-forward
// switch with MAC learning and per-port failure injection.
//
// Two behaviours matter to Oasis and are modelled faithfully:
//
//   - MAC learning: the switch maps each source MAC it observes to the
//     ingress port. Oasis's NIC failover (§3.3.3) exploits this by having
//     the backup NIC send a frame with the failed NIC's source MAC, which
//     immediately repoints the switch's MAC table at the backup's port.
//   - Port administrative state: the failover experiments (§5.3) inject a
//     NIC failure by disabling the switch port; the attached NIC observes
//     link-down after a PHY debounce delay.
package netsw

import (
	"fmt"
	"math/rand"
	"time"

	"oasis/internal/sim"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// Broadcast is the all-ones MAC.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the MAC in canonical colon form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the MAC is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// Frame is an Ethernet frame in flight. Bytes is the full wire image
// (header + payload) used for sizing and DMA; Src/Dst are parsed out for the
// switch's forwarding decision.
//
// The switch owns every Frame it carries: Send and SendOwned take one from
// its free list, and the frame's last delivery (or its drop) returns Bytes
// to the engine's buffer pool and the Frame to the free list.
type Frame struct {
	Src, Dst MAC
	Bytes    []byte

	pending int // deliveries not yet made or dropped: 1 in flight, N flooded
}

// WireLen returns the frame's length on the wire, clamped to the Ethernet
// minimum of 64 bytes (with FCS).
func (f *Frame) WireLen() int {
	if len(f.Bytes) < 64 {
		return 64
	}
	return len(f.Bytes)
}

// Sink receives frames delivered by the fabric (a NIC ingress or a raw
// client node). DeliverFrame borrows f for the call only: once it returns,
// the switch may recycle f and return f.Bytes to the engine's buffer pool,
// so a sink copies whatever it keeps.
type Sink interface {
	DeliverFrame(f *Frame)
}

// Params configures switch timing.
type Params struct {
	// ProcessingDelay is the store-and-forward pipeline latency.
	ProcessingDelay sim.Duration
	// PortBandwidth is per-port line rate in bytes/s.
	PortBandwidth float64
	// PropagationDelay is per-hop cable delay.
	PropagationDelay sim.Duration
}

// DefaultParams models a 100 Gbit ToR switch (Arista 7060X class).
func DefaultParams() Params {
	return Params{
		ProcessingDelay:  600 * time.Nanosecond,
		PortBandwidth:    12.5e9, // 100 Gbit/s
		PropagationDelay: 50 * time.Nanosecond,
	}
}

// Switch is a MAC-learning store-and-forward Ethernet switch.
type Switch struct {
	eng    *sim.Engine
	params Params
	ports  []*Port
	table  map[MAC]*Port

	lossRate float64 // failure injection: fraction of frames dropped
	lossRNG  *rand.Rand

	freeOps    []*frameOp // recycled frame-hop ops (engine-local, no lock)
	freeFrames []*Frame   // recycled frame headers (see Frame)

	// Stats.
	Forwarded   int64
	Flooded     int64
	Dropped     int64 // frames to/from disabled ports
	LossDropped int64 // frames dropped by injected random loss
}

// SetLossRate injects random frame loss (0 ≤ rate < 1) with a deterministic
// seed — the failure-injection knob the TCP robustness tests use.
func (s *Switch) SetLossRate(rate float64, seed int64) {
	s.lossRate = rate
	s.lossRNG = rand.New(rand.NewSource(seed))
}

// New returns an empty switch.
func New(eng *sim.Engine, params Params) *Switch {
	return &Switch{eng: eng, params: params, table: make(map[MAC]*Port)}
}

// AttachPort adds a port wired to the given sink and returns it.
func (s *Switch) AttachPort(name string, sink Sink) *Port {
	p := &Port{
		sw:       s,
		name:     name,
		id:       len(s.ports),
		sink:     sink,
		toSwitch: sim.NewResource(s.eng),
		toDevice: sim.NewResource(s.eng),
		enabled:  true,
	}
	s.ports = append(s.ports, p)
	return p
}

// Ports returns all ports.
func (s *Switch) Ports() []*Port { return s.ports }

// LookupMAC returns the port a MAC was learned on (nil if unknown); for
// tests and diagnostics.
func (s *Switch) LookupMAC(m MAC) *Port { return s.table[m] }

// newFrame takes a frame header from the free list for one frame in flight.
func (s *Switch) newFrame(src, dst MAC, b []byte) *Frame {
	var f *Frame
	if n := len(s.freeFrames); n > 0 {
		f = s.freeFrames[n-1]
		s.freeFrames[n-1] = nil
		s.freeFrames = s.freeFrames[:n-1]
	} else {
		f = &Frame{}
	}
	f.Src, f.Dst, f.Bytes, f.pending = src, dst, b, 1
	return f
}

// release ends one of f's pending deliveries, made or dropped. The last
// returns f's bytes to the engine's buffer pool and f to the free list.
func (s *Switch) release(f *Frame) {
	if f.pending--; f.pending > 0 {
		return
	}
	s.eng.Bufs().Put(f.Bytes)
	*f = Frame{}
	s.freeFrames = append(s.freeFrames, f)
}

// inject is called by a port when a frame finishes arriving from its device.
func (s *Switch) inject(from *Port, f *Frame) {
	if !from.enabled {
		s.Dropped++
		s.release(f)
		return
	}
	// Learn the source MAC. This is the hook Oasis failover relies on: a
	// frame sent by the backup NIC with the failed NIC's source MAC remaps
	// that MAC to the backup's port in one observation.
	s.table[f.Src] = from
	if s.lossRate > 0 && s.lossRNG.Float64() < s.lossRate {
		s.LossDropped++
		s.release(f)
		return
	}

	s.eng.AfterTimer(s.params.ProcessingDelay, s.newFrameOp(opForward, from, f))
}

// forward routes a processed frame to its egress port (or floods it).
func (s *Switch) forward(from *Port, f *Frame) {
	if f.Dst.IsBroadcast() {
		s.flood(from, f)
		return
	}
	out, ok := s.table[f.Dst]
	if !ok {
		s.flood(from, f)
		return
	}
	if !out.enabled {
		s.Dropped++
		s.release(f)
		return
	}
	s.Forwarded++
	out.transmit(f)
}

// frameOp is one pooled in-flight hop of a frame's journey through the
// switch: cable arrival (inject), pipeline processing (forward), or delivery
// to the egress device. Firing these as sim.Timers rather than closures
// keeps per-frame switching allocation-free.
type frameOp struct {
	kind uint8
	port *Port // ingress for inject/forward, egress for deliver
	f    *Frame
}

const (
	opInject uint8 = iota
	opForward
	opDeliver
)

func (op *frameOp) Fire() {
	port, f := op.port, op.f
	s := port.sw
	op.port, op.f = nil, nil
	kind := op.kind
	s.freeOps = append(s.freeOps, op)
	switch kind {
	case opInject:
		s.inject(port, f)
	case opForward:
		s.forward(port, f)
	case opDeliver:
		if !port.enabled {
			s.Dropped++
		} else if port.sink != nil {
			port.sink.DeliverFrame(f)
		}
		s.release(f)
	}
}

func (s *Switch) newFrameOp(kind uint8, port *Port, f *Frame) *frameOp {
	var op *frameOp
	if n := len(s.freeOps); n > 0 {
		op = s.freeOps[n-1]
		s.freeOps[n-1] = nil
		s.freeOps = s.freeOps[:n-1]
	} else {
		op = &frameOp{}
	}
	op.kind, op.port, op.f = kind, port, f
	return op
}

// flood sends the frame out of every enabled port except the ingress, one
// pending delivery each (deliveries are later events, so none releases it
// meanwhile); with no such port the frame ends here.
func (s *Switch) flood(from *Port, f *Frame) {
	s.Flooded++
	n := 0
	for _, p := range s.ports {
		if p != from && p.enabled {
			n++
			p.transmit(f)
		}
	}
	if n == 0 {
		s.release(f)
		return
	}
	f.pending = n
}

// Port is one switch port and the cable to its device.
type Port struct {
	sw       *Switch
	name     string
	id       int
	sink     Sink
	toSwitch *sim.Resource // device -> switch direction of the cable
	toDevice *sim.Resource // switch -> device direction
	enabled  bool

	// onLinkChange, if set, is invoked (in event context) when the port's
	// administrative state flips; NICs use it to start their PHY debounce.
	onLinkChange func(up bool)
}

// Enabled reports the administrative state.
func (p *Port) Enabled() bool { return p.enabled }

// SetEnabled flips the port (failure injection / repair) and notifies the
// attached device.
func (p *Port) SetEnabled(up bool) {
	if p.enabled == up {
		return
	}
	p.enabled = up
	if p.onLinkChange != nil {
		p.onLinkChange(up)
	}
}

// OnLinkChange registers the device-side link state callback.
func (p *Port) OnLinkChange(fn func(up bool)) { p.onLinkChange = fn }

// SendOwned carries a frame from the attached device into the switch,
// serializing it on the device→switch direction of the cable. The switch
// takes ownership of b, the frame's wire image (at least the 12 bytes of its
// two MAC addresses, read here once): it returns b to the engine's buffer
// pool when the frame's last delivery or drop is done, so the caller never
// touches b again. Safe to call from procs or event callbacks.
func (p *Port) SendOwned(b []byte) {
	var src, dst MAC
	copy(dst[:], b[0:6])
	copy(src[:], b[6:12])
	p.send(p.sw.newFrame(src, dst, b))
}

// Send is SendOwned for a frame the caller keeps: the switch carries a
// pooled copy of f.Bytes, addressed by f.Src and f.Dst, and f stays the
// caller's.
func (p *Port) Send(f *Frame) {
	b := p.sw.eng.Bufs().Get(len(f.Bytes))
	copy(b, f.Bytes)
	p.send(p.sw.newFrame(f.Src, f.Dst, b))
}

func (p *Port) send(f *Frame) {
	if !p.enabled {
		p.sw.Dropped++
		p.sw.release(f)
		return
	}
	ser := p.serialization(f.WireLen())
	arrive := p.toSwitch.Reserve(ser)
	p.sw.eng.AtTimer(arrive+p.sw.params.PropagationDelay, p.sw.newFrameOp(opInject, p, f))
}

// transmit carries a frame from the switch out to the attached device.
func (p *Port) transmit(f *Frame) {
	ser := p.serialization(f.WireLen())
	done := p.toDevice.Reserve(ser)
	p.sw.eng.AtTimer(done+p.sw.params.PropagationDelay, p.sw.newFrameOp(opDeliver, p, f))
}

func (p *Port) serialization(n int) sim.Duration {
	return sim.Duration(float64(n) / p.sw.params.PortBandwidth * float64(time.Second))
}
