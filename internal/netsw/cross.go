package netsw

import "oasis/internal/sim"

// RemotePort is a switch port whose device lives on another simulation
// partition: the cable is modeled as the ordinary port cable plus an
// extension of `extra` each way (one more switch hop of distance, by
// default), and that extension is the declared cross-partition lookahead.
// The raw cable alone would not do — 64 B serialization plus one
// propagation hop is ~55 ns, under the group's 100 ns lookahead floor —
// so a remote device is, by construction, a machine at least one extra
// hop away from the rack switch. Per-host partitioned pods attach their
// load-generating clients this way.
//
// Direction mechanics:
//
//   - device→switch: Send runs on the device partition; serialization is
//     paid on a device-side resource (the cable's near segment), then the
//     frame crosses and is injected into the switch pipeline on arrival.
//     The frame bytes are handed off, never recycled, so the switch side
//     may retain them.
//   - switch→device: the switch delivers to the port's sink in switch
//     event context (after the usual egress serialization + propagation);
//     the relay copies the wire image — producers on the switch partition
//     recycle their TX buffers — and crosses to the device sink.
type RemotePort struct {
	sw       *Switch
	port     *Port       // switch-side port; its sink is the relay
	dev      *sim.Engine // device partition
	sink     Sink        // device-side sink
	extra    sim.Duration
	toSwitch *sim.Resource // device-side cable segment (device→switch)
	devLink  *sim.CrossLink
	swLink   *sim.CrossLink
}

// AttachRemotePort attaches a port whose device (sink) executes on
// partition dev of group g. extra is the cable-extension latency added in
// each direction and declared as lookahead; extra <= 0 selects the default
// of one additional switch hop (processing + propagation delay). The
// device side must send through the returned RemotePort, not the
// underlying Port.
func (s *Switch) AttachRemotePort(g *sim.Group, name string, dev *sim.Engine, sink Sink, extra sim.Duration) *RemotePort {
	if extra <= 0 {
		extra = s.params.ProcessingDelay + s.params.PropagationDelay
	}
	r := &RemotePort{
		sw:       s,
		dev:      dev,
		sink:     sink,
		extra:    extra,
		toSwitch: sim.NewResource(dev),
	}
	r.port = s.AttachPort(name, r)
	r.devLink = g.Link(dev, s.eng, s.params.PropagationDelay+extra)
	r.swLink = g.Link(s.eng, dev, extra)
	return r
}

// Port returns the switch-side port (for fault injection, MAC-table
// inspection, and diagnostics). Only the switch partition may operate it.
func (r *RemotePort) Port() *Port { return r.port }

// Send carries a frame from the remote device into the switch. Must be
// called from the device partition's execution context. The frame bytes
// pass to the fabric and must not be reused by the caller.
func (r *RemotePort) Send(f *Frame) {
	ser := r.port.serialization(f.WireLen())
	done := r.toSwitch.Reserve(ser)
	fr := *f
	arrive := done + r.sw.params.PropagationDelay + r.extra
	r.devLink.Send(arrive, func() {
		r.sw.inject(r.port, &fr)
	})
}

// DeliverFrame is the switch-side half of the relay (the Port's sink):
// copy the wire image out of the producer's buffer and cross to the
// device partition. Implements Sink; runs in switch event context.
func (r *RemotePort) DeliverFrame(f *Frame) {
	b := make([]byte, len(f.Bytes))
	copy(b, f.Bytes)
	fr := Frame{Src: f.Src, Dst: f.Dst, Bytes: b}
	r.swLink.Send(r.sw.eng.Now()+r.extra, func() {
		r.sink.DeliverFrame(&fr)
	})
}
