package netsw

import (
	"bytes"
	"testing"
	"time"

	"oasis/internal/sim"
)

// ownSink is a sink that checks, while it holds a borrowed frame, that the
// frame's bytes are intact and have not been returned to the pool yet.
type ownSink struct {
	t         *testing.T
	eng       *sim.Engine
	want      []byte // the frame under test's wire image
	puts      *int64 // pool Puts when the frame was sent; nil before
	delivered int
}

func (s *ownSink) DeliverFrame(f *Frame) {
	if s.puts == nil {
		return // the teaching broadcast
	}
	s.delivered++
	if got := s.eng.Bufs().Puts; got != *s.puts {
		s.t.Errorf("a sink holds the frame, but the pool took %d buffers back meanwhile", got-*s.puts)
	}
	if !bytes.Equal(f.Bytes, s.want) {
		s.t.Errorf("a sink reads %d bytes that are not the frame's %d", len(f.Bytes), len(s.want))
	}
}

// TestFrameOwnership: on every terminal path of a frame through the switch
// — delivered, dropped at a disabled ingress (at Send or on the cable),
// lost to injected loss, dropped at a disabled egress (at forward or in
// flight), flooded to no port, and flooded to three sinks of which one is
// disabled in flight — its bytes go back to the engine's pool exactly once,
// and only after the last sink holding them has returned.
func TestFrameOwnership(t *testing.T) {
	const (
		sendAt = time.Millisecond
		// A 128 B frame sent at sendAt reaches the switch at +60 ns, is
		// forwarded at +660 ns and delivered at +720 ns.
		onCable  = 30 * time.Nanosecond
		inFlight = 690 * time.Nanosecond
	)
	macD := MAC{0xdd, 0, 0, 0, 0, 4}
	for _, tc := range []struct {
		name      string
		dst       MAC
		before    func(sw *Switch, ports []*Port) // at sendAt, before the send
		during    func(ports []*Port)             // at sendAt+at, the frame in flight
		at        time.Duration
		delivered int
	}{
		{name: "delivered", dst: macB, delivered: 1},
		{name: "ingress disabled at send", dst: macB,
			before: func(_ *Switch, ports []*Port) { ports[0].SetEnabled(false) }},
		{name: "ingress disabled on the cable", dst: macB,
			during: func(ports []*Port) { ports[0].SetEnabled(false) }, at: onCable},
		{name: "injected loss", dst: macB,
			before: func(sw *Switch, _ []*Port) { sw.SetLossRate(0.999, 1) }},
		{name: "egress disabled at forward", dst: macB,
			before: func(_ *Switch, ports []*Port) { ports[1].SetEnabled(false) }},
		{name: "egress disabled in flight", dst: macB,
			during: func(ports []*Port) { ports[1].SetEnabled(false) }, at: inFlight},
		{name: "flood to no port", dst: Broadcast,
			before: func(_ *Switch, ports []*Port) {
				for _, p := range ports[1:] {
					p.SetEnabled(false)
				}
			}},
		{name: "flood to 3, one disabled in flight", dst: macD,
			during: func(ports []*Port) { ports[2].SetEnabled(false) }, at: inFlight, delivered: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			sw := New(eng, DefaultParams())
			pool := eng.Bufs()
			var sinks []*ownSink
			var ports []*Port
			for _, name := range []string{"a", "b", "c", "d"} {
				s := &ownSink{t: t, eng: eng}
				sinks = append(sinks, s)
				ports = append(ports, sw.AttachPort(name, s))
			}
			eng.At(0, func() { ports[1].Send(frame(macB, Broadcast, 64)) }) // teach macB -> b
			var b []byte
			var puts0 int64
			eng.At(sendAt, func() {
				if tc.before != nil {
					tc.before(sw, ports)
				}
				b = pool.Get(128)
				clear(b)
				copy(b[0:6], tc.dst[:])
				copy(b[6:12], macA[:])
				want := bytes.Clone(b)
				puts0 = pool.Puts
				for _, s := range sinks {
					s.want, s.puts = want, &puts0
				}
				ports[0].SendOwned(b)
			})
			if tc.during != nil {
				eng.At(sendAt+tc.at, func() { tc.during(ports) })
			}
			eng.Run()

			delivered := 0
			for _, s := range sinks {
				delivered += s.delivered
			}
			if delivered != tc.delivered {
				t.Fatalf("%d deliveries, want %d", delivered, tc.delivered)
			}
			if n := pool.Puts - puts0; n != 1 {
				t.Fatalf("the frame's bytes went back to the pool %d times, want once", n)
			}
			if got := pool.Get(128); &got[0] != &b[0] {
				t.Fatal("the buffer the pool took back is not the frame's")
			}
			if got := pool.Get(128); &got[0] == &b[0] {
				t.Fatal("the frame's buffer is in the pool twice")
			}
		})
	}
}
