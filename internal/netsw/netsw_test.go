package netsw

import (
	"bytes"
	"testing"
	"time"

	"oasis/internal/sim"
)

// collector records a copy of each delivered frame, with its timestamp: a
// sink borrows the frame for the call only.
type collector struct {
	eng    *sim.Engine
	frames []Frame
	times  []sim.Duration
}

func (c *collector) DeliverFrame(f *Frame) {
	c.frames = append(c.frames, Frame{Src: f.Src, Dst: f.Dst, Bytes: bytes.Clone(f.Bytes)})
	c.times = append(c.times, c.eng.Now())
}

func frame(src, dst MAC, n int) *Frame {
	b := make([]byte, n)
	copy(b[0:6], dst[:])
	copy(b[6:12], src[:])
	return &Frame{Src: src, Dst: dst, Bytes: b}
}

var (
	macA = MAC{0xaa, 0, 0, 0, 0, 1}
	macB = MAC{0xbb, 0, 0, 0, 0, 2}
	macC = MAC{0xcc, 0, 0, 0, 0, 3}
)

func rig() (*sim.Engine, *Switch, []*collector, []*Port) {
	eng := sim.New()
	sw := New(eng, DefaultParams())
	var cols []*collector
	var ports []*Port
	for _, name := range []string{"a", "b", "c"} {
		c := &collector{eng: eng}
		cols = append(cols, c)
		ports = append(ports, sw.AttachPort(name, c))
	}
	return eng, sw, cols, ports
}

func TestUnknownDestinationFloods(t *testing.T) {
	eng, sw, cols, ports := rig()
	eng.At(0, func() { ports[0].Send(frame(macA, macB, 100)) })
	eng.Run()
	// macB unknown: flooded to b and c, not back to a.
	if len(cols[0].frames) != 0 || len(cols[1].frames) != 1 || len(cols[2].frames) != 1 {
		t.Fatalf("deliveries = %d/%d/%d, want 0/1/1",
			len(cols[0].frames), len(cols[1].frames), len(cols[2].frames))
	}
	if sw.Flooded != 1 {
		t.Fatalf("flooded = %d", sw.Flooded)
	}
}

func TestMACLearningDirectsTraffic(t *testing.T) {
	eng, sw, cols, ports := rig()
	eng.At(0, func() { ports[1].Send(frame(macB, Broadcast, 100)) }) // teach the switch macB -> port b
	eng.At(time.Millisecond, func() { ports[0].Send(frame(macA, macB, 100)) })
	eng.Run()
	if sw.LookupMAC(macB) != ports[1] {
		t.Fatal("switch did not learn macB")
	}
	// Second frame must be unicast to b only (c got only the broadcast).
	if len(cols[1].frames) != 1 || len(cols[2].frames) != 1 {
		t.Fatalf("deliveries b=%d c=%d, want 1/1", len(cols[1].frames), len(cols[2].frames))
	}
	if sw.Forwarded != 1 {
		t.Fatalf("forwarded = %d", sw.Forwarded)
	}
}

func TestMACRelearningOnNewPort(t *testing.T) {
	// The failover mechanism (§3.3.3): a frame with macB as source arriving
	// on port c immediately remaps macB.
	eng, sw, cols, ports := rig()
	eng.At(0, func() { ports[1].Send(frame(macB, Broadcast, 100)) })
	eng.At(time.Millisecond, func() { ports[2].Send(frame(macB, Broadcast, 100)) }) // borrow
	eng.At(2*time.Millisecond, func() { ports[0].Send(frame(macA, macB, 100)) })
	eng.Run()
	if sw.LookupMAC(macB) != ports[2] {
		t.Fatal("MAC borrowing did not remap the table")
	}
	// The directed frame goes to port c (2 broadcasts + 1 unicast there).
	if got := len(cols[2].frames); got != 2 {
		t.Fatalf("port c deliveries = %d, want 2 (one broadcast + one redirected unicast)", got)
	}
}

func TestDisabledPortDropsBothDirections(t *testing.T) {
	eng, sw, cols, ports := rig()
	eng.At(0, func() { ports[1].Send(frame(macB, Broadcast, 100)) })
	eng.At(time.Millisecond, func() { ports[1].SetEnabled(false) })
	eng.At(2*time.Millisecond, func() { ports[0].Send(frame(macA, macB, 100)) })     // to disabled
	eng.At(3*time.Millisecond, func() { ports[1].Send(frame(macB, Broadcast, 64)) }) // from disabled
	eng.Run()
	if len(cols[1].frames) != 0 {
		t.Fatal("disabled port received a frame")
	}
	if sw.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", sw.Dropped)
	}
}

func TestLinkChangeCallback(t *testing.T) {
	eng, _, _, ports := rig()
	var events []bool
	ports[0].OnLinkChange(func(up bool) { events = append(events, up) })
	eng.At(0, func() {
		ports[0].SetEnabled(false)
		ports[0].SetEnabled(false) // no duplicate event
		ports[0].SetEnabled(true)
	})
	eng.Run()
	if len(events) != 2 || events[0] != false || events[1] != true {
		t.Fatalf("link events = %v, want [false true]", events)
	}
}

func TestStoreAndForwardLatency(t *testing.T) {
	eng, _, cols, ports := rig()
	eng.At(0, func() { ports[1].Send(frame(macB, Broadcast, 64)) })
	eng.At(time.Millisecond, func() { ports[0].Send(frame(macA, macB, 1500)) })
	eng.Run()
	if len(cols[1].times) != 1 {
		t.Fatal("frame not delivered")
	}
	elapsed := cols[1].times[0] - time.Millisecond
	// 1500 B at 12.5 GB/s = 120 ns per hop, two hops, + 600 ns processing
	// + 2×50 ns propagation = ~940 ns.
	if elapsed < 800*time.Nanosecond || elapsed > 1200*time.Nanosecond {
		t.Fatalf("switch transit = %v, want ~940ns", elapsed)
	}
}

func TestMinimumFrameSizePadding(t *testing.T) {
	f := frame(macA, macB, 20)
	if f.WireLen() != 64 {
		t.Fatalf("WireLen = %d, want 64 (Ethernet minimum)", f.WireLen())
	}
	f = frame(macA, macB, 1500)
	if f.WireLen() != 1500 {
		t.Fatalf("WireLen = %d", f.WireLen())
	}
}

func TestSerializationQueuesBackToBack(t *testing.T) {
	// Two 1500 B frames sent simultaneously must serialize on the sender's
	// cable: deliveries ~120 ns apart.
	eng, _, cols, ports := rig()
	eng.At(0, func() { ports[1].Send(frame(macB, Broadcast, 64)) })
	eng.At(time.Millisecond, func() {
		ports[0].Send(frame(macA, macB, 1500))
		ports[0].Send(frame(macA, macB, 1500))
	})
	eng.Run()
	if len(cols[1].times) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(cols[1].times))
	}
	gap := cols[1].times[1] - cols[1].times[0]
	if gap < 100*time.Nanosecond || gap > 150*time.Nanosecond {
		t.Fatalf("inter-frame gap = %v, want ~120ns line-rate spacing", gap)
	}
}
