package core

import (
	"bytes"
	"testing"

	"oasis/internal/netstack"
)

// FuzzControlCodec checks the control codec, the one door every control
// message goes through (SendControl / PollControl):
//
//   - decoding any 15-byte payload never panics, and the decoded message is a
//     fixpoint of decode∘encode — whatever bytes a peer puts on a control
//     link, the allocator and the engines agree on what they mean;
//   - for any ControlMsg, decode∘encode is the identity on the fields its
//     opcode carries (telemetry: load clamped to 40 bits, errs, link, the
//     health slot, queue depth; everything else: aux, ip, epoch);
//   - a data-plane opcode (1..15) is never mistaken for control.
//
// Run the stored corpus as a regression test with ordinary `go test`; run
// `go test -fuzz=FuzzControlCodec ./internal/core` to explore.
func FuzzControlCodec(f *testing.F) {
	add := func(raw []byte, m ControlMsg) {
		f.Add(raw, m.Op, uint8(m.Kind), m.Dev, m.Aux, uint32(m.IP), m.Epoch, m.Load, m.LinkUp, m.AER, m.Errs, m.QueueDepth)
	}
	ip := netstack.IPv4(10, 0, 0, 77)
	var buf [15]byte
	// One message per control opcode, 16..23.
	for _, m := range []ControlMsg{
		{Op: CtlLinkDown, Kind: DeviceNIC, Dev: 3},
		{Op: CtlTelemetry, Kind: DeviceSSD, Dev: 1, Load: 123456789012, LinkUp: true, AER: 2500, Errs: 200, QueueDepth: 31},
		{Op: CtlFailover, Kind: DeviceSSD, Dev: 1, Aux: 3, Epoch: 7},
		{Op: CtlBorrowMAC, Kind: DeviceNIC, Dev: 4},
		{Op: CtlMigrate, Kind: DeviceNIC, IP: ip, Dev: 5},
		{Op: CtlLinkUp, Kind: DeviceNIC, Dev: 9},
		{Op: CtlAllocRequest, Kind: DeviceNIC, IP: ip},
		{Op: CtlAssign, Kind: DeviceNIC, IP: ip, Dev: 2, Aux: 6},
	} {
		add(bytes.Clone(EncodeControl(buf[:], m)), m)
	}
	// Near-misses: the load clamp boundary from both sides, every bit set
	// (opcode 255, LinkUp byte 0xFF), a data-plane opcode on a control link,
	// a zero opcode, and a telemetry record whose LinkUp byte is 2, not 1.
	add(bytes.Repeat([]byte{0xFF}, 15), ControlMsg{Op: CtlTelemetry, Load: 1 << 40})
	add(make([]byte, 15), ControlMsg{Op: CtlTelemetry, Load: 1<<40 - 1})
	add(append([]byte{3}, make([]byte, 14)...), ControlMsg{Op: 3, Kind: DeviceNIC, Dev: 1, Aux: 65535, Epoch: 65535, Load: 5, LinkUp: true})
	add([]byte{CtlTelemetry, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0}, ControlMsg{Op: CtlAssign + 1, Kind: 9, IP: 0xFFFFFFFF})

	f.Fuzz(func(t *testing.T, raw []byte, op, kind uint8, dev, aux uint16, ip uint32, epoch uint16,
		load uint64, linkUp bool, aer uint16, errs uint8, qdepth uint16) {
		var buf, buf2 [15]byte

		// Any payload: pad or cut to the 15 bytes a channel slot delivers.
		copy(buf[:], raw)
		if dataPlane := buf[0] >= 1 && buf[0] <= 15; dataPlane && IsControlOp(buf[0]) {
			t.Fatalf("data-plane opcode %d classified as control", buf[0])
		}
		m := DecodeControl(buf[:])
		if again := DecodeControl(EncodeControl(buf2[:], m)); again != m {
			t.Fatalf("decoded payload is not a fixpoint:\npayload % x\n first %+v\nsecond %+v", buf, m, again)
		}

		// Any message: the fields the opcode carries survive the wire.
		in := ControlMsg{
			Op: op, Kind: DeviceKind(kind), Dev: dev, Aux: aux, IP: netstack.IP(ip), Epoch: epoch,
			Load: load, LinkUp: linkUp, AER: aer, Errs: errs, QueueDepth: qdepth,
		}
		want := ControlMsg{Op: op, Kind: DeviceKind(kind), Dev: dev}
		if op == CtlTelemetry {
			want.Load, want.LinkUp, want.AER, want.Errs, want.QueueDepth = min(load, maxLoad40), linkUp, aer, errs, qdepth
		} else {
			want.Aux, want.IP, want.Epoch = aux, netstack.IP(ip), epoch
		}
		payload := EncodeControl(buf2[:], in)
		if len(payload) != 15 {
			t.Fatalf("%+v encodes to %d bytes, want 15", in, len(payload))
		}
		if got := DecodeControl(payload); got != want {
			t.Fatalf("round trip of %+v:\n got %+v\nwant %+v", in, got, want)
		}
	})
}
