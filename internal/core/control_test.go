package core

import (
	"testing"

	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/netstack"
	"oasis/internal/sim"
)

func TestControlCodecRoundTrip(t *testing.T) {
	msgs := []ControlMsg{
		{Op: CtlLinkDown, Kind: DeviceNIC, Dev: 3},
		{Op: CtlLinkUp, Kind: DeviceNIC, Dev: 9},
		{Op: CtlTelemetry, Kind: DeviceNIC, Dev: 2, Load: 123456789012, LinkUp: true, AER: 17, Errs: 200, QueueDepth: 31},
		{Op: CtlTelemetry, Kind: DeviceSSD, Dev: 1, Load: 0, LinkUp: false, QueueDepth: 65535},
		{Op: CtlFailover, Kind: DeviceNIC, Dev: 1, Aux: 2},
		{Op: CtlBorrowMAC, Kind: DeviceNIC, Dev: 4},
		{Op: CtlMigrate, Kind: DeviceNIC, IP: netstack.IPv4(10, 1, 2, 3), Dev: 5},
		{Op: CtlAllocRequest, Kind: DeviceNIC, IP: netstack.IPv4(10, 0, 0, 77)},
		{Op: CtlAssign, Kind: DeviceNIC, IP: netstack.IPv4(10, 0, 0, 77), Dev: 2, Aux: 6},
		{Op: CtlLinkDown, Kind: DeviceSSD, Dev: 12},
	}
	var buf [15]byte
	for i, m := range msgs {
		got := DecodeControl(EncodeControl(buf[:], m))
		if got != m {
			t.Fatalf("ctl %d round trip:\n got %+v\nwant %+v", i, got, m)
		}
	}
}

func TestControlPayloadFitsChannelSlot(t *testing.T) {
	// Every control opcode must fit the 15-byte payload of the smallest
	// (16 B) channel slot, so the one protocol works on every engine's link.
	var buf [15]byte
	for op := byte(CtlLinkDown); op <= CtlAssign; op++ {
		m := ControlMsg{
			Op: op, Kind: DeviceSSD, Dev: 65535, Aux: 65535,
			IP: 0xffffffff, Load: 1 << 60, LinkUp: true, AER: 65535, QueueDepth: 65535,
		}
		payload := EncodeControl(buf[:], m)
		if len(payload) != 15 {
			t.Fatalf("opcode %d encodes to %d bytes, want exactly 15", op, len(payload))
		}
		if !IsControlOp(payload[0]) {
			t.Fatalf("opcode %d not recognized as control", op)
		}
	}
}

func TestControlTelemetryLoadClamped(t *testing.T) {
	// Loads beyond 40 bits saturate on the wire rather than wrapping.
	var buf [15]byte
	m := ControlMsg{Op: CtlTelemetry, Kind: DeviceNIC, Dev: 1, Load: 1 << 60}
	got := DecodeControl(EncodeControl(buf[:], m))
	if got.Load != (1<<40)-1 {
		t.Fatalf("load = %d, want clamp to 2^40-1", got.Load)
	}
}

func TestDeviceKindString(t *testing.T) {
	if DeviceNIC.String() != "nic" || DeviceSSD.String() != "ssd" || DeviceKind(9).String() != "dev" {
		t.Fatal("DeviceKind.String mismatch")
	}
}

func TestSendPollControl(t *testing.T) {
	// SendControl puts a message on the wire flushed; a poll stage's pass
	// over a control end delivers control messages decoded, burst-bounded,
	// and drops a data-plane payload uncounted — and delivers nothing,
	// counted or not, while the engine has no control end. A full ring
	// refuses the send and leaves it to the caller.
	eng, pool := testPool()
	hA := host.New(eng, 0, "A", pool, host.DefaultConfig())
	hB := host.New(eng, 1, "B", pool, host.DefaultConfig())
	cfg := msgchan.DefaultConfig()
	cfg.Slots = 4
	aEnd, bEnd, err := NewDuplexLink(pool, hA, hB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("test", func(p *sim.Proc) {
		aEnd.Send(p, append([]byte{3}, make([]byte, 14)...)) // a data-plane opcode
		sent := []ControlMsg{
			{Op: CtlLinkDown, Kind: DeviceNIC, Dev: 3},
			{Op: CtlTelemetry, Kind: DeviceSSD, Dev: 1, Load: 77, LinkUp: true, AER: 120},
			{Op: CtlAssign, Kind: DeviceNIC, IP: netstack.IPv4(10, 0, 0, 1), Dev: 2, Aux: 6},
		}
		for _, m := range sent {
			if !SendControl(p, aEnd, m) {
				t.Fatalf("send %+v refused", m)
			}
		}
		if SendControl(p, aEnd, ControlMsg{Op: CtlLinkUp}) {
			t.Error("send into a full 4-slot ring accepted")
		}
		var got []ControlMsg
		collect := func(_ *sim.Proc, m ControlMsg) { got = append(got, m) }
		var ctrl *LinkEnd
		none := func(*sim.Proc, *Link, []byte) { t.Error("a message on a set with no links") }
		counted := []Stage{PollStage("links", NewLinkSet(0), 3, none).Control(&ctrl, collect, true)}
		discarded := []Stage{PollStage("links", NewLinkSet(0), 3, none).Control(&ctrl, collect, false)}
		if n := runStages(p, counted); n != 0 || len(got) != 0 {
			t.Errorf("a stage without a control end delivered %d (progress %d)", len(got), n)
		}
		ctrl = bEnd
		// Burst 3 polls the data-plane payload and two control messages.
		if n := runStages(p, counted); n != 2 {
			t.Errorf("first burst delivered %d, want 2 (data-plane payload uncounted)", n)
		}
		if n := runStages(p, discarded); n != 0 || len(got) != 3 {
			t.Errorf("second burst: progress %d with %d delivered, want 0 (not counted) with 3", n, len(got))
		}
		for i, m := range sent {
			if i >= len(got) || got[i] != m {
				t.Fatalf("delivered %+v, want %+v", got, sent)
			}
		}
	})
	eng.Run()
}
