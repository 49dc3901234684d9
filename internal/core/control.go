package core

import (
	"encoding/binary"

	"oasis/internal/netstack"
	"oasis/internal/sim"
)

// The shared control plane (§3.5): every device engine's backend reports
// telemetry and link events to the pod-wide allocator, and the allocator
// commands failover, migration, and placement, over the same 15-byte
// message payloads the data planes use. Engines extend the runtime with
// typed data-plane payloads (the network engine's 15 B packet messages, the
// storage engine's 63 B NVMe mirrors) but speak one control protocol, so
// the allocator manages NICs and SSDs — and future device kinds — through a
// single path.

// DeviceKind identifies which engine a control message concerns.
type DeviceKind uint8

const (
	// DeviceNIC is the network engine (§3.3).
	DeviceNIC DeviceKind = 1
	// DeviceSSD is the storage engine (§3.4).
	DeviceSSD DeviceKind = 2
)

// String names the device kind for stats and logs.
func (k DeviceKind) String() string {
	switch k {
	case DeviceNIC:
		return "nic"
	case DeviceSSD:
		return "ssd"
	}
	return "dev"
}

// Control opcodes. They share the opcode byte with each engine's data plane
// (which uses 1..15), so a driver multiplexing data and control on one link
// can dispatch on the opcode alone.
const (
	CtlLinkDown     = 16 // backend -> allocator: device lost link
	CtlTelemetry    = 17 // backend -> allocator: periodic load record (§3.5: 100 ms)
	CtlFailover     = 18 // allocator -> frontend: reroute from failed device to backup
	CtlBorrowMAC    = 19 // allocator -> net backend: impersonate failed NIC's MAC
	CtlMigrate      = 20 // allocator -> frontend: gracefully move instance to device
	CtlLinkUp       = 21 // backend -> allocator: device link restored
	CtlAllocRequest = 22 // frontend -> allocator: pick devices for a new instance
	CtlAssign       = 23 // allocator -> frontend: primary (Dev) + backup (Aux)
)

// ControlMsg is a decoded control-plane message. Dev and Aux are pod-wide
// device ids of Kind's namespace; telemetry carries a 48-bit byte count for
// the last window plus the device's queue depth.
type ControlMsg struct {
	Op   byte
	Kind DeviceKind
	Dev  uint16
	Aux  uint16 // second device id (failover backup, assign backup)
	IP   netstack.IP

	// Epoch fences commands against zombies (§3.3.3's lease analogue for
	// storage): each failover bumps the failed device's epoch, frontends
	// stamp subsequent requests with it, and completions carrying an older
	// epoch are rejected. Zero for commands that predate fencing.
	Epoch uint16

	// Telemetry fields.
	Load   uint64 // bytes served in the last window (40-bit on the wire)
	LinkUp bool
	// AER is the per-kind health metric slot (§3.5 "health metrics"): NIC
	// backends report uncorrectable PCIe AER errors in the window, storage
	// backends their mean request service latency in µs — the scalar each
	// device class is best judged by.
	AER        uint16
	Errs       uint8  // soft error/drop events in the window (rx drops, carrier errors)
	QueueDepth uint16 // device queue occupancy at the window close
}

const maxLoad40 = (1 << 40) - 1

// EncodeControl packs m into a 15-byte channel payload (reusing buf).
//
// Layout after the opcode byte: kind (1), dev (2), then either
// aux (2) + ip (4) + epoch (2) for commands, or load (5) + errs (1) +
// linkup (1) + aer (2) + queue depth (2) for telemetry.
func EncodeControl(buf []byte, m ControlMsg) []byte {
	buf = buf[:0]
	buf = append(buf, m.Op)
	var b [14]byte
	b[0] = byte(m.Kind)
	binary.LittleEndian.PutUint16(b[1:3], m.Dev)
	if m.Op == CtlTelemetry {
		load := m.Load
		if load > maxLoad40 {
			load = maxLoad40
		}
		var l [8]byte
		binary.LittleEndian.PutUint64(l[:], load)
		copy(b[3:8], l[:5])
		b[8] = m.Errs
		if m.LinkUp {
			b[9] = 1
		}
		binary.LittleEndian.PutUint16(b[10:12], m.AER)
		binary.LittleEndian.PutUint16(b[12:14], m.QueueDepth)
	} else {
		binary.LittleEndian.PutUint16(b[3:5], m.Aux)
		binary.LittleEndian.PutUint32(b[5:9], uint32(m.IP))
		binary.LittleEndian.PutUint16(b[9:11], m.Epoch)
	}
	return append(buf, b[:]...)
}

// DecodeControl unpacks a control message from a channel payload.
func DecodeControl(payload []byte) ControlMsg {
	var m ControlMsg
	m.Op = payload[0]
	b := payload[1:]
	m.Kind = DeviceKind(b[0])
	m.Dev = binary.LittleEndian.Uint16(b[1:3])
	if m.Op == CtlTelemetry {
		var l [8]byte
		copy(l[:5], b[3:8])
		m.Load = binary.LittleEndian.Uint64(l[:])
		m.Errs = b[8]
		m.LinkUp = b[9] != 0
		m.AER = binary.LittleEndian.Uint16(b[10:12])
		m.QueueDepth = binary.LittleEndian.Uint16(b[12:14])
	} else {
		m.Aux = binary.LittleEndian.Uint16(b[3:5])
		m.IP = netstack.IP(binary.LittleEndian.Uint32(b[5:9]))
		m.Epoch = binary.LittleEndian.Uint16(b[9:11])
	}
	return m
}

// IsControlOp reports whether an opcode byte belongs to the shared control
// plane rather than an engine's data plane.
func IsControlOp(op byte) bool { return op >= CtlLinkDown && op <= CtlAssign }

// SendControl is the one way a control message goes on the wire: encode it
// into a 15-byte payload, send it on end, and flush the sender line at once —
// control traffic is too sparse to wait for a batch (§3.2.2). It returns
// false, with nothing sent or flushed, when the ring is full; whether that
// is worth a retry is the caller's policy (backend telemetry and link
// reports are best effort — the next window repeats them — while the
// allocator re-queues its commands).
func SendControl(p *sim.Proc, end *LinkEnd, m ControlMsg) bool {
	var buf [15]byte
	if !end.Send(p, EncodeControl(buf[:], m)) {
		return false
	}
	end.Flush(p)
	return true
}
