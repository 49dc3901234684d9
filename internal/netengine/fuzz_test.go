package netengine

import (
	"math"
	"testing"

	"oasis/internal/core"
	"oasis/internal/netstack"
)

// FuzzDataCodec checks the data-plane codec, the bytes a peer host writes
// into the pool for a frontend or backend to read: decoding any payload of
// the channel's payload size (15 B after a 16 B slot's epoch byte) never
// panics, its message encodes back into that size, and the decoded message
// is a fixpoint of decode∘encode — whatever a peer writes, both ends agree on
// what it means.
//
// Run the stored corpus as a regression test with ordinary `go test`; run
// `go test -fuzz=FuzzDataCodec ./internal/netengine` to explore.
func FuzzDataCodec(f *testing.F) {
	size := DefaultConfig().Chan.MsgSize - 1
	// Every opcode, a zero and an unused one, the first control opcode and
	// all bits set; each with the packet size (or, for the registration
	// opcodes, the NIC id) at 0, 1 and its max, the buffer address at -1 and
	// an all-ones IP.
	ops := []byte{0, opTxPacket, opTxComplete, opRxPacket, opRxComplete, opRegister, opRegisterAck, opUnregister, 8, core.CtlLinkDown, 0xFF}
	for _, op := range ops {
		for _, edge := range []uint16{0, 1, math.MaxUint16} {
			seed := msg{op: opTxPacket, addr: -1, size: edge, ip: netstack.IP(math.MaxUint32)}.encode(make([]byte, size))
			seed[0] = op
			f.Add(seed)
			if op == opRegister || op == opRegisterAck || op == opUnregister {
				f.Add(msg{op: op, ip: netstack.IPv4(10, 0, 0, 1), nic: edge}.encode(make([]byte, size)))
			}
		}
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Any payload: pad or cut to the size a channel slot delivers.
		payload := make([]byte, size)
		copy(payload, raw)
		m := decode(payload)
		enc := m.encode(make([]byte, size))
		if len(enc) > size {
			t.Fatalf("%+v encodes to %d bytes, more than the %d B payload", m, len(enc), size)
		}
		if again := decode(enc); again != m {
			t.Fatalf("decoded payload is not a fixpoint:\npayload % x\n first %+v\nsecond %+v", payload, m, again)
		}
	})
}
