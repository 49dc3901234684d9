package storengine

import (
	"math"
	"testing"

	"oasis/internal/core"
	"oasis/internal/netstack"
)

// FuzzDataCodec checks the data-plane codec, the bytes a peer host writes
// into the pool for a storage frontend or backend to read: decoding any
// payload of the channel's payload size (63 B at the default 64 B slot)
// never panics, its message encodes back into that size, and the decoded
// message is a fixpoint of sdecode∘encode — whatever a peer writes, both ends
// agree on what it means.
//
// Run the stored corpus as a regression test with ordinary `go test`; run
// `go test -fuzz=FuzzDataCodec ./internal/storengine` to explore.
func FuzzDataCodec(f *testing.F) {
	size := chanConfig.MsgSize - 1
	// Every opcode, a zero and an unused one, the first control opcode and
	// all bits set; each with every count, status, epoch and LBA field at 0,
	// 1 and its max, and the buffer address at -1.
	ops := []byte{0, sOpRead, sOpWrite, sOpComplete, sOpRegister, sOpRegisterAck, 8, core.CtlLinkDown, 0xFF}
	for _, op := range ops {
		for _, e := range []uint64{0, 1, math.MaxUint64} {
			m := smsg{
				op: op, cid: uint16(e), lba: e, blocks: uint16(e), buf: -1,
				ip: netstack.IPv4(10, 0, 0, 1), status: uint8(e), base: e, size: e, epoch: uint16(e),
			}
			f.Add(m.encode(make([]byte, size)))
		}
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Any payload: pad or cut to the size a channel slot delivers.
		payload := make([]byte, size)
		copy(payload, raw)
		m := sdecode(payload)
		enc := m.encode(make([]byte, size))
		if len(enc) > size {
			t.Fatalf("%+v encodes to %d bytes, more than the %d B payload", m, len(enc), size)
		}
		if again := sdecode(enc); again != m {
			t.Fatalf("decoded payload is not a fixpoint:\npayload % x\n first %+v\nsecond %+v", payload, m, again)
		}
	})
}
