package netstack

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"oasis/internal/netsw"
)

// fuzzFrames is one well-formed frame per protocol Unmarshal accepts, each
// with the offsets at which one of its fields ends.
var fuzzFrames = []struct {
	name   string
	pk     Packet
	fields []int
}{
	{"arp", Packet{
		SrcMAC: netsw.MAC{2, 0, 0, 0, 0, 1}, DstMAC: netsw.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, EtherType: EtherTypeARP,
		ARPOp: ARPRequest, ARPSenderMAC: netsw.MAC{2, 0, 0, 0, 0, 1}, ARPSenderIP: IPv4(10, 0, 0, 1), ARPTargetIP: IPv4(10, 0, 0, 2),
	}, []int{6, 12, 14, 16, 18, 19, 20, 22, 28, 32, 38, 42}},
	{"udp", Packet{
		SrcMAC: netsw.MAC{2, 0, 0, 0, 0, 1}, DstMAC: netsw.MAC{2, 0, 0, 0, 0, 2}, EtherType: EtherTypeIPv4, Proto: ProtoUDP,
		SrcIP: IPv4(10, 0, 99, 1), DstIP: IPv4(10, 0, 0, 10), SrcPort: 40000, DstPort: 7, Payload: []byte("echo"),
	}, []int{6, 12, 14, 15, 16, 18, 20, 22, 23, 24, 26, 30, 34, 36, 38, 40, 42, 46}},
	{"tcp", Packet{
		SrcMAC: netsw.MAC{2, 0, 0, 0, 0, 1}, DstMAC: netsw.MAC{2, 0, 0, 0, 0, 2}, EtherType: EtherTypeIPv4, Proto: ProtoTCP,
		SrcIP: IPv4(10, 0, 99, 1), DstIP: IPv4(10, 0, 0, 10), SrcPort: 40000, DstPort: 80,
		Seq: 1000, Ack: 2000, Flags: FlagACK | FlagPSH, Window: 65535, Payload: []byte("GET /"),
	}, []int{6, 12, 14, 15, 16, 18, 20, 22, 23, 24, 26, 30, 34, 36, 38, 42, 46, 47, 48, 50, 52, 54, 59}},
}

// ipTotalLen is where an IPv4 frame carries its total length.
const ipTotalLen = EthHeaderLen + 2

// withTotalLen returns frame with its IPv4 total-length field set to n.
func withTotalLen(frame []byte, n int) []byte {
	b := bytes.Clone(frame)
	binary.BigEndian.PutUint16(b[ipTotalLen:], uint16(n))
	return b
}

// TestUnmarshalShortTotalLength: an IPv4 total length smaller than the IPv4
// header used to slice rest[20:5] and panic — in an instance's stack process
// or, on a flow-tag miss, in a backend driver. It is a malformed frame.
func TestUnmarshalShortTotalLength(t *testing.T) {
	for _, f := range fuzzFrames[1:] {
		frame := f.pk.Marshal()
		ipLen := len(frame) - EthHeaderLen
		for _, tc := range []struct {
			total int
			ok    bool
		}{{0, false}, {5, false}, {IPv4HeaderLen - 1, false}, {IPv4HeaderLen, false}, {ipLen, true}, {ipLen + 1, false}} {
			pk, err := Unmarshal(withTotalLen(frame, tc.total))
			if (err == nil) != tc.ok {
				t.Errorf("%s frame, total length %d of %d: packet %v, err %v; want accepted = %v", f.name, tc.total, ipLen, pk, err, tc.ok)
			}
		}
	}
}

// FuzzUnmarshal: whatever bytes arrive on the wire — a raw Client.Transmit
// can put anything there — Unmarshal returns a packet or an error, never
// panics, and a packet it returns survives Marshal → Unmarshal unchanged.
// Seeds: each frame whole, cut at every field boundary, and (IPv4) with a
// total length of 0, 19, 20, the true one and one more.
func FuzzUnmarshal(f *testing.F) {
	for _, fr := range fuzzFrames {
		frame := fr.pk.Marshal()
		if last := fr.fields[len(fr.fields)-1]; last != len(frame) {
			f.Fatalf("%s: field table ends at %d, frame at %d", fr.name, last, len(frame))
		}
		f.Add(frame)
		for _, cut := range fr.fields {
			f.Add(frame[:cut])
		}
		if fr.pk.EtherType == EtherTypeIPv4 {
			ipLen := len(frame) - EthHeaderLen
			for _, n := range []int{0, IPv4HeaderLen - 1, IPv4HeaderLen, ipLen, ipLen + 1} {
				f.Add(withTotalLen(frame, n))
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		pk, err := Unmarshal(b)
		if err != nil {
			return
		}
		again, err := Unmarshal(pk.Marshal())
		if err != nil {
			t.Fatalf("Unmarshal accepted %x as %+v but rejects its Marshal: %v", b, pk, err)
		}
		if !reflect.DeepEqual(pk, again) {
			t.Fatalf("Marshal → Unmarshal changed the packet:\n was %+v\n now %+v", pk, again)
		}
	})
}
