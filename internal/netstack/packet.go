// Package netstack implements the user-level network stack container
// instances run on (§4): Ethernet framing, ARP (including the gratuitous
// ARP used for graceful migration, §3.3.4), IPv4, UDP, and a compact TCP
// with retransmission — enough to reproduce the paper's echo, web-app,
// memcached, and failover experiments with real bytes on the simulated
// wire.
//
// Checksums are omitted (the simulated fabric does not corrupt frames);
// header sizes and offsets match real Ethernet/IPv4 so that wire byte
// counts — and therefore bandwidth results — are faithful.
package netstack

import (
	"encoding/binary"
	"fmt"

	"oasis/internal/netsw"
)

// IP is an IPv4 address.
type IP uint32

// IPv4 builds an address from dotted-quad parts.
func IPv4(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// EtherTypes and protocol numbers (real values).
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806

	ProtoTCP = 6
	ProtoUDP = 17

	// ARP opcodes.
	ARPRequest = 1
	ARPReply   = 2
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// Header sizes.
const (
	EthHeaderLen  = 14
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20
	ARPBodyLen    = 28

	// MTU is the Ethernet payload limit; MaxUDPPayload is what fits in one
	// unfragmented datagram frame (the stack does not fragment).
	MTU           = 1500
	MaxUDPPayload = MTU - IPv4HeaderLen - UDPHeaderLen // 1472
	// MSS is the TCP payload per segment.
	MSS = MTU - IPv4HeaderLen - TCPHeaderLen // 1460
)

// Packet is the parsed form of a frame. Exactly one of the ARP or IPv4
// field groups is meaningful, selected by EtherType.
type Packet struct {
	SrcMAC, DstMAC netsw.MAC
	EtherType      uint16

	// ARP fields.
	ARPOp        uint16
	ARPSenderMAC netsw.MAC
	ARPSenderIP  IP
	ARPTargetMAC netsw.MAC
	ARPTargetIP  IP

	// IPv4 fields.
	SrcIP, DstIP IP
	Proto        byte

	// Transport fields (UDP and TCP).
	SrcPort, DstPort uint16

	// TCP fields.
	Seq, Ack uint32
	Flags    byte
	Window   uint16

	Payload []byte
}

// WireLen returns the marshalled frame size.
func (pk *Packet) WireLen() int {
	switch pk.EtherType {
	case EtherTypeARP:
		return EthHeaderLen + ARPBodyLen
	case EtherTypeIPv4:
		var thl int
		switch pk.Proto {
		case ProtoUDP:
			thl = UDPHeaderLen
		case ProtoTCP:
			thl = TCPHeaderLen
		default:
			panic(fmt.Sprintf("netstack: cannot marshal IPv4 proto %d", pk.Proto))
		}
		return EthHeaderLen + IPv4HeaderLen + thl + len(pk.Payload)
	default:
		panic(fmt.Sprintf("netstack: cannot marshal ethertype %#x", pk.EtherType))
	}
}

// Marshal renders the packet to wire bytes.
func (pk *Packet) Marshal() []byte {
	b := make([]byte, pk.WireLen())
	pk.MarshalTo(b)
	return b
}

// MarshalTo renders the packet into b, which must be exactly WireLen() long.
// Every byte of b is written, so recycled buffers marshal identically to
// fresh ones.
func (pk *Packet) MarshalTo(b []byte) {
	if len(b) != pk.WireLen() {
		panic("netstack: MarshalTo buffer length mismatch")
	}
	switch pk.EtherType {
	case EtherTypeARP:
		pk.marshalEth(b)
		a := b[EthHeaderLen:]
		binary.BigEndian.PutUint16(a[0:2], 1)      // htype: Ethernet
		binary.BigEndian.PutUint16(a[2:4], 0x0800) // ptype: IPv4
		a[4], a[5] = 6, 4
		binary.BigEndian.PutUint16(a[6:8], pk.ARPOp)
		copy(a[8:14], pk.ARPSenderMAC[:])
		binary.BigEndian.PutUint32(a[14:18], uint32(pk.ARPSenderIP))
		copy(a[18:24], pk.ARPTargetMAC[:])
		binary.BigEndian.PutUint32(a[24:28], uint32(pk.ARPTargetIP))
	case EtherTypeIPv4:
		var thl int
		switch pk.Proto {
		case ProtoUDP:
			thl = UDPHeaderLen
		case ProtoTCP:
			thl = TCPHeaderLen
		default:
			panic(fmt.Sprintf("netstack: cannot marshal IPv4 proto %d", pk.Proto))
		}
		pk.marshalEth(b)
		ip := b[EthHeaderLen:]
		ip[0] = 0x45 // version 4, IHL 5
		ip[1] = 0    // TOS
		binary.BigEndian.PutUint16(ip[2:4], uint16(IPv4HeaderLen+thl+len(pk.Payload)))
		ip[4], ip[5], ip[6], ip[7] = 0, 0, 0, 0 // ID, flags/fragment
		ip[8] = 64                              // TTL
		ip[9] = pk.Proto
		ip[10], ip[11] = 0, 0 // header checksum (unused)
		binary.BigEndian.PutUint32(ip[12:16], uint32(pk.SrcIP))
		binary.BigEndian.PutUint32(ip[16:20], uint32(pk.DstIP))
		tp := ip[IPv4HeaderLen:]
		binary.BigEndian.PutUint16(tp[0:2], pk.SrcPort)
		binary.BigEndian.PutUint16(tp[2:4], pk.DstPort)
		switch pk.Proto {
		case ProtoUDP:
			binary.BigEndian.PutUint16(tp[4:6], uint16(UDPHeaderLen+len(pk.Payload)))
			tp[6], tp[7] = 0, 0 // checksum (unused)
			copy(tp[UDPHeaderLen:], pk.Payload)
		case ProtoTCP:
			binary.BigEndian.PutUint32(tp[4:8], pk.Seq)
			binary.BigEndian.PutUint32(tp[8:12], pk.Ack)
			tp[12] = 0x50 // data offset 5 words
			tp[13] = pk.Flags
			binary.BigEndian.PutUint16(tp[14:16], pk.Window)
			tp[16], tp[17], tp[18], tp[19] = 0, 0, 0, 0 // checksum, urgent (unused)
			copy(tp[TCPHeaderLen:], pk.Payload)
		}
	default:
		panic(fmt.Sprintf("netstack: cannot marshal ethertype %#x", pk.EtherType))
	}
}

func (pk *Packet) marshalEth(b []byte) {
	copy(b[0:6], pk.DstMAC[:])
	copy(b[6:12], pk.SrcMAC[:])
	binary.BigEndian.PutUint16(b[12:14], pk.EtherType)
}

// Unmarshal parses wire bytes. The returned packet's Payload aliases b.
func Unmarshal(b []byte) (*Packet, error) {
	if len(b) < EthHeaderLen {
		return nil, fmt.Errorf("netstack: frame too short (%d bytes)", len(b))
	}
	var pk Packet
	copy(pk.DstMAC[:], b[0:6])
	copy(pk.SrcMAC[:], b[6:12])
	pk.EtherType = binary.BigEndian.Uint16(b[12:14])
	rest := b[EthHeaderLen:]
	switch pk.EtherType {
	case EtherTypeARP:
		if len(rest) < ARPBodyLen {
			return nil, fmt.Errorf("netstack: truncated ARP")
		}
		pk.ARPOp = binary.BigEndian.Uint16(rest[6:8])
		copy(pk.ARPSenderMAC[:], rest[8:14])
		pk.ARPSenderIP = IP(binary.BigEndian.Uint32(rest[14:18]))
		copy(pk.ARPTargetMAC[:], rest[18:24])
		pk.ARPTargetIP = IP(binary.BigEndian.Uint32(rest[24:28]))
		return &pk, nil
	case EtherTypeIPv4:
		if len(rest) < IPv4HeaderLen {
			return nil, fmt.Errorf("netstack: truncated IPv4 header")
		}
		pk.Proto = rest[9]
		pk.SrcIP = IP(binary.BigEndian.Uint32(rest[12:16]))
		pk.DstIP = IP(binary.BigEndian.Uint32(rest[16:20]))
		totalLen := int(binary.BigEndian.Uint16(rest[2:4]))
		if totalLen < IPv4HeaderLen || totalLen > len(rest) {
			return nil, fmt.Errorf("netstack: IPv4 total length %d outside [%d, %d], the header and the frame", totalLen, IPv4HeaderLen, len(rest))
		}
		tp := rest[IPv4HeaderLen:totalLen]
		switch pk.Proto {
		case ProtoUDP:
			if len(tp) < UDPHeaderLen {
				return nil, fmt.Errorf("netstack: truncated UDP header")
			}
			pk.SrcPort = binary.BigEndian.Uint16(tp[0:2])
			pk.DstPort = binary.BigEndian.Uint16(tp[2:4])
			pk.Payload = tp[UDPHeaderLen:]
		case ProtoTCP:
			if len(tp) < TCPHeaderLen {
				return nil, fmt.Errorf("netstack: truncated TCP header")
			}
			pk.SrcPort = binary.BigEndian.Uint16(tp[0:2])
			pk.DstPort = binary.BigEndian.Uint16(tp[2:4])
			pk.Seq = binary.BigEndian.Uint32(tp[4:8])
			pk.Ack = binary.BigEndian.Uint32(tp[8:12])
			pk.Flags = tp[13]
			pk.Window = binary.BigEndian.Uint16(tp[14:16])
			pk.Payload = tp[TCPHeaderLen:]
		default:
			return nil, fmt.Errorf("netstack: unsupported IPv4 proto %d", pk.Proto)
		}
		return &pk, nil
	default:
		return nil, fmt.Errorf("netstack: unsupported ethertype %#x", pk.EtherType)
	}
}

// FlowKey extracts the destination IPv4 address from a frame for NIC flow
// tagging (§3.3.1). It reports ok=false for non-IPv4 frames, which then take
// the backend's payload-inspection fallback path.
func FlowKey(frame []byte) (uint32, bool) {
	if len(frame) < EthHeaderLen+IPv4HeaderLen {
		return 0, false
	}
	if binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(frame[30:34]), true
}

// DstIPOf returns the instance-identifying IP a backend extracts when it
// must inspect a payload (flow-tag miss): the IPv4 destination, or the ARP
// target IP.
func DstIPOf(pk *Packet) (IP, bool) {
	switch pk.EtherType {
	case EtherTypeIPv4:
		return pk.DstIP, true
	case EtherTypeARP:
		return pk.ARPTargetIP, true
	}
	return 0, false
}
