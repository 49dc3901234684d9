package netstack

import (
	"fmt"
	"time"

	"oasis/internal/netsw"
	"oasis/internal/sim"
)

// TCP-lite: connection setup, in-order byte-stream delivery with a reorder
// buffer, cumulative ACKs, a fixed-base exponential-backoff retransmission
// timer, and FIN/RST teardown. Congestion control and adaptive RTT
// estimation are intentionally omitted — the paper's TCP result (Fig. 14)
// depends on loss recovery inflating post-failover latency, which the RTO
// machinery reproduces; it does not depend on cwnd dynamics at these RTTs.

type tcpState int

const (
	stateSynSent tcpState = iota
	stateSynReceived
	stateEstablished
	stateClosed
)

// TCPListener accepts inbound connections on a port.
type TCPListener struct {
	stack   *Stack
	port    uint16
	acceptQ *sim.Queue[*TCPConn]
}

// ListenTCP binds a listening socket.
func (s *Stack) ListenTCP(port uint16) (*TCPListener, error) {
	if port == 0 {
		port = s.allocPort()
	}
	if _, exists := s.listeners[port]; exists {
		return nil, fmt.Errorf("netstack %s: TCP port %d in use", s.name, port)
	}
	l := &TCPListener{stack: s, port: port, acceptQ: sim.NewQueue[*TCPConn](s.eng)}
	s.listeners[port] = l
	return l, nil
}

// Accept blocks until a connection completes its handshake.
func (l *TCPListener) Accept(p *sim.Proc) *TCPConn { return l.acceptQ.Pop(p) }

// Close unbinds the listener.
func (l *TCPListener) Close() { delete(l.stack.listeners, l.port) }

type tcpSegment struct {
	seq  uint32
	data []byte
}

// TCPConn is one connection endpoint.
type TCPConn struct {
	stack      *Stack
	localPort  uint16
	remoteIP   IP
	remotePort uint16
	remoteMAC  netsw.MAC // next hop, refreshed from every received segment
	state      tcpState
	listener   *TCPListener // set on passively-opened connections

	// Send side.
	sndNxt, sndUna uint32
	unacked        []tcpSegment
	inflight       int
	sendWait       *sim.Signal
	rto            sim.Duration
	rtxDeadline    sim.Duration
	timerGen       int
	dupAcks        int
	established    *sim.Signal

	// Receive side.
	rcvNxt  uint32
	reorder map[uint32][]byte
	recvQ   *sim.Queue[[]byte] // in-order chunks; nil chunk = EOF
	readBuf []byte

	// Stats.
	Retransmits     int64
	FastRetransmits int64
	closed          bool
}

func (s *Stack) newConn(localPort uint16, rip IP, rport uint16, mac netsw.MAC, st tcpState) *TCPConn {
	c := &TCPConn{
		stack:       s,
		localPort:   localPort,
		remoteIP:    rip,
		remotePort:  rport,
		remoteMAC:   mac,
		state:       st,
		rto:         rtoInitial,
		sendWait:    sim.NewSignal(s.eng),
		established: sim.NewSignal(s.eng),
		reorder:     make(map[uint32][]byte),
		recvQ:       sim.NewQueue[[]byte](s.eng),
	}
	s.conns[fourTuple{localPort, rip, rport}] = c
	return c
}

// DialTCP opens a connection, blocking the calling process through the
// handshake (SYN retransmission included).
func (s *Stack) DialTCP(p *sim.Proc, dst IP, dstPort uint16) (*TCPConn, error) {
	mac, err := s.Resolve(p, dst)
	if err != nil {
		return nil, err
	}
	c := s.newConn(s.allocPort(), dst, dstPort, mac, stateSynSent)
	// Deterministic ISNs keep simulations reproducible.
	c.sndNxt = 1000
	c.sndUna = 1000
	c.sendFlags(FlagSYN, nil)
	c.sndNxt++ // SYN consumes a sequence number
	for try := 0; try < 8 && c.state != stateEstablished; try++ {
		c.established.WaitTimeout(p, c.rto)
		if c.state == stateEstablished {
			break
		}
		if c.closed {
			break
		}
		c.sendSegmentAt(c.sndNxt-1, nil, FlagSYN)
		c.Retransmits++
	}
	if c.state != stateEstablished {
		c.teardown()
		return nil, fmt.Errorf("netstack %s: connect to %v:%d timed out", s.name, dst, dstPort)
	}
	return c, nil
}

// handleTCP dispatches a TCP segment on the stack process.
func (s *Stack) handleTCP(pk *Packet) {
	t := fourTuple{pk.DstPort, pk.SrcIP, pk.SrcPort}
	if c, ok := s.conns[t]; ok {
		c.remoteMAC = pk.SrcMAC
		c.handleSegment(pk)
		return
	}
	if pk.Flags&FlagSYN != 0 && pk.Flags&FlagACK == 0 {
		if l, ok := s.listeners[pk.DstPort]; ok {
			c := s.newConn(pk.DstPort, pk.SrcIP, pk.SrcPort, pk.SrcMAC, stateSynReceived)
			c.listener = l
			c.rcvNxt = pk.Seq + 1
			c.sndNxt = 2000
			c.sndUna = 2000
			c.sendFlags(FlagSYN|FlagACK, nil)
			c.sndNxt++
			return
		}
	}
	if pk.Flags&FlagRST == 0 {
		// No socket: refuse.
		s.transmit(&Packet{
			SrcMAC: s.macFn(), DstMAC: pk.SrcMAC, EtherType: EtherTypeIPv4,
			SrcIP: s.ip, DstIP: pk.SrcIP, Proto: ProtoTCP,
			SrcPort: pk.DstPort, DstPort: pk.SrcPort,
			Seq: pk.Ack, Flags: FlagRST,
		})
	}
	s.RxNoSocket++
}

func (c *TCPConn) handleSegment(pk *Packet) {
	if pk.Flags&FlagRST != 0 {
		c.teardown()
		return
	}
	switch c.state {
	case stateSynSent:
		if pk.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK && pk.Ack == c.sndNxt {
			c.rcvNxt = pk.Seq + 1
			c.sndUna = pk.Ack
			c.state = stateEstablished
			c.sendAck()
			c.established.Broadcast()
		}
	case stateSynReceived:
		if pk.Flags&FlagACK != 0 && pk.Ack == c.sndNxt {
			c.state = stateEstablished
			c.sndUna = pk.Ack
			if c.listener != nil {
				c.listener.acceptQ.Push(c)
			}
		}
		// Fall through to data handling: the ACK may carry data.
		if c.state == stateEstablished && len(pk.Payload) > 0 {
			c.handleData(pk)
		}
	case stateEstablished:
		if pk.Flags&FlagACK != 0 {
			c.handleAck(pk.Ack)
		}
		if len(pk.Payload) > 0 {
			c.handleData(pk)
		}
		if pk.Flags&FlagFIN != 0 && pk.Seq == c.rcvNxt {
			c.rcvNxt++
			c.sendAck()
			c.recvQ.Push(nil) // EOF
			c.state = stateClosed
		}
	case stateClosed:
		// Late segment: re-ACK so the peer can make progress tearing down.
		if len(pk.Payload) > 0 {
			c.sendAck()
		}
	}
}

// seqLEQ compares sequence numbers modulo 2^32.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

func (c *TCPConn) handleAck(ack uint32) {
	if !seqLEQ(ack, c.sndNxt) || !seqLEQ(c.sndUna, ack) {
		return // out of window
	}
	if ack == c.sndUna {
		// Duplicate ACK: the receiver is missing the segment at sndUna but
		// still getting later data. Three in a row trigger fast retransmit
		// (RFC 5681 §3.2) — without it, every gap costs a full RTO and the
		// paper's ~133 ms TCP failover recovery (Fig. 14) would be seconds.
		if len(c.unacked) > 0 {
			c.dupAcks++
			if c.dupAcks >= 3 {
				c.dupAcks = 0
				seg := c.unacked[0]
				c.sendSegmentAt(seg.seq, seg.data, FlagACK|FlagPSH)
				c.Retransmits++
				c.FastRetransmits++
				c.armTimer()
			}
		}
		return
	}
	c.dupAcks = 0
	c.sndUna = ack
	kept := c.unacked[:0]
	for _, seg := range c.unacked {
		if seqLEQ(seg.seq+uint32(len(seg.data)), ack) {
			c.inflight -= len(seg.data)
			// Fully acknowledged: the copy in Send was the last reference
			// (retransmits marshal their own copy of the bytes).
			c.stack.eng.Bufs().Put(seg.data)
			continue
		}
		kept = append(kept, seg)
	}
	c.unacked = kept
	c.sendWait.Broadcast()
	c.rto = rtoInitial // fresh progress resets backoff
	if len(c.unacked) == 0 {
		c.timerGen++ // disarm
	} else {
		c.armTimer()
	}
}

func (c *TCPConn) handleData(pk *Packet) {
	if seqLEQ(pk.Seq+uint32(len(pk.Payload)), c.rcvNxt) {
		c.sendAck() // fully old: re-ACK
		return
	}
	if pk.Seq != c.rcvNxt {
		if !seqLEQ(pk.Seq, c.rcvNxt) {
			data := c.stack.eng.Bufs().Get(len(pk.Payload))
			copy(data, pk.Payload)
			c.reorder[pk.Seq] = data
		}
		c.sendAck() // duplicate ACK signals the gap
		return
	}
	data := c.stack.eng.Bufs().Get(len(pk.Payload))
	copy(data, pk.Payload)
	c.deliver(data)
	for {
		next, ok := c.reorder[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.reorder, c.rcvNxt)
		c.deliver(next)
	}
	c.sendAck()
}

func (c *TCPConn) deliver(data []byte) {
	c.rcvNxt += uint32(len(data))
	c.recvQ.Push(data)
}

// Send writes data to the stream, blocking while the window is full. Must
// be called from an application process.
func (c *TCPConn) Send(p *sim.Proc, data []byte) error {
	for len(data) > 0 {
		if c.state != stateEstablished {
			return fmt.Errorf("netstack: send on closed connection")
		}
		for c.inflight >= tcpWindow {
			c.sendWait.Wait(p)
			if c.state != stateEstablished {
				return fmt.Errorf("netstack: connection closed while sending")
			}
		}
		n := len(data)
		if n > MSS {
			n = MSS
		}
		chunk := c.stack.eng.Bufs().Get(n)
		copy(chunk, data[:n])
		seg := tcpSegment{seq: c.sndNxt, data: chunk}
		c.unacked = append(c.unacked, seg)
		c.inflight += n
		c.sendSegmentAt(seg.seq, seg.data, FlagACK|FlagPSH)
		c.sndNxt += uint32(n)
		c.armTimer()
		data = data[n:]
		p.Sleep(100 * time.Nanosecond) // per-segment submit cost
	}
	return nil
}

// Recv returns the next in-order chunk (nil means EOF), blocking until data
// arrives.
func (c *TCPConn) Recv(p *sim.Proc) []byte { return c.recvQ.Pop(p) }

// Read returns exactly n bytes from the stream, buffering chunk remainders.
// It returns an error on EOF.
func (c *TCPConn) Read(p *sim.Proc, n int) ([]byte, error) {
	for len(c.readBuf) < n {
		chunk := c.recvQ.Pop(p)
		if chunk == nil {
			return nil, fmt.Errorf("netstack: connection closed mid-read")
		}
		c.readBuf = append(c.readBuf, chunk...)
		c.stack.eng.Bufs().Put(chunk)
	}
	out := c.readBuf[:n:n]
	c.readBuf = c.readBuf[n:]
	return out, nil
}

// ReadTimeout is Read with a deadline; ok=false on timeout.
func (c *TCPConn) ReadTimeout(p *sim.Proc, n int, d sim.Duration) ([]byte, bool, error) {
	deadline := c.stack.eng.Now() + d
	for len(c.readBuf) < n {
		remaining := deadline - c.stack.eng.Now()
		if remaining <= 0 {
			return nil, false, nil
		}
		chunk, ok := c.recvQ.PopTimeout(p, remaining)
		if !ok {
			return nil, false, nil
		}
		if chunk == nil {
			return nil, false, fmt.Errorf("netstack: connection closed mid-read")
		}
		c.readBuf = append(c.readBuf, chunk...)
		c.stack.eng.Bufs().Put(chunk)
	}
	out := c.readBuf[:n:n]
	c.readBuf = c.readBuf[n:]
	return out, true, nil
}

// Close sends FIN and tears the connection down (no TIME_WAIT modelling).
func (c *TCPConn) Close(p *sim.Proc) {
	if c.state == stateEstablished {
		c.sendFlags(FlagFIN|FlagACK, nil)
	}
	c.teardown()
}

func (c *TCPConn) teardown() {
	if c.closed {
		return
	}
	c.closed = true
	c.state = stateClosed
	c.timerGen++
	delete(c.stack.conns, fourTuple{c.localPort, c.remoteIP, c.remotePort})
	c.recvQ.Push(nil)
	c.sendWait.Broadcast()
	c.established.Broadcast()
}

// sendAck emits a bare cumulative ACK.
func (c *TCPConn) sendAck() { c.sendSegmentAt(c.sndNxt, nil, FlagACK) }

// sendFlags emits a segment at sndNxt.
func (c *TCPConn) sendFlags(flags byte, payload []byte) {
	c.sendSegmentAt(c.sndNxt, payload, flags)
}

// sendSegmentAt emits a segment with an explicit sequence number (used by
// retransmission). It uses the cached remote MAC so it never blocks — safe
// on both application and stack processes.
func (c *TCPConn) sendSegmentAt(seq uint32, payload []byte, flags byte) {
	c.stack.transmit(&Packet{
		SrcMAC:    c.stack.macFn(),
		DstMAC:    c.remoteMAC,
		EtherType: EtherTypeIPv4,
		SrcIP:     c.stack.ip,
		DstIP:     c.remoteIP,
		Proto:     ProtoTCP,
		SrcPort:   c.localPort,
		DstPort:   c.remotePort,
		Seq:       seq,
		Ack:       c.rcvNxt,
		Flags:     flags,
		Window:    65535,
		Payload:   payload,
	})
}

// armTimer (re)schedules the retransmission timer rto from now.
func (c *TCPConn) armTimer() {
	c.timerGen++
	gen := c.timerGen
	c.rtxDeadline = c.stack.eng.Now() + c.rto
	c.stack.eng.After(c.rto, func() {
		if c.timerGen == gen {
			c.stack.events.Push(event{kind: evTCPTimer, conn: c, gen: gen})
		}
	})
}

// onTimer runs on the stack process when the retransmission timer fires.
func (c *TCPConn) onTimer(gen int) {
	if c.timerGen != gen || c.state == stateClosed || len(c.unacked) == 0 {
		return
	}
	// Go-back-N lite: retransmit the oldest unacked segment, double the RTO.
	seg := c.unacked[0]
	c.sendSegmentAt(seg.seq, seg.data, FlagACK|FlagPSH)
	c.Retransmits++
	c.rto *= 2
	if c.rto > rtoMax {
		c.rto = rtoMax
	}
	c.armTimer()
}
