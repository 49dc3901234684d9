package netstack

import (
	"fmt"
	"time"

	"oasis/internal/bufpool"
	"oasis/internal/netsw"
	"oasis/internal/sim"
)

// Endpoint is the stack's attachment to the world: for a pod instance it
// writes the frame into the instance's CXL TX buffer area and signals the
// frontend driver (§3.3.1); for a raw load-generator client it hands the
// frame straight to a switch port.
//
// Transmit takes ownership of frame: the caller never touches it again, so
// an endpoint that copies the bytes out (e.g. into a CXL buffer area) may
// return the slice to the engine's buffer pool, while one that retains the
// slice (e.g. handing it to the switch) simply keeps it.
type Endpoint interface {
	Transmit(p *sim.Proc, frame []byte)
}

// SteppedEndpoint is an Endpoint whose transmit also runs in event context,
// as part of the stack's chain of steps (see Stack.Step), so that sending a
// frame resumes no process. TransmitJob starts transmitting frame, with
// Transmit's ownership rules, and returns the job to step from its first
// Step; where the job is blocked, the stack's process finishes it.
type SteppedEndpoint interface {
	Endpoint
	TransmitJob(frame []byte) sim.Job
}

// Config tunes the stack's costs.
type Config struct {
	RxCost sim.Duration // per-packet receive-side processing
	TxCost sim.Duration // per-packet transmit-side processing
}

// DefaultConfig models a lean kernel-bypass stack (Junction-class).
func DefaultConfig() Config {
	return Config{
		RxCost: 400 * time.Nanosecond,
		TxCost: 400 * time.Nanosecond,
	}
}

// The protocol timers and the TCP window.
const (
	arpTimeout = time.Millisecond       // wait for an ARP reply before asking again
	arpRetries = 5                      // ARP requests sent before Resolve gives up
	rtoInitial = 20 * time.Millisecond  // TCP retransmission timeout (fixed-base, doubled on loss)
	rtoMax     = 320 * time.Millisecond // cap of the doubled retransmission timeout
	tcpWindow  = 256 << 10              // bytes in flight per connection
)

type eventKind int

const (
	evFrameIn eventKind = iota
	evTxFrame
	evTCPTimer
)

type event struct {
	kind  eventKind
	frame []byte // evFrameIn: the stack's own, recycled after handling
	conn  *TCPConn
	gen   int
}

// Stack is one endpoint's network stack. All protocol processing runs on a
// single stack process (the instance's network thread); applications
// interact through connection objects from their own processes.
type Stack struct {
	eng  *sim.Engine
	name string
	ip   IP
	cfg  Config

	// macFn returns the current source MAC — the MAC of the NIC presently
	// serving this instance, which changes on graceful migration (§3.3.4).
	macFn func() netsw.MAC
	ep    Endpoint
	sep   SteppedEndpoint // ep, when it offers a stepped transmit

	events *sim.Queue[event]
	pc     stackPC // where the stack's chain is (see Step)
	ev     event   // the event it is handling
	tx     sim.Job // sep's transmit in progress
	rx     Packet  // the frame in, decoded in place (see handleFrame)

	arp        map[IP]netsw.MAC
	arpWaiters map[IP]*sim.Signal

	udp       map[uint16]*UDPConn
	listeners map[uint16]*TCPListener
	conns     map[fourTuple]*TCPConn
	nextPort  uint16

	// Stats.
	RxPackets, TxPackets int64
	RxNoSocket           int64
	RxParseErrors        int64
}

type fourTuple struct {
	localPort  uint16
	remoteIP   IP
	remotePort uint16
}

// NewStack builds a stack; call Start to launch its process.
func NewStack(eng *sim.Engine, name string, ip IP, macFn func() netsw.MAC, ep Endpoint, cfg Config) *Stack {
	sep, _ := ep.(SteppedEndpoint)
	return &Stack{
		sep:        sep,
		eng:        eng,
		name:       name,
		ip:         ip,
		cfg:        cfg,
		macFn:      macFn,
		ep:         ep,
		events:     sim.NewQueue[event](eng),
		arp:        make(map[IP]netsw.MAC),
		arpWaiters: make(map[IP]*sim.Signal),
		udp:        make(map[uint16]*UDPConn),
		listeners:  make(map[uint16]*TCPListener),
		conns:      make(map[fourTuple]*TCPConn),
		nextPort:   49152,
	}
}

// IP returns the stack's address.
func (s *Stack) IP() IP { return s.ip }

// Name returns the stack's diagnostic name.
func (s *Stack) Name() string { return s.name }

// Start launches the stack process.
func (s *Stack) Start() {
	s.eng.Go(s.name+"/netstack", s.loop)
}

// DeliverFrame hands an arrived frame to the stack. Callable from event
// callbacks and other processes; processing happens on the stack process.
// The stack borrows frame for the call only — a switch sink's frame goes
// back to the pool when DeliverFrame returns — so it queues a pooled copy,
// as DeliverOwnedFrame would.
func (s *Stack) DeliverFrame(frame []byte) {
	own := s.eng.Bufs().Get(len(frame))
	copy(own, frame)
	s.DeliverOwnedFrame(own)
}

// DeliverOwnedFrame is DeliverFrame for a frame the caller exclusively owns
// (drivers copying out of DMA buffers), drawn from the engine's buffer pool:
// the stack puts it back there once it is done with it — after protocol
// processing, or, for a UDP datagram, once the process it was lent to
// receives again (see UDPConn.Recv).
func (s *Stack) DeliverOwnedFrame(frame []byte) {
	s.events.Push(event{kind: evFrameIn, frame: frame})
}

// loop is the stack process: its chain of steps, and what the chain stops
// short at — a transmit through an endpoint that is not stepped, or a stepped
// one that blocked.
func (s *Stack) loop(p *sim.Proc) {
	for {
		p.Steps(s)
		if s.pc == stackSend {
			s.ep.Transmit(p, s.ev.frame)
			s.pc, s.ev = stackIdle, event{}
		} else {
			s.tx.Finish(p)
		}
	}
}

// stackPC says where the stack's chain is.
type stackPC uint8

const (
	stackIdle stackPC = iota // take the next event
	stackRx                  // RxCost of s.ev, a frame in
	stackTx                  // TxCost of s.ev, a frame out
	stackSend                // the process transmits s.ev's frame
	stackJob                 // s.tx, the endpoint's stepped transmit, is in progress
)

// Step implements sim.Stepper: the stack's event loop as one endless chain.
// It is the loop
//
//	for {
//		ev := events.Pop(p)
//		switch ev.kind {
//		case evFrameIn:   p.Sleep(RxCost); handle the frame
//		case evTxFrame:   p.Sleep(TxCost); ep.Transmit(p, ev.frame)
//		case evTCPTimer:  the connection's timer
//		}
//	}
//
// with the pop an await of the event queue, and the transmit the endpoint's
// stepped one where it has one.
func (s *Stack) Step() (sim.Duration, bool) {
	for {
		switch s.pc {
		case stackIdle:
			ev, ok := s.events.TryPop()
			if !ok {
				return s.events.Await()
			}
			switch ev.kind {
			case evFrameIn:
				s.ev, s.pc = ev, stackRx
				return s.cfg.RxCost, true
			case evTxFrame:
				s.ev, s.pc = ev, stackTx
				return s.cfg.TxCost, true
			case evTCPTimer:
				ev.conn.onTimer(ev.gen)
			}
		case stackRx:
			// A UDP socket keeps the frame its datagram lies in; TCP copies
			// the segment data it keeps, so any other frame is dead here.
			if !s.handleFrame(s.ev.frame) {
				s.eng.Bufs().Put(s.ev.frame)
			}
			s.pc, s.ev = stackIdle, event{}
		case stackTx:
			s.TxPackets++
			if s.sep == nil {
				s.pc = stackSend
				return 0, false
			}
			s.tx, s.pc, s.ev = s.sep.TransmitJob(s.ev.frame), stackJob, event{}
		case stackJob:
			if d, more := s.tx.Step(); more {
				return d, true
			}
			if s.tx.Blocked() {
				return 0, false
			}
			s.tx, s.pc = nil, stackIdle
		default:
			return 0, false
		}
	}
}

// transmit queues a packet for the stack process to marshal out. The frame
// is drawn from the engine's buffer pool; ownership passes to the endpoint
// (see Endpoint).
func (s *Stack) transmit(pk *Packet) {
	frame := s.eng.Bufs().Get(pk.WireLen())
	pk.MarshalTo(frame)
	s.events.Push(event{kind: evTxFrame, frame: frame})
}

// handleFrame runs the protocols on one frame and reports whether a UDP
// socket kept it.
func (s *Stack) handleFrame(frame []byte) (kept bool) {
	pk := &s.rx
	if err := pk.Unmarshal(frame); err != nil {
		s.RxParseErrors++
		return false
	}
	s.RxPackets++
	switch pk.EtherType {
	case EtherTypeARP:
		s.handleARP(pk)
	case EtherTypeIPv4:
		if pk.DstIP != s.ip {
			s.RxNoSocket++
			return false
		}
		// Opportunistically learn the peer's mapping; saves an ARP round
		// trip on the reply path in a trusted rack.
		s.learn(pk.SrcIP, pk.SrcMAC)
		switch pk.Proto {
		case ProtoUDP:
			return s.handleUDP(pk, frame)
		case ProtoTCP:
			s.handleTCP(pk)
		}
	}
	return false
}

// learn records (and propagates to live connections) an IP→MAC mapping.
func (s *Stack) learn(ip IP, mac netsw.MAC) {
	if ip == 0 || ip == s.ip {
		return
	}
	prev, had := s.arp[ip]
	s.arp[ip] = mac
	if sig := s.arpWaiters[ip]; sig != nil {
		sig.Broadcast()
	}
	if had && prev != mac {
		// The peer migrated to a different NIC (GARP, §3.3.4): update every
		// established connection's cached next hop.
		for _, c := range s.conns {
			if c.remoteIP == ip {
				c.remoteMAC = mac
			}
		}
	}
}

func (s *Stack) handleARP(pk *Packet) {
	s.learn(pk.ARPSenderIP, pk.ARPSenderMAC)
	if pk.ARPOp == ARPRequest && pk.ARPTargetIP == s.ip {
		s.transmit(&Packet{
			SrcMAC:       s.macFn(),
			DstMAC:       pk.ARPSenderMAC,
			EtherType:    EtherTypeARP,
			ARPOp:        ARPReply,
			ARPSenderMAC: s.macFn(),
			ARPSenderIP:  s.ip,
			ARPTargetMAC: pk.ARPSenderMAC,
			ARPTargetIP:  pk.ARPSenderIP,
		})
	}
}

// GratuitousARP broadcasts this stack's current IP→MAC binding. The
// network engine invokes it after a graceful migration so peers repoint
// their ARP entries at the new NIC (§3.3.4); the broadcast also teaches the
// switch the MAC's new port.
func (s *Stack) GratuitousARP() {
	mac := s.macFn()
	s.transmit(&Packet{
		SrcMAC:       mac,
		DstMAC:       netsw.Broadcast,
		EtherType:    EtherTypeARP,
		ARPOp:        ARPReply,
		ARPSenderMAC: mac,
		ARPSenderIP:  s.ip,
		ARPTargetMAC: netsw.Broadcast,
		ARPTargetIP:  s.ip,
	})
}

// Resolve returns the MAC for ip, performing ARP if needed. It blocks the
// calling (application) process; it must not be called from the stack
// process itself.
func (s *Stack) Resolve(p *sim.Proc, ip IP) (netsw.MAC, error) {
	if mac, ok := s.arp[ip]; ok {
		return mac, nil
	}
	sig := s.arpWaiters[ip]
	if sig == nil {
		sig = sim.NewSignal(s.eng)
		s.arpWaiters[ip] = sig
	}
	for try := 0; try < arpRetries; try++ {
		s.transmit(&Packet{
			SrcMAC:       s.macFn(),
			DstMAC:       netsw.Broadcast,
			EtherType:    EtherTypeARP,
			ARPOp:        ARPRequest,
			ARPSenderMAC: s.macFn(),
			ARPSenderIP:  s.ip,
			ARPTargetIP:  ip,
		})
		sig.WaitTimeout(p, arpTimeout)
		if mac, ok := s.arp[ip]; ok {
			return mac, nil
		}
	}
	return netsw.MAC{}, fmt.Errorf("netstack %s: ARP resolution of %v failed", s.name, ip)
}

// allocPort returns a free ephemeral port.
func (s *Stack) allocPort() uint16 {
	for i := 0; i < 1<<16; i++ {
		port := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 49152
		}
		if _, udpUsed := s.udp[port]; udpUsed {
			continue
		}
		inUse := false
		for t := range s.conns {
			if t.localPort == port {
				inUse = true
				break
			}
		}
		if !inUse {
			return port
		}
	}
	panic("netstack: ephemeral ports exhausted")
}

// Datagram is one received UDP payload. Data lies in the stack's pooled
// receive frame, lent to the process that received it until that process
// next calls Recv or RecvTimeout on the same socket, or the socket closes:
// then the frame goes back to the engine's buffer pool, and a process that
// keeps the bytes longer copies them.
type Datagram struct {
	Src     IP
	SrcPort uint16
	Data    []byte
}

// queued is a datagram waiting on its socket, with the frame it lies in.
type queued struct {
	dg    Datagram
	frame []byte
}

// UDPConn is a bound UDP socket.
type UDPConn struct {
	stack *Stack
	port  uint16
	rq    *sim.Queue[queued]
	lent  bufpool.Loans // each receiving process's frame

	Dropped int64 // payload-too-large send attempts
}

// ListenUDP binds a UDP socket; port 0 picks an ephemeral port.
func (s *Stack) ListenUDP(port uint16) (*UDPConn, error) {
	if port == 0 {
		port = s.allocPort()
	}
	if _, exists := s.udp[port]; exists {
		return nil, fmt.Errorf("netstack %s: UDP port %d in use", s.name, port)
	}
	c := &UDPConn{stack: s, port: port, rq: sim.NewQueue[queued](s.eng)}
	c.lent.Pool = s.eng.Bufs()
	s.udp[port] = c
	return c, nil
}

// handleUDP queues pk's payload, decoded in place in frame, on its socket,
// and reports whether it did: the socket then owns frame.
func (s *Stack) handleUDP(pk *Packet, frame []byte) bool {
	c, ok := s.udp[pk.DstPort]
	if !ok {
		s.RxNoSocket++
		return false
	}
	c.rq.Push(queued{Datagram{Src: pk.SrcIP, SrcPort: pk.SrcPort, Data: pk.Payload}, frame})
	return true
}

// Port returns the bound local port.
func (c *UDPConn) Port() uint16 { return c.port }

// SendTo transmits one datagram, resolving the destination MAC if needed.
func (c *UDPConn) SendTo(p *sim.Proc, dst IP, dstPort uint16, payload []byte) error {
	if len(payload) > MaxUDPPayload {
		c.Dropped++
		return fmt.Errorf("netstack: UDP payload %d exceeds %d", len(payload), MaxUDPPayload)
	}
	mac, err := c.stack.Resolve(p, dst)
	if err != nil {
		return err
	}
	c.stack.transmit(&Packet{
		SrcMAC:    c.stack.macFn(),
		DstMAC:    mac,
		EtherType: EtherTypeIPv4,
		SrcIP:     c.stack.ip,
		DstIP:     dst,
		Proto:     ProtoUDP,
		SrcPort:   c.port,
		DstPort:   dstPort,
		Payload:   payload,
	})
	return nil
}

// Recv blocks until a datagram arrives. It first gives back the datagram p
// received last on this socket — its bytes are no longer p's to read — and
// lends p the new one until p's next Recv or RecvTimeout here.
func (c *UDPConn) Recv(p *sim.Proc) Datagram {
	c.lent.Return(p)
	q := c.rq.Pop(p)
	c.lent.Lend(p, q.frame)
	return q.dg
}

// RecvTimeout blocks up to d for a datagram, giving back and lending as Recv
// does. When it times out, p holds no datagram from this socket.
func (c *UDPConn) RecvTimeout(p *sim.Proc, d sim.Duration) (Datagram, bool) {
	c.lent.Return(p)
	q, ok := c.rq.PopTimeout(p, d)
	if ok {
		c.lent.Lend(p, q.frame)
	}
	return q.dg, ok
}

// Pending returns the number of queued datagrams.
func (c *UDPConn) Pending() int { return c.rq.Len() }

// Close unbinds the socket and gives back every datagram it holds: those
// queued and those lent, so no process may read a datagram from it after
// Close.
func (c *UDPConn) Close() {
	if c.stack.udp[c.port] == c {
		delete(c.stack.udp, c.port)
	}
	c.lent.ReturnAll()
	for {
		q, ok := c.rq.TryPop()
		if !ok {
			return
		}
		c.lent.Pool.Put(q.frame)
	}
}
