package netstack

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"oasis/internal/netsw"
	"oasis/internal/sim"
)

func TestIPString(t *testing.T) {
	if got := IPv4(10, 0, 1, 200).String(); got != "10.0.1.200" {
		t.Fatalf("IP string = %q", got)
	}
}

func TestMarshalUnmarshalUDP(t *testing.T) {
	pk := &Packet{
		SrcMAC:    netsw.MAC{1, 2, 3, 4, 5, 6},
		DstMAC:    netsw.MAC{7, 8, 9, 10, 11, 12},
		EtherType: EtherTypeIPv4,
		SrcIP:     IPv4(10, 0, 0, 1),
		DstIP:     IPv4(10, 0, 0, 2),
		Proto:     ProtoUDP,
		SrcPort:   1234,
		DstPort:   5678,
		Payload:   []byte("hello udp"),
	}
	b := pk.Marshal()
	if len(b) != EthHeaderLen+IPv4HeaderLen+UDPHeaderLen+9 {
		t.Fatalf("frame length = %d", len(b))
	}
	got, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != pk.SrcIP || got.DstIP != pk.DstIP || got.SrcPort != 1234 ||
		got.DstPort != 5678 || !bytes.Equal(got.Payload, pk.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestMarshalUnmarshalTCP(t *testing.T) {
	pk := &Packet{
		SrcMAC: netsw.MAC{1}, DstMAC: netsw.MAC{2},
		EtherType: EtherTypeIPv4,
		SrcIP:     IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2),
		Proto: ProtoTCP, SrcPort: 80, DstPort: 9999,
		Seq: 0xDEADBEEF, Ack: 0xCAFEBABE, Flags: FlagACK | FlagPSH,
		Window: 4096, Payload: []byte("tcp data"),
	}
	got, err := decode(pk.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != pk.Seq || got.Ack != pk.Ack || got.Flags != pk.Flags ||
		got.Window != 4096 || !bytes.Equal(got.Payload, pk.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestMarshalUnmarshalARP(t *testing.T) {
	pk := &Packet{
		SrcMAC: netsw.MAC{1}, DstMAC: netsw.Broadcast,
		EtherType:    EtherTypeARP,
		ARPOp:        ARPRequest,
		ARPSenderMAC: netsw.MAC{1},
		ARPSenderIP:  IPv4(10, 0, 0, 1),
		ARPTargetIP:  IPv4(10, 0, 0, 2),
	}
	got, err := decode(pk.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ARPOp != ARPRequest || got.ARPSenderIP != pk.ARPSenderIP || got.ARPTargetIP != pk.ARPTargetIP {
		t.Fatalf("ARP round trip mismatch: %+v", got)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 5),
		make([]byte, 20), // zero ethertype
	}
	for i, b := range cases {
		if _, err := decode(b); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestUDPRoundTripProperty(t *testing.T) {
	f := func(payload []byte, sport, dport uint16) bool {
		if len(payload) > MaxUDPPayload {
			payload = payload[:MaxUDPPayload]
		}
		pk := &Packet{
			EtherType: EtherTypeIPv4, Proto: ProtoUDP,
			SrcIP: IPv4(1, 2, 3, 4), DstIP: IPv4(5, 6, 7, 8),
			SrcPort: sport, DstPort: dport, Payload: payload,
		}
		got, err := decode(pk.Marshal())
		if err != nil {
			return false
		}
		return bytes.Equal(got.Payload, payload) && got.SrcPort == sport && got.DstPort == dport
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowKey(t *testing.T) {
	pk := &Packet{
		EtherType: EtherTypeIPv4, Proto: ProtoUDP,
		SrcIP: IPv4(1, 1, 1, 1), DstIP: IPv4(10, 0, 0, 42),
		Payload: []byte("x"),
	}
	key, ok := FlowKey(pk.Marshal())
	if !ok || IP(key) != IPv4(10, 0, 0, 42) {
		t.Fatalf("FlowKey = %v,%v", IP(key), ok)
	}
	arp := &Packet{EtherType: EtherTypeARP, ARPOp: ARPRequest}
	if _, ok := FlowKey(arp.Marshal()); ok {
		t.Fatal("FlowKey matched an ARP frame")
	}
}

// --- live-stack tests over the simulated switch ---

// node is a raw endpoint: a stack attached directly to a switch port.
type node struct {
	stack *Stack
	port  *netsw.Port
}

func (n *node) Transmit(p *sim.Proc, frame []byte) { n.port.SendOwned(frame) }

func (n *node) DeliverFrame(f *netsw.Frame) { n.stack.DeliverFrame(f.Bytes) }

// twoNodes wires two stacks through a switch.
func twoNodes(eng *sim.Engine) (a, b *node, sw *netsw.Switch) {
	sw = netsw.New(eng, netsw.DefaultParams())
	a = &node{}
	b = &node{}
	macA := netsw.MAC{0xaa, 0, 0, 0, 0, 1}
	macB := netsw.MAC{0xbb, 0, 0, 0, 0, 2}
	a.port = sw.AttachPort("a", a)
	b.port = sw.AttachPort("b", b)
	a.stack = NewStack(eng, "a", IPv4(10, 0, 0, 1), func() netsw.MAC { return macA }, a, DefaultConfig())
	b.stack = NewStack(eng, "b", IPv4(10, 0, 0, 2), func() netsw.MAC { return macB }, b, DefaultConfig())
	a.stack.Start()
	b.stack.Start()
	return a, b, sw
}

func TestARPResolution(t *testing.T) {
	eng := sim.New()
	a, b, _ := twoNodes(eng)
	eng.Go("test", func(p *sim.Proc) {
		mac, err := a.stack.Resolve(p, b.stack.IP())
		if err != nil {
			t.Errorf("resolve failed: %v", err)
			return
		}
		want := netsw.MAC{0xbb, 0, 0, 0, 0, 2}
		if mac != want {
			t.Errorf("resolved %v, want %v", mac, want)
		}
		eng.Shutdown()
	})
	eng.Run()
}

func TestARPResolutionFailsForUnknownIP(t *testing.T) {
	eng := sim.New()
	a, _, _ := twoNodes(eng)
	eng.Go("test", func(p *sim.Proc) {
		if _, err := a.stack.Resolve(p, IPv4(10, 0, 0, 99)); err == nil {
			t.Error("resolving a nonexistent IP succeeded")
		}
		eng.Shutdown()
	})
	eng.Run()
}

func TestUDPEchoOverSwitch(t *testing.T) {
	eng := sim.New()
	a, b, _ := twoNodes(eng)
	var rtt sim.Duration
	eng.Go("server", func(p *sim.Proc) {
		conn, err := b.stack.ListenUDP(7)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			dg := conn.Recv(p)
			if err := conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data); err != nil {
				t.Errorf("echo send: %v", err)
				return
			}
		}
	})
	eng.Go("client", func(p *sim.Proc) {
		conn, err := a.stack.ListenUDP(0)
		if err != nil {
			t.Error(err)
			return
		}
		payload := []byte("ping payload")
		for i := 0; i < 5; i++ {
			start := p.Now()
			if err := conn.SendTo(p, b.stack.IP(), 7, payload); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			dg := conn.Recv(p)
			if !bytes.Equal(dg.Data, payload) {
				t.Error("echo payload mismatch")
				return
			}
			rtt = p.Now() - start
		}
		eng.Shutdown()
	})
	eng.Run()
	// Two switch hops, stack costs: a few µs at most.
	if rtt <= 0 || rtt > 20*time.Microsecond {
		t.Fatalf("echo RTT = %v, want small positive", rtt)
	}
}

func TestTCPConnectSendRecv(t *testing.T) {
	eng := sim.New()
	a, b, _ := twoNodes(eng)
	request := bytes.Repeat([]byte("Q"), 5000) // several MSS
	response := bytes.Repeat([]byte("R"), 3000)
	eng.Go("server", func(p *sim.Proc) {
		l, err := b.stack.ListenTCP(80)
		if err != nil {
			t.Error(err)
			return
		}
		conn := l.Accept(p)
		got, err := conn.Read(p, len(request))
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		if !bytes.Equal(got, request) {
			t.Error("server received corrupted request")
		}
		if err := conn.Send(p, response); err != nil {
			t.Errorf("server send: %v", err)
		}
	})
	eng.Go("client", func(p *sim.Proc) {
		conn, err := a.stack.DialTCP(p, b.stack.IP(), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			eng.Shutdown()
			return
		}
		if err := conn.Send(p, request); err != nil {
			t.Errorf("client send: %v", err)
		}
		got, err := conn.Read(p, len(response))
		if err != nil {
			t.Errorf("client read: %v", err)
		} else if !bytes.Equal(got, response) {
			t.Error("client received corrupted response")
		}
		conn.Close(p)
		eng.Shutdown()
	})
	eng.Run()
}

func TestTCPRetransmissionAfterOutage(t *testing.T) {
	// The Fig. 14 mechanism: segments lost during a link outage are
	// retransmitted and delivered after it heals.
	eng := sim.New()
	a, b, sw := twoNodes(eng)
	serverDone := make(chan struct{}, 1)
	var received []byte
	want := bytes.Repeat([]byte("D"), 4000)
	eng.Go("server", func(p *sim.Proc) {
		l, _ := b.stack.ListenTCP(80)
		conn := l.Accept(p)
		got, err := conn.Read(p, len(want))
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		received = got
		serverDone <- struct{}{}
		eng.Shutdown()
	})
	eng.Go("client", func(p *sim.Proc) {
		conn, err := a.stack.DialTCP(p, b.stack.IP(), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			eng.Shutdown()
			return
		}
		// Cut the server's port mid-transfer.
		eng.After(100*time.Microsecond, func() { sw.Ports()[1].SetEnabled(false) })
		eng.After(30*time.Millisecond, func() { sw.Ports()[1].SetEnabled(true) })
		if err := conn.Send(p, want); err != nil {
			t.Errorf("client send: %v", err)
		}
		if conn.Retransmits == 0 {
			// Sends complete quickly (window 256 KB > 4 KB); retransmits
			// happen later via the timer.
			p.Sleep(200 * time.Millisecond)
		}
	})
	eng.Run()
	select {
	case <-serverDone:
	default:
		t.Fatal("server never received the full stream after outage")
	}
	if !bytes.Equal(received, want) {
		t.Fatal("stream corrupted across outage")
	}
}

func TestTCPConnectTimeoutWhenServerUnreachable(t *testing.T) {
	eng := sim.New()
	a, b, sw := twoNodes(eng)
	eng.Go("client", func(p *sim.Proc) {
		// Resolve first (so ARP succeeds), then cut the port before SYN.
		if _, err := a.stack.Resolve(p, b.stack.IP()); err != nil {
			t.Errorf("resolve: %v", err)
		}
		sw.Ports()[1].SetEnabled(false)
		if _, err := a.stack.DialTCP(p, b.stack.IP(), 80); err == nil {
			t.Error("dial succeeded with server unreachable")
		}
		eng.Shutdown()
	})
	eng.Run()
}

func TestGratuitousARPUpdatesPeers(t *testing.T) {
	eng := sim.New()
	a, b, sw := twoNodes(eng)
	newMAC := netsw.MAC{0xbb, 0xff, 0, 0, 0, 9}
	eng.Go("test", func(p *sim.Proc) {
		if _, err := a.stack.Resolve(p, b.stack.IP()); err != nil {
			t.Errorf("resolve: %v", err)
		}
		// b "migrates": its serving MAC changes and it announces via GARP.
		b.stack.macFn = func() netsw.MAC { return newMAC }
		b.stack.GratuitousARP()
		p.Sleep(100 * time.Microsecond)
		mac, err := a.stack.Resolve(p, b.stack.IP())
		if err != nil || mac != newMAC {
			t.Errorf("peer ARP entry = %v (%v), want %v", mac, err, newMAC)
		}
		if got := sw.LookupMAC(newMAC); got != sw.Ports()[1] {
			t.Error("switch did not learn the new MAC's port from the GARP")
		}
		eng.Shutdown()
	})
	eng.Run()
}

func TestUDPOversizedPayloadRejected(t *testing.T) {
	eng := sim.New()
	a, b, _ := twoNodes(eng)
	eng.Go("test", func(p *sim.Proc) {
		conn, _ := a.stack.ListenUDP(0)
		if err := conn.SendTo(p, b.stack.IP(), 7, make([]byte, MaxUDPPayload+1)); err == nil {
			t.Error("oversized datagram accepted")
		}
		eng.Shutdown()
	})
	eng.Run()
}

func TestDuplicatePortRejected(t *testing.T) {
	eng := sim.New()
	a, _, _ := twoNodes(eng)
	if _, err := a.stack.ListenUDP(53); err != nil {
		t.Fatal(err)
	}
	if _, err := a.stack.ListenUDP(53); err == nil {
		t.Fatal("duplicate UDP bind accepted")
	}
	if _, err := a.stack.ListenTCP(80); err != nil {
		t.Fatal(err)
	}
	if _, err := a.stack.ListenTCP(80); err == nil {
		t.Fatal("duplicate TCP bind accepted")
	}
	eng.Shutdown()
	eng.Run()
}

func TestTCPRetransmissionBackoff(t *testing.T) {
	// An unanswered segment is resent 20 ms after it went out, then after
	// each doubled timeout (40, 80, 160 ms) up to the 320 ms cap, which
	// holds from then on: the resends go out at 20, 60, 140, 300, 620 and
	// 940 ms.
	eng := sim.New()
	a, b, sw := twoNodes(eng)
	eng.Go("server", func(p *sim.Proc) {
		l, _ := b.stack.ListenTCP(80)
		l.Accept(p)
	})
	eng.Go("client", func(p *sim.Proc) {
		defer eng.Shutdown()
		conn, err := a.stack.DialTCP(p, b.stack.IP(), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		sw.Ports()[1].SetEnabled(false)
		sent := p.Now()
		if err := conn.Send(p, []byte("x")); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		for i, ms := range []time.Duration{20, 60, 140, 300, 620, 940} {
			p.Sleep(sent + ms*time.Millisecond - time.Millisecond - p.Now())
			if conn.Retransmits != int64(i) {
				t.Errorf("%d ms: %d retransmits, want %d", ms-1, conn.Retransmits, i)
			}
			p.Sleep(2 * time.Millisecond)
			if conn.Retransmits != int64(i+1) {
				t.Errorf("%d ms: %d retransmits, want %d", ms+1, conn.Retransmits, i+1)
			}
		}
	})
	eng.Run()
}

func TestTCPStreamIntegrityUnderRandomLoss(t *testing.T) {
	// Property: for any loss pattern up to 10%, the byte stream delivered
	// is exactly the byte stream sent (TCP's contract, and the foundation
	// of Fig. 14's recovery behaviour).
	for _, seed := range []int64{1, 2, 3, 4} {
		seed := seed
		eng := sim.New()
		a, b, sw := twoNodes(eng)
		payload := make([]byte, 60000)
		for i := range payload {
			payload[i] = byte(i*7 + int(seed))
		}
		var received []byte
		eng.Go("server", func(p *sim.Proc) {
			l, _ := b.stack.ListenTCP(80)
			conn := l.Accept(p)
			got, err := conn.Read(p, len(payload))
			if err != nil {
				t.Errorf("seed %d: server read: %v", seed, err)
				return
			}
			received = got
			eng.Shutdown()
		})
		eng.Go("client", func(p *sim.Proc) {
			conn, err := a.stack.DialTCP(p, b.stack.IP(), 80)
			if err != nil {
				t.Errorf("seed %d: dial: %v", seed, err)
				eng.Shutdown()
				return
			}
			// Loss starts after the handshake to keep setup deterministic.
			sw.SetLossRate(0.10, seed)
			if err := conn.Send(p, payload); err != nil {
				t.Errorf("seed %d: send: %v", seed, err)
			}
		})
		eng.RunUntil(30 * time.Second)
		eng.Shutdown()
		if !bytes.Equal(received, payload) {
			t.Fatalf("seed %d: stream corrupted (%d/%d bytes, dropped %d frames)",
				seed, len(received), len(payload), sw.LossDropped)
		}
		if sw.LossDropped == 0 {
			t.Fatalf("seed %d: loss injection never fired", seed)
		}
	}
}

func TestTCPFastRetransmitEngages(t *testing.T) {
	eng := sim.New()
	a, b, sw := twoNodes(eng)
	payload := bytes.Repeat([]byte{9}, 30000)
	var cl *TCPConn
	eng.Go("server", func(p *sim.Proc) {
		l, _ := b.stack.ListenTCP(80)
		conn := l.Accept(p)
		if _, err := conn.Read(p, len(payload)); err == nil {
			eng.Shutdown()
		}
	})
	eng.Go("client", func(p *sim.Proc) {
		conn, err := a.stack.DialTCP(p, b.stack.IP(), 80)
		if err != nil {
			eng.Shutdown()
			return
		}
		cl = conn
		sw.SetLossRate(0.05, 42)
		conn.Send(p, payload)
	})
	eng.RunUntil(30 * time.Second)
	eng.Shutdown()
	if cl == nil || cl.FastRetransmits == 0 {
		t.Fatal("fast retransmit never engaged under loss")
	}
}

func TestTCPRSTTearsDownConnection(t *testing.T) {
	eng := sim.New()
	a, b, _ := twoNodes(eng)
	eng.Go("client", func(p *sim.Proc) {
		// No listener on port 81: the SYN must be refused with RST and the
		// dial must fail quickly (not retry to the full timeout ladder).
		start := p.Now()
		if _, err := a.stack.DialTCP(p, b.stack.IP(), 81); err == nil {
			t.Error("dial to closed port succeeded")
		}
		if p.Now()-start > 5*time.Second {
			t.Error("RST did not shortcut the connect timeout")
		}
		eng.Shutdown()
	})
	eng.Run()
}

func TestTCPSendWindowBlocks(t *testing.T) {
	// On a path slower than the sender (1 Gbit/s switch ports) the bytes in
	// flight reach the window: Send must block there rather than buffer
	// unboundedly, and complete once ACKs drain.
	eng := sim.New()
	sp := netsw.DefaultParams()
	sp.PortBandwidth = 125e6
	sw := netsw.New(eng, sp)
	mkNode := func(name string, ip IP, macLow byte) *node {
		n := &node{}
		mac := netsw.MAC{0xaa, 0, 0, 0, 0, macLow}
		n.port = sw.AttachPort(name, n)
		n.stack = NewStack(eng, name, ip, func() netsw.MAC { return mac }, n, DefaultConfig())
		n.stack.Start()
		return n
	}
	a := mkNode("a", IPv4(10, 0, 0, 1), 1)
	b := mkNode("b", IPv4(10, 0, 0, 2), 2)
	total := 4 * tcpWindow
	done := false
	eng.Go("server", func(p *sim.Proc) {
		l, _ := b.stack.ListenTCP(80)
		conn := l.Accept(p)
		if _, err := conn.Read(p, total); err == nil {
			done = true
		}
		eng.Shutdown()
	})
	var conn *TCPConn
	eng.Go("client", func(p *sim.Proc) {
		var err error
		if conn, err = a.stack.DialTCP(p, b.stack.IP(), 80); err != nil {
			eng.Shutdown()
			return
		}
		conn.Send(p, make([]byte, total))
	})
	maxInflight := 0
	eng.Go("monitor", func(p *sim.Proc) {
		for {
			if conn != nil {
				maxInflight = max(maxInflight, conn.inflight)
			}
			p.Sleep(time.Microsecond)
		}
	})
	eng.RunUntil(10 * time.Second)
	eng.Shutdown()
	if !done {
		t.Fatal("windowed transfer never completed")
	}
	if maxInflight < tcpWindow || maxInflight >= tcpWindow+MSS {
		t.Fatalf("max bytes in flight = %d, want the window: [%d, %d)", maxInflight, tcpWindow, tcpWindow+MSS)
	}
}

func TestUDPPendingAndClose(t *testing.T) {
	eng := sim.New()
	a, b, _ := twoNodes(eng)
	eng.Go("test", func(p *sim.Proc) {
		srv, _ := b.stack.ListenUDP(9)
		cli, _ := a.stack.ListenUDP(0)
		cli.SendTo(p, b.stack.IP(), 9, []byte("1"))
		cli.SendTo(p, b.stack.IP(), 9, []byte("2"))
		p.Sleep(100 * time.Microsecond)
		if srv.Pending() != 2 {
			t.Errorf("pending = %d, want 2", srv.Pending())
		}
		if srv.Port() != 9 {
			t.Errorf("port = %d", srv.Port())
		}
		srv.Close()
		// Packets to a closed port are counted, not delivered.
		before := b.stack.RxNoSocket
		cli.SendTo(p, b.stack.IP(), 9, []byte("3"))
		p.Sleep(100 * time.Microsecond)
		if b.stack.RxNoSocket <= before {
			t.Error("closed-port datagram not counted")
		}
		eng.Shutdown()
	})
	eng.Run()
}

func TestTCPReadTimeout(t *testing.T) {
	eng := sim.New()
	a, b, _ := twoNodes(eng)
	eng.Go("server", func(p *sim.Proc) {
		l, _ := b.stack.ListenTCP(80)
		l.Accept(p) // accept but never send
	})
	eng.Go("client", func(p *sim.Proc) {
		conn, err := a.stack.DialTCP(p, b.stack.IP(), 80)
		if err != nil {
			t.Error(err)
			eng.Shutdown()
			return
		}
		start := p.Now()
		_, ok, err := conn.ReadTimeout(p, 100, 5*time.Millisecond)
		if ok || err != nil {
			t.Errorf("ReadTimeout = ok=%v err=%v, want timeout", ok, err)
		}
		if el := p.Now() - start; el < 5*time.Millisecond {
			t.Errorf("returned after %v, before the deadline", el)
		}
		eng.Shutdown()
	})
	eng.Run()
}

func TestTCPCloseDeliversEOF(t *testing.T) {
	eng := sim.New()
	a, b, _ := twoNodes(eng)
	eng.Go("server", func(p *sim.Proc) {
		l, _ := b.stack.ListenTCP(80)
		conn := l.Accept(p)
		if chunk := conn.Recv(p); chunk == nil {
			// EOF from the client's close.
			eng.Shutdown()
			return
		}
		t.Error("expected EOF chunk")
		eng.Shutdown()
	})
	eng.Go("client", func(p *sim.Proc) {
		conn, err := a.stack.DialTCP(p, b.stack.IP(), 80)
		if err != nil {
			t.Error(err)
			eng.Shutdown()
			return
		}
		conn.Close(p)
	})
	eng.Run()
}

func TestListenerCloseUnbinds(t *testing.T) {
	eng := sim.New()
	a, _, _ := twoNodes(eng)
	l, err := a.stack.ListenTCP(443)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := a.stack.ListenTCP(443); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	eng.Shutdown()
	eng.Run()
}

func TestUnmarshalNeverPanicsOnRandomBytes(t *testing.T) {
	// Robustness property: arbitrary wire bytes must produce an error or a
	// packet — never a panic (the backend's inspection path feeds it raw
	// DMA buffers).
	f := func(b []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("Unmarshal panicked on %d bytes", len(b))
			}
		}()
		_, _ = decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Adversarial shapes: valid Ethernet+IPv4 prefix with lying lengths.
	hdr := (&Packet{EtherType: EtherTypeIPv4, Proto: ProtoUDP, SrcIP: 1, DstIP: 2, Payload: []byte("x")}).Marshal()
	for cut := 0; cut < len(hdr); cut++ {
		if _, err := decode(hdr[:cut]); err == nil && cut < EthHeaderLen+IPv4HeaderLen+UDPHeaderLen {
			t.Fatalf("truncated frame of %d bytes accepted", cut)
		}
	}
	// Total-length larger than the frame must be rejected, not sliced OOB.
	bad := make([]byte, len(hdr))
	copy(bad, hdr)
	bad[16], bad[17] = 0xFF, 0xFF // IPv4 total length
	if _, err := decode(bad); err == nil {
		t.Fatal("oversized total-length accepted")
	}
}

// TestUDPDatagramLentToItsReceiver pins the lending rule on one socket read by
// two processes: each one's datagram stays byte-exact while the other
// receives and while it sleeps, and goes back to the pool at its own next
// receive only — a timed-out one, which then holds nothing.
func TestUDPDatagramLentToItsReceiver(t *testing.T) {
	eng := sim.New()
	a, b, _ := twoNodes(eng)
	bufs := eng.Bufs()
	srv, _ := b.stack.ListenUDP(9)
	const n = 6
	eng.Go("sender", func(p *sim.Proc) {
		cli, _ := a.stack.ListenUDP(0)
		for i := 0; i < n; i++ {
			cli.SendTo(p, b.stack.IP(), 9, bytes.Repeat([]byte{byte('a' + i)}, 200))
			p.Sleep(20 * time.Microsecond)
		}
	})
	// hold receives one datagram and checks it across sleep, then again.
	hold := func(p *sim.Proc, sleep sim.Duration) Datagram {
		dg := srv.Recv(p)
		keep := bytes.Clone(dg.Data)
		p.Sleep(sleep)
		if !bytes.Equal(dg.Data, keep) {
			t.Errorf("%q changed to %q before its receiver's next Recv", keep[:4], dg.Data[:4])
		}
		return dg
	}
	eng.Go("one", func(p *sim.Proc) {
		dg := hold(p, 300*time.Microsecond) // "two" receives every other datagram meanwhile
		puts := bufs.Puts
		if _, ok := srv.RecvTimeout(p, time.Microsecond); ok {
			t.Error("a datagram was left over")
			return
		}
		if bufs.Puts != puts+1 {
			t.Errorf("a timed-out RecvTimeout put %d buffers back, want 1: the frame of its last datagram", bufs.Puts-puts)
		}
		// The frame is the next 256 B buffer the pool hands out.
		f := bufs.Get(256)
		f = f[:cap(f)]
		for i := range f {
			f[i] = 0x5C
		}
		if !bytes.Equal(dg.Data, bytes.Repeat([]byte{0x5C}, len(dg.Data))) {
			t.Error("the released frame is not the pool's next buffer")
		}
		bufs.Put(f)
		puts = bufs.Puts
		srv.RecvTimeout(p, time.Microsecond)
		if bufs.Puts != puts {
			t.Errorf("a timed-out RecvTimeout that held nothing put %d buffers back", bufs.Puts-puts)
		}
		eng.Shutdown()
	})
	eng.Go("two", func(p *sim.Proc) {
		for i := 1; i < n; i++ {
			hold(p, 10*time.Microsecond)
		}
	})
	eng.Run()
}

// TestUDPCloseReturnsLentAndQueuedFrames: Close gives back the frame each
// reader holds and every frame still queued.
func TestUDPCloseReturnsLentAndQueuedFrames(t *testing.T) {
	eng := sim.New()
	a, b, _ := twoNodes(eng)
	bufs := eng.Bufs()
	srv, _ := b.stack.ListenUDP(9)
	eng.Go("sender", func(p *sim.Proc) {
		cli, _ := a.stack.ListenUDP(0)
		for i := 0; i < 4; i++ {
			cli.SendTo(p, b.stack.IP(), 9, []byte{byte(i)})
		}
	})
	for _, name := range []string{"one", "two"} {
		eng.Go(name, func(p *sim.Proc) { srv.Recv(p) })
	}
	eng.Go("closer", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		if srv.Pending() != 2 {
			t.Errorf("pending = %d, want 2", srv.Pending())
		}
		puts := bufs.Puts
		srv.Close()
		if got := bufs.Puts - puts; got != 4 || srv.Pending() != 0 {
			t.Errorf("Close put %d frames back and left %d queued, want 4 (two lent, two queued) and 0", got, srv.Pending())
		}
		eng.Shutdown()
	})
	eng.Run()
}
