package oasis

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"oasis/internal/faults"
	"oasis/internal/metrics"
	"oasis/internal/storengine"
)

// echoPod builds the evaluation topology (§5): hostA runs the instance,
// hostB owns the NIC serving it, a client drives load from outside the pod.
type echoPod struct {
	pod    *Pod
	hostA  *Host
	hostB  *Host
	nic1   *NIC
	inst   *Instance
	client *Client
}

func buildEchoPod(backup bool) *echoPod {
	cfg := DefaultConfig()
	pod := NewPod(cfg)
	hostA := pod.AddHost()
	hostB := pod.AddHost()
	n1 := pod.AddNIC(hostB, false)
	var _ = n1
	e := &echoPod{pod: pod, hostA: hostA, hostB: hostB, nic1: n1}
	if backup {
		hostC := pod.AddHost()
		pod.AddNIC(hostC, true)
	}
	e.inst = pod.AddInstance(hostA, IP(10, 0, 0, 10))
	e.client = pod.AddClient(IP(10, 0, 99, 1))
	pod.Start()
	return e
}

// startEchoServer runs a UDP echo app on the instance.
func (e *echoPod) startEchoServer(t *testing.T) {
	e.pod.Go("echo-server", func(p *Proc) {
		conn, err := e.inst.Stack.ListenUDP(7)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			dg := conn.Recv(p)
			if err := conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data); err != nil {
				return
			}
		}
	})
}

func TestRemoteNICUDPEcho(t *testing.T) {
	e := buildEchoPod(false)
	e.inst.RequestAllocation()
	e.startEchoServer(t)
	var rtts []time.Duration
	payload := bytes.Repeat([]byte{0xEE}, 64)
	e.pod.Go("client", func(p *Proc) {
		conn, _ := e.client.Stack.ListenUDP(0)
		p.Sleep(2 * time.Millisecond) // registration warmup
		for i := 0; i < 20; i++ {
			start := p.Now()
			if err := conn.SendTo(p, e.inst.IPAddr(), 7, payload); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			dg, ok := conn.RecvTimeout(p, 10*time.Millisecond)
			if !ok {
				t.Errorf("echo %d timed out", i)
				return
			}
			if !bytes.Equal(dg.Data, payload) {
				t.Errorf("echo %d corrupted", i)
				return
			}
			rtts = append(rtts, p.Now()-start)
			p.Sleep(100 * time.Microsecond)
		}
		e.pod.Shutdown()
	})
	e.pod.Run(time.Second)
	if len(rtts) != 20 {
		t.Fatalf("completed %d echoes, want 20", len(rtts))
	}
	med := metrics.ExactPercentile(rtts, 50)
	// Remote-NIC path: a handful of µs each way (Fig. 10's Oasis curve runs
	// ~5-10 µs at low load on a small testbed).
	if med < time.Microsecond || med > 30*time.Microsecond {
		t.Fatalf("median RTT = %v, want low µs", med)
	}
	t.Logf("remote-NIC echo RTT: median=%v", med)
	// The data path must have used the CXL pool for payloads.
	if e.hostA.H.CXLPort.WriteMeter().Category("payload") == 0 {
		t.Fatal("instance TX never wrote payload to the CXL pool")
	}
	if e.inst.Port.TxPackets == 0 || e.inst.Port.RxPackets == 0 {
		t.Fatal("instance port counters did not move")
	}
}

func TestTxBuffersRecycled(t *testing.T) {
	e := buildEchoPod(false)
	e.inst.RequestAllocation()
	e.startEchoServer(t)
	payload := bytes.Repeat([]byte{1}, 1400)
	done := false
	e.pod.Go("client", func(p *Proc) {
		conn, _ := e.client.Stack.ListenUDP(0)
		p.Sleep(2 * time.Millisecond)
		for i := 0; i < 500; i++ {
			if err := conn.SendTo(p, e.inst.IPAddr(), 7, payload); err != nil {
				t.Error(err)
				return
			}
			if _, ok := conn.RecvTimeout(p, 10*time.Millisecond); !ok {
				t.Errorf("echo %d lost", i)
				return
			}
		}
		done = true
		// Let completions drain, then check for leaks.
		p.Sleep(10 * time.Millisecond)
		e.pod.Shutdown()
	})
	e.pod.Run(5 * time.Second)
	if !done {
		t.Fatal("client did not finish")
	}
	if e.inst.Port.TxDropsNoBuffer != 0 {
		t.Fatalf("TX buffer drops = %d; area leaked", e.inst.Port.TxDropsNoBuffer)
	}
	// All TX buffers must be back (completions recycle them).
	// All RX buffers must be back in the NIC ring or free list.
	be := e.nic1.BE
	if got := be.RxNoRoute; got > 5 {
		t.Fatalf("unexpected RxNoRoute = %d", got)
	}
}

func TestFlowTagFallbackInspectionOnlyForARP(t *testing.T) {
	e := buildEchoPod(false)
	e.inst.RequestAllocation()
	e.startEchoServer(t)
	e.pod.Go("client", func(p *Proc) {
		conn, _ := e.client.Stack.ListenUDP(0)
		p.Sleep(2 * time.Millisecond)
		for i := 0; i < 50; i++ {
			conn.SendTo(p, e.inst.IPAddr(), 7, []byte("x"))
			conn.RecvTimeout(p, 10*time.Millisecond)
		}
		e.pod.Shutdown()
	})
	e.pod.Run(time.Second)
	// UDP data packets are steered by flow tags; only the ARP exchange hits
	// the inspection fallback.
	if e.nic1.BE.Inspected > 4 {
		t.Fatalf("backend inspected %d packets; flow tagging not effective", e.nic1.BE.Inspected)
	}
	if e.nic1.BE.RxForwarded < 50 {
		t.Fatalf("forwarded %d, want >= 50", e.nic1.BE.RxForwarded)
	}
}

func TestAllocatorPlacesOnLocalNICFirst(t *testing.T) {
	cfg := DefaultConfig()
	pod := NewPod(cfg)
	hA := pod.AddHost()
	hB := pod.AddHost()
	nA := pod.AddNIC(hA, false)
	nB := pod.AddNIC(hB, false)
	instA := pod.AddInstance(hA, IP(10, 0, 0, 1))
	instB := pod.AddInstance(hB, IP(10, 0, 0, 2))
	pod.Start()
	instA.RequestAllocation()
	instB.RequestAllocation()
	ok := false
	pod.Go("wait", func(p *Proc) {
		ok = instA.WaitReady(p, 100*time.Millisecond) && instB.WaitReady(p, 100*time.Millisecond)
		pod.Shutdown()
	})
	pod.Run(time.Second)
	if !ok {
		t.Fatal("instances never became ready")
	}
	if got, _ := pod.Alloc.PrimaryOf(instA.IPAddr()); got != nA.ID {
		t.Fatalf("instA placed on NIC %d, want local %d", got, nA.ID)
	}
	if got, _ := pod.Alloc.PrimaryOf(instB.IPAddr()); got != nB.ID {
		t.Fatalf("instB placed on NIC %d, want local %d", got, nB.ID)
	}
}

func TestNICFailoverUDP(t *testing.T) {
	e := buildEchoPod(true) // with reserved backup NIC
	e.inst.RequestAllocation()
	e.startEchoServer(t)
	var lost, delivered int
	var gapStart, gapEnd time.Duration
	failAt := 50 * time.Millisecond
	e.pod.Eng.At(failAt, func() { e.pod.FailNICPort(e.nic1.ID) })
	e.pod.Go("client", func(p *Proc) {
		conn, _ := e.client.Stack.ListenUDP(0)
		p.Sleep(2 * time.Millisecond)
		// 1 kHz probe stream for 300 ms of virtual time.
		for p.Now() < 350*time.Millisecond {
			sendAt := p.Now()
			if err := conn.SendTo(p, e.inst.IPAddr(), 7, []byte("probe")); err != nil {
				t.Error(err)
				return
			}
			if _, ok := conn.RecvTimeout(p, time.Millisecond); ok {
				delivered++
				if gapStart != 0 && gapEnd == 0 {
					gapEnd = sendAt
				}
			} else {
				lost++
				if gapStart == 0 {
					gapStart = sendAt
				}
			}
		}
		e.pod.Shutdown()
	})
	e.pod.Run(time.Second)
	if delivered == 0 || lost == 0 {
		t.Fatalf("delivered=%d lost=%d; failover scenario did not engage", delivered, lost)
	}
	if gapEnd == 0 {
		t.Fatal("service never recovered after NIC failure")
	}
	outage := gapEnd - gapStart
	t.Logf("failover outage: %v (lost %d probes)", outage, lost)
	// §5.3: tens of milliseconds — dominated by link-down detection.
	if outage < 5*time.Millisecond || outage > 120*time.Millisecond {
		t.Fatalf("outage = %v, want tens of ms", outage)
	}
	if e.pod.Alloc.Failovers != 1 {
		t.Fatalf("allocator failovers = %d, want 1", e.pod.Alloc.Failovers)
	}
}

func TestGracefulMigrationNoLoss(t *testing.T) {
	cfg := DefaultConfig()
	pod := NewPod(cfg)
	hA := pod.AddHost()
	hB := pod.AddHost()
	hC := pod.AddHost()
	n1 := pod.AddNIC(hB, false)
	n2 := pod.AddNIC(hC, false)
	inst := pod.AddInstance(hA, IP(10, 0, 0, 10))
	client := pod.AddClient(IP(10, 0, 99, 1))
	pod.Start()
	inst.RequestAllocation() // lands on n1: least-loaded, first registered
	_ = n1
	pod.Go("echo", func(p *Proc) {
		conn, _ := inst.Stack.ListenUDP(7)
		for {
			dg := conn.Recv(p)
			conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data)
		}
	})
	// Migrate mid-stream.
	pod.Eng.At(50*time.Millisecond, func() { pod.Alloc.Migrate(inst.IPAddr(), n2.ID) })
	lost := 0
	sent := 0
	pod.Go("client", func(p *Proc) {
		conn, _ := client.Stack.ListenUDP(0)
		p.Sleep(2 * time.Millisecond)
		for p.Now() < 150*time.Millisecond {
			sent++
			conn.SendTo(p, inst.IPAddr(), 7, []byte("m"))
			if _, ok := conn.RecvTimeout(p, 5*time.Millisecond); !ok {
				lost++
			}
		}
		pod.Shutdown()
	})
	pod.Run(time.Second)
	if sent < 100 {
		t.Fatalf("sent only %d probes", sent)
	}
	// §3.3.4: graceful migration loses nothing (dual-RX window + GARP).
	if lost != 0 {
		t.Fatalf("graceful migration lost %d/%d probes", lost, sent)
	}
	if n2.Dev.TxPackets == 0 {
		t.Fatal("traffic never moved to the new NIC")
	}
	if pod.Alloc.Migrations != 1 {
		t.Fatalf("allocator migrations = %d", pod.Alloc.Migrations)
	}
}

func TestTwoInstancesShareOneNIC(t *testing.T) {
	// The multiplexing premise (§5.2): two instances on different hosts
	// share one NIC with correct isolation (each sees only its traffic).
	cfg := DefaultConfig()
	pod := NewPod(cfg)
	hA := pod.AddHost()
	hB := pod.AddHost()
	n1 := pod.AddNIC(hB, false)
	i1 := pod.AddInstance(hA, IP(10, 0, 0, 1))
	i2 := pod.AddInstance(hB, IP(10, 0, 0, 2))
	client := pod.AddClient(IP(10, 0, 99, 1))
	pod.Start()
	i1.Assign(n1.ID, 0)
	i2.Assign(n1.ID, 0)
	for _, in := range []*Instance{i1, i2} {
		in := in
		pod.Go("echo", func(p *Proc) {
			conn, _ := in.Stack.ListenUDP(7)
			for {
				dg := conn.Recv(p)
				// Tag the echo with the instance's own IP byte to prove
				// isolation.
				resp := append([]byte{byte(in.IPAddr())}, dg.Data...)
				conn.SendTo(p, dg.Src, dg.SrcPort, resp)
			}
		})
	}
	okCount := 0
	pod.Go("client", func(p *Proc) {
		conn, _ := client.Stack.ListenUDP(0)
		p.Sleep(2 * time.Millisecond)
		for i := 0; i < 40; i++ {
			target := i1.IPAddr()
			if i%2 == 1 {
				target = i2.IPAddr()
			}
			conn.SendTo(p, target, 7, []byte("q"))
			dg, ok := conn.RecvTimeout(p, 10*time.Millisecond)
			if !ok {
				t.Errorf("probe %d lost", i)
				return
			}
			if dg.Src != target || dg.Data[0] != byte(target) {
				t.Errorf("probe %d answered by wrong instance", i)
				return
			}
			okCount++
		}
		pod.Shutdown()
	})
	pod.Run(time.Second)
	if okCount != 40 {
		t.Fatalf("completed %d/40 probes", okCount)
	}
}

func TestFailoverWithRaftReplicatedAllocator(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RaftReplicas = 3
	pod := NewPod(cfg)
	hA := pod.AddHost()
	hB := pod.AddHost()
	hC := pod.AddHost()
	n1 := pod.AddNIC(hB, false)
	pod.AddNIC(hC, true) // backup
	inst := pod.AddInstance(hA, IP(10, 0, 0, 10))
	client := pod.AddClient(IP(10, 0, 99, 1))
	pod.Start()
	inst.RequestAllocation()
	pod.Go("echo", func(p *Proc) {
		conn, _ := inst.Stack.ListenUDP(7)
		for {
			dg := conn.Recv(p)
			conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data)
		}
	})
	pod.Eng.At(100*time.Millisecond, func() { pod.FailNICPort(n1.ID) })
	recovered := false
	pod.Go("client", func(p *Proc) {
		conn, _ := client.Stack.ListenUDP(0)
		p.Sleep(30 * time.Millisecond) // raft election + registration
		for p.Now() < 400*time.Millisecond {
			conn.SendTo(p, inst.IPAddr(), 7, []byte("x"))
			if _, ok := conn.RecvTimeout(p, 2*time.Millisecond); ok && p.Now() > 200*time.Millisecond {
				recovered = true
			}
		}
		pod.Shutdown()
	})
	pod.Run(time.Second)
	if !recovered {
		t.Fatal("service did not recover after failover with raft-replicated allocator")
	}
	if pod.Alloc.Failovers != 1 {
		t.Fatalf("failovers = %d", pod.Alloc.Failovers)
	}
	// The placement and failover decisions must be in every replica's log.
	for i, n := range pod.Raft {
		if n.CommitIndex() < 2 {
			t.Fatalf("replica %d committed %d entries, want >= 2 (place + failover)", i, n.CommitIndex())
		}
	}
}

func TestPooledSSDVolume(t *testing.T) {
	cfg := DefaultConfig()
	pod := NewPod(cfg)
	hA := pod.AddHost()
	hB := pod.AddHost()
	pod.AddNIC(hB, false)
	d := pod.AddSSD(hB, 1<<16)
	inst := pod.AddInstance(hA, IP(10, 0, 0, 10))
	vol := pod.AddVolume(inst, d.ID, 4096)
	pod.Start()
	ok := false
	pod.Go("app", func(p *Proc) {
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("volume not ready")
			pod.Shutdown()
			return
		}
		data := bytes.Repeat([]byte{0x42}, 8192)
		if err := vol.Write(p, 0, data); err != nil {
			t.Errorf("write: %v", err)
		}
		got, err := vol.Read(p, 0, 2)
		if err != nil {
			t.Errorf("read: %v", err)
		} else if !bytes.Equal(got, data) {
			t.Error("pooled SSD round trip mismatch")
		} else {
			ok = true
		}
		pod.Shutdown()
	})
	pod.Run(time.Second)
	if !ok {
		t.Fatal("pooled SSD I/O did not complete")
	}
}

func TestLargePodDeterministicStress(t *testing.T) {
	// Eight hosts, three pooled NICs + backup, eight instances all echoing
	// concurrently: exercises multi-frontend/multi-backend interleaving and
	// pins down determinism at scale.
	run := func() (int64, uint64) {
		cfg := DefaultConfig()
		pod := NewPod(cfg)
		var hosts []*Host
		for i := 0; i < 8; i++ {
			hosts = append(hosts, pod.AddHost())
		}
		pod.AddNIC(hosts[1], false)
		pod.AddNIC(hosts[3], false)
		pod.AddNIC(hosts[5], false)
		pod.AddNIC(hosts[7], true) // backup
		var insts []*Instance
		for i := 0; i < 8; i++ {
			insts = append(insts, pod.AddInstance(hosts[i], IP(10, 0, 0, byte(10+i))))
		}
		client := pod.AddClient(IP(10, 0, 99, 1))
		pod.Start()
		for _, in := range insts {
			in.RequestAllocation()
		}
		for _, in := range insts {
			in := in
			pod.Go("echo", func(p *Proc) {
				conn, err := in.Stack.ListenUDP(7)
				if err != nil {
					return
				}
				for {
					dg := conn.Recv(p)
					if conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data) != nil {
						return
					}
				}
			})
		}
		var echoed int64
		pod.Go("client", func(p *Proc) {
			conn, _ := client.Stack.ListenUDP(0)
			p.Sleep(5 * time.Millisecond)
			for round := 0; round < 12; round++ {
				for _, in := range insts {
					conn.SendTo(p, in.IPAddr(), 7, []byte{byte(round)})
					if _, ok := conn.RecvTimeout(p, 10*time.Millisecond); ok {
						echoed++
					}
				}
			}
			pod.Shutdown()
		})
		end := pod.Run(5 * time.Second)
		return echoed, uint64(end)
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != 96 {
		t.Fatalf("echoed %d/96 across 8 instances", e1)
	}
	if e1 != e2 || t1 != t2 {
		t.Fatalf("nondeterministic at scale: (%d,%d) vs (%d,%d)", e1, t1, e2, t2)
	}
}

func TestPodCXLAccountingConsistency(t *testing.T) {
	// Sanity invariant: every payload byte an instance transmits shows up
	// in the pool's write meters, and the NIC's DMA reads at least match
	// what it put on the wire.
	e := buildTestEcho(t)
	e.pod.Run(time.Second)
	var payloadWrites int64
	for _, port := range e.pod.Pool.Ports() {
		payloadWrites += port.WriteMeter().Category("payload")
	}
	if payloadWrites == 0 {
		t.Fatal("no payload writes metered")
	}
	if e.nic1.Dev.TxBytes == 0 {
		t.Fatal("NIC transmitted nothing")
	}
	// Line-granular metering means metered bytes >= wire bytes.
	var dmaReads int64
	for _, port := range e.pod.Pool.Ports() {
		dmaReads += port.ReadMeter().Category("payload")
	}
	if dmaReads < e.nic1.Dev.TxBytes {
		t.Fatalf("DMA payload reads (%d) below wire bytes (%d)", dmaReads, e.nic1.Dev.TxBytes)
	}
}

// buildTestEcho assembles a 2-host echo pod, runs 50 echoes, and returns it
// (the pod is shut down by the client process).
func buildTestEcho(t *testing.T) *echoPod {
	t.Helper()
	e := buildEchoPod(false)
	e.inst.RequestAllocation()
	e.startEchoServer(t)
	e.pod.Go("client", func(p *Proc) {
		conn, _ := e.client.Stack.ListenUDP(0)
		p.Sleep(2 * time.Millisecond)
		for i := 0; i < 50; i++ {
			conn.SendTo(p, e.inst.IPAddr(), 7, bytes.Repeat([]byte{1}, 1000))
			conn.RecvTimeout(p, 10*time.Millisecond)
		}
		e.pod.Shutdown()
	})
	return e
}

func TestAERProactiveFailoverEndToEnd(t *testing.T) {
	// A dying NIC (uncorrectable PCIe error burst, link still up) is failed
	// over proactively by the allocator — no packet-loss window at all,
	// because TX reroutes before anything is dropped.
	e := buildEchoPod(true)
	e.inst.RequestAllocation()
	e.startEchoServer(t)
	// Inject an error burst shortly before a telemetry window closes.
	e.pod.Eng.At(95*time.Millisecond, func() {
		for i := 0; i < 40; i++ {
			e.nic1.Dev.InjectAER(true)
		}
	})
	lost := 0
	e.pod.Go("client", func(p *Proc) {
		conn, _ := e.client.Stack.ListenUDP(0)
		p.Sleep(5 * time.Millisecond)
		for p.Now() < 300*time.Millisecond {
			conn.SendTo(p, e.inst.IPAddr(), 7, []byte("x"))
			if _, ok := conn.RecvTimeout(p, 2*time.Millisecond); !ok {
				lost++
			}
		}
		e.pod.Shutdown()
	})
	e.pod.Run(time.Second)
	if e.pod.Alloc.AERFailovers != 1 {
		t.Fatalf("AER failovers = %d, want 1", e.pod.Alloc.AERFailovers)
	}
	// The switch path never went down: proactive failover loses at most a
	// couple of in-flight probes.
	if lost > 3 {
		t.Fatalf("lost %d probes; proactive failover should be nearly lossless", lost)
	}
}

func TestStatsReportCoversComponents(t *testing.T) {
	e := buildTestEcho(t)
	e.pod.Run(time.Second)
	rep := e.pod.Stats().String()
	for _, want := range []string{
		"nic1/tx_packets", "host0/cache/hits", "alloc/placements",
		"host0/fe/tx_forwarded", "cxl/port/host0/rd_bytes{payload}",
		"host0/fe/chan/nic1/rx_lat",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("stats report missing %q:\n%s", want, rep)
		}
	}
	// The same data is available as a typed snapshot.
	snap := e.pod.Stats()
	if snap.Value("alloc/placements") != 1 {
		t.Fatalf("alloc/placements = %v, want 1", snap.Value("alloc/placements"))
	}
	if snap.Value("nic1/tx_packets") == 0 {
		t.Fatal("nic1/tx_packets = 0, want traffic")
	}
}

func TestChannelLatencyHistogram(t *testing.T) {
	// Fig. 6-style measurement: one-way delivery latency on the message
	// channel feeding host0's frontend from nic1's backend. The paper
	// reports single-digit-microsecond channel latencies; the simulated
	// CXL timings land the median in the same low-microsecond band.
	e := buildTestEcho(t)
	e.pod.Run(time.Second)
	h := e.pod.Stats().Histogram("host0/fe/chan/nic1/rx_lat")
	if h == nil {
		t.Fatal("no rx_lat histogram registered for host0/fe/chan/nic1")
	}
	if h.Count < 50 {
		t.Fatalf("rx_lat count = %d, want >= 50 (one per echo)", h.Count)
	}
	if h.P50 <= 0 || h.P50 > 20*time.Microsecond {
		t.Fatalf("rx_lat p50 = %v, want low-microsecond one-way latency", h.P50)
	}
	if h.P99 < h.P50 || h.Max < h.P99 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v max=%v", h.P50, h.P99, h.Max)
	}
}

func TestPodSnapshotJSONDeterministic(t *testing.T) {
	// Two identical runs must serialize to byte-identical JSON: same series,
	// same order, same values, same trace events at the same virtual times.
	run := func() []byte {
		e := buildTestEcho(t)
		e.pod.Run(time.Second)
		return e.pod.Stats().JSON()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON differs across identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestBuilderErrForms(t *testing.T) {
	cfg := DefaultConfig()
	pod := NewPod(cfg)
	h := pod.AddHost()
	n, err := pod.AddNICErr(h, false)
	if err != nil || n == nil {
		t.Fatalf("AddNICErr: %v", err)
	}
	inst, err := pod.AddInstanceErr(h, IP(10, 0, 0, 1))
	if err != nil {
		t.Fatalf("AddInstanceErr: %v", err)
	}
	if inst.Host() != h {
		t.Fatal("instance did not record its host")
	}
	if _, err := pod.AddInstanceErr(h, IP(10, 0, 0, 1)); err == nil {
		t.Fatal("duplicate instance IP accepted")
	}
	if _, err := pod.AddVolumeErr(&Instance{}, 1, 64); err == nil {
		t.Fatal("AddVolumeErr accepted an instance with no host")
	}
	pod.Start()
	// The topology stays mutable after Start: pooled adds wire their node
	// immediately…
	if _, err := pod.AddNICErr(h, false); err != nil {
		t.Fatalf("AddNICErr after Start: %v", err)
	}
	if _, err := pod.AddSSDErr(h, 1024); err != nil {
		t.Fatalf("AddSSDErr after Start: %v", err)
	}
	if _, err := pod.AddInstanceErr(h, IP(10, 0, 0, 2)); err != nil {
		t.Fatalf("AddInstanceErr after Start: %v", err)
	}
	if _, err := pod.AddVolumeErr(inst, 1, 64); err != nil {
		t.Fatalf("AddVolumeErr after Start: %v", err)
	}
	// …while the baseline local-driver path stays construct-then-run and
	// refuses with the typed frozen error.
	if _, err := pod.AddLocalNICErr(h); !errors.Is(err, ErrFrozen) {
		t.Fatalf("AddLocalNICErr after Start: got %v, want ErrFrozen", err)
	}
	if _, err := pod.AddLocalInstanceErr(h, IP(10, 0, 0, 3)); !errors.Is(err, ErrFrozen) {
		t.Fatalf("AddLocalInstanceErr after Start: got %v, want ErrFrozen", err)
	}
	pod.Shutdown()
}

// A TX buffer area larger than what is left of the pool is a wiring mistake
// the Err form returns, not a panic in the buffer area's constructor. The
// pool holds the host but not one 4 MiB TX area.
func TestOversizedTxAreaIsAnError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolBytes = 2 << 20
	pod := NewPod(cfg)
	h := pod.AddHost()
	if _, err := pod.AddInstanceErr(h, IP(10, 0, 0, 1)); err == nil || !strings.Contains(err.Error(), "TX area") {
		t.Fatalf("AddInstanceErr = %v, want the TX area refused", err)
	}
}

func TestAssignOnLocalInstanceErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoAllocator = true
	pod := NewPod(cfg)
	h := pod.AddHost()
	pod.AddLocalNIC(h)
	inst := pod.AddLocalInstance(h, IP(10, 0, 0, 1))
	if inst.IsPooled() {
		t.Fatal("local instance reported as pooled")
	}
	err := inst.Assign(1, 0)
	if err == nil {
		t.Fatal("Assign on a local instance should error, not panic")
	}
	if !strings.Contains(err.Error(), "local instance") {
		t.Fatalf("Assign error not descriptive: %v", err)
	}
	pod.Shutdown()
}

// TestSSDFailoverEpochFence drives the full storage recovery path: the
// drive's backend engine stalls, the allocator's lease expires, the volume
// re-binds onto the backup drive with a bumped epoch, and — once the
// zombie backend resumes and drains its ring — its late completions are
// rejected by the epoch fence instead of corrupting state. No acked write
// may be lost across the failover.
func TestSSDFailoverEpochFence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Allocator.TelemetryEvery = 40 * time.Millisecond // a 120 ms lease
	pod := NewPod(cfg)
	h0 := pod.AddHost() // allocator
	h1 := pod.AddHost() // primary drive
	h2 := pod.AddHost() // backup drive
	h3 := pod.AddHost() // instance
	_, _ = h0, h2
	prim := pod.AddSSD(h1, 1<<12)
	back := pod.AddBackupSSD(h2, 1<<12)
	inst := pod.AddInstance(h3, IP(10, 0, 0, 10))
	vol := pod.AddVolume(inst, prim.ID, 64)
	pod.Start()
	if err := pod.RunFaultPlan(faults.Plan{
		Name: "ssd-stall",
		Events: []faults.Event{
			{At: 50 * time.Millisecond, Kind: faults.EngineStall, Target: "host1/storage-be1", Heal: 300 * time.Millisecond},
		},
	}); err != nil {
		t.Fatal(err)
	}
	var acked, failed int
	var lastAcked byte
	pod.Go("writer", func(p *Proc) {
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("volume never became ready")
			pod.Shutdown()
			return
		}
		blk := make([]byte, 4096)
		for seq := byte(1); p.Now() < 500*time.Millisecond; seq++ {
			for i := range blk {
				blk[i] = seq
			}
			if err := vol.Write(p, 0, blk); err != nil {
				failed++
			} else {
				acked++
				lastAcked = seq
			}
			p.Sleep(time.Millisecond)
		}
		got, err := vol.Read(p, 0, 1)
		if err != nil {
			t.Errorf("post-failover read: %v", err)
		} else if got[0] != lastAcked {
			t.Errorf("acked write lost: read seq %d, last acked %d", got[0], lastAcked)
		}
		pod.Shutdown()
	})
	pod.Run(time.Second)
	if vol.Primary() != back.ID {
		t.Fatalf("volume primary = ssd%d, want backup ssd%d", vol.Primary(), back.ID)
	}
	if vol.Epoch() == 0 {
		t.Fatal("failover did not bump the volume epoch")
	}
	if vol.Lost() {
		t.Fatal("volume declared lost despite a live backup")
	}
	sfe := h3.SFE
	if sfe.Rebinds < 1 {
		t.Fatalf("rebinds = %d, want >= 1", sfe.Rebinds)
	}
	if sfe.StaleRejected < 1 {
		t.Fatalf("stale completions rejected = %d, want >= 1 (zombie backend drained its ring)", sfe.StaleRejected)
	}
	if pod.Alloc.SSDFailovers < 1 {
		t.Fatalf("allocator SSD failovers = %d, want >= 1", pod.Alloc.SSDFailovers)
	}
	if acked == 0 {
		t.Fatal("writer never got an ack")
	}
	// Both new metric families must surface through Pod.Stats.
	rep := pod.Stats().String()
	for _, want := range []string{"faults/engine-stall/injected", "alloc/recovery/ssd_failovers", "alloc/recovery/detect_lat"} {
		if !strings.Contains(rep, want) {
			t.Errorf("Pod.Stats missing %q", want)
		}
	}
}

// TestVolumeLostWithoutBackup exercises the typed degraded state: when the
// primary drive fails and the pod has no backup drive, the allocator
// declares the volumes lost and the frontend surfaces ErrVolumeLost to the
// guest instead of retrying forever.
func TestVolumeLostWithoutBackup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Allocator.TelemetryEvery = 40 * time.Millisecond // a 120 ms lease
	pod := NewPod(cfg)
	h0 := pod.AddHost()
	h1 := pod.AddHost()
	h2 := pod.AddHost()
	_ = h0
	d := pod.AddSSD(h1, 1<<12)
	inst := pod.AddInstance(h2, IP(10, 0, 0, 10))
	vol := pod.AddVolume(inst, d.ID, 64)
	pod.Start()
	if err := pod.RunFaultPlan(faults.Plan{
		Name: "drive-dies",
		Events: []faults.Event{
			{At: 50 * time.Millisecond, Kind: faults.SSDFail, Target: "ssd1"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	var lostErr error
	pod.Go("writer", func(p *Proc) {
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("volume never became ready")
			pod.Shutdown()
			return
		}
		blk := make([]byte, 4096)
		for p.Now() < 600*time.Millisecond {
			if err := vol.Write(p, 0, blk); err != nil {
				lostErr = err
				break
			}
			p.Sleep(time.Millisecond)
		}
		pod.Shutdown()
	})
	pod.Run(time.Second)
	if lostErr == nil {
		t.Fatal("write never failed after the only drive died")
	}
	if !errors.Is(lostErr, storengine.ErrVolumeLost) {
		t.Fatalf("write error = %v, want ErrVolumeLost", lostErr)
	}
	if !vol.Lost() {
		t.Fatal("volume not marked lost")
	}
	if h2.SFE.VolumesLost < 1 {
		t.Fatalf("VolumesLost = %d, want >= 1", h2.SFE.VolumesLost)
	}
}

// TestAllocatorSurvivesLeaderCrash crashes the allocator host — taking
// down both the allocator engine and the raft leader — while an instance
// is asking for a NIC. The frontend must retry the allocation RPC, the
// surviving replicas must elect a new leader, and the resumed allocator
// must reconstruct its leases and place the instance through the new
// leader.
func TestAllocatorSurvivesLeaderCrash(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RaftReplicas = 3
	cfg.Allocator.TelemetryEvery = 40 * time.Millisecond // a 120 ms lease
	pod := NewPod(cfg)
	h0 := pod.AddHost() // allocator + raft leader (node 0 elects first)
	h1 := pod.AddHost()
	h2 := pod.AddHost()
	h3 := pod.AddHost()
	_ = h0
	pod.AddNIC(h1, false)
	pod.AddNIC(h2, false)
	inst := pod.AddInstance(h3, IP(10, 0, 0, 10))
	pod.Start()
	if err := pod.RunFaultPlan(faults.Plan{
		Name: "leader-loss",
		Events: []faults.Event{
			{At: 50 * time.Millisecond, Kind: faults.HostCrash, Target: "host0", Heal: 200 * time.Millisecond},
		},
	}); err != nil {
		t.Fatal(err)
	}
	readyIn := Duration(0)
	pod.Go("app", func(p *Proc) {
		p.Sleep(60 * time.Millisecond) // ask while the allocator is down
		inst.RequestAllocation()
		if inst.WaitReady(p, time.Second) {
			readyIn = p.Now() - 60*time.Millisecond
		}
		p.Sleep(100 * time.Millisecond) // let the restarted replica catch up
		pod.Shutdown()
	})
	pod.Run(2 * time.Second)
	if readyIn == 0 {
		t.Fatal("instance never allocated after allocator host crash")
	}
	if readyIn > 500*time.Millisecond {
		t.Fatalf("allocation took %v, want < 500ms after the allocator resumed", readyIn)
	}
	if h3.FE.AllocRetries < 1 {
		t.Fatalf("frontend alloc retries = %d, want >= 1", h3.FE.AllocRetries)
	}
	if pod.Alloc.LeaseReconstructions < 1 {
		t.Fatalf("lease reconstructions = %d, want >= 1", pod.Alloc.LeaseReconstructions)
	}
	leaders := 0
	for _, n := range pod.Raft {
		if n.IsLeader() && !n.Stopped() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("live leaders = %d, want exactly 1", leaders)
	}
	// The placement must be in the replicated log everywhere.
	for i, n := range pod.Raft {
		if n.CommitIndex() < 1 {
			t.Fatalf("replica %d committed nothing — placement not replicated", i)
		}
	}
}

// TestTelemetryPeriodReachesBackends builds a pod on a 40 ms telemetry
// period: the NIC and SSD backends both report on it, and the allocator's
// load for the NIC is the NIC's byte count of each 40 ms window over 40 ms.
// Echo bursts land mid-window, so each window's bytes are exact at the
// sample points 5 ms past every window's close.
func TestTelemetryPeriodReachesBackends(t *testing.T) {
	const every = 40 * time.Millisecond
	cfg := DefaultConfig()
	cfg.Allocator.TelemetryEvery = every
	pod := NewPod(cfg)
	pod.AddHost() // allocator
	h1 := pod.AddHost()
	h2 := pod.AddHost()
	n1 := pod.AddNIC(h1, false)
	d1 := pod.AddSSD(h1, 1<<12)
	inst := pod.AddInstance(h2, IP(10, 0, 0, 10))
	client := pod.AddClient(IP(10, 0, 99, 1))
	pod.Start()
	inst.RequestAllocation()
	pod.Go("echo-server", func(p *Proc) {
		conn, _ := inst.Stack.ListenUDP(7)
		for {
			dg := conn.Recv(p)
			if conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data) != nil {
				return
			}
		}
	})
	const windows = 6
	pod.Go("client", func(p *Proc) {
		conn, _ := client.Stack.ListenUDP(0)
		for w := 0; w < windows; w++ {
			p.Sleep(Duration(w)*every + every/2 - p.Now())
			for i := 0; i <= w; i++ { // a different byte count per window
				conn.SendTo(p, inst.IPAddr(), 7, make([]byte, 100))
				if _, ok := conn.RecvTimeout(p, time.Millisecond); !ok {
					t.Errorf("window %d: echo %d lost", w, i)
				}
			}
		}
	})
	nicBytes := func() int64 { return n1.Dev.TxBytes + n1.Dev.RxBytes }
	var last int64
	for w := 1; w <= windows; w++ {
		pod.Run(Duration(w)*every + 5*time.Millisecond)
		delta := nicBytes() - last
		last = nicBytes()
		if delta == 0 {
			t.Fatalf("window %d carried no NIC traffic", w)
		}
		want := float64(delta) * float64(time.Second) / float64(every)
		if got := pod.Stats().Value("alloc/nic/nic1/load_bps"); got != want {
			t.Errorf("window %d: alloc/nic/nic1/load_bps = %v, want %v (%d B in %v)", w, got, want, delta, every)
		}
		if got := d1.BE.TelemetrySent; got != int64(w) {
			t.Errorf("after window %d: ssd telemetry records = %d, want %d", w, got, w)
		}
	}
	pod.Shutdown()
}
