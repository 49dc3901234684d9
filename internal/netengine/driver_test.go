package netengine

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/netstack"
	"oasis/internal/netsw"
	"oasis/internal/nic"
	"oasis/internal/sim"
)

// engineRig wires a minimal pod by hand: hostA (frontend + instance),
// hostB (backend + nic1), hostC (backend + nic2), a raw client on the
// switch, and a fake allocator endpoint (raw control link ends).
type engineRig struct {
	eng        *sim.Engine
	pool       *cxl.Pool
	sw         *netsw.Switch
	hA, hB, hC *host.Host
	fe         *Frontend
	be1, be2   *Backend
	nic1, nic2 *nic.NIC
	inst       *InstancePort
	stack      *netstack.Stack
	client     *rawClient
	// Fake allocator ends.
	ctlFE  *core.LinkEnd // talks to fe
	ctlBE1 *core.LinkEnd
	ctlBE2 *core.LinkEnd
}

type rawClient struct {
	stack *netstack.Stack
	port  *netsw.Port
}

func (c *rawClient) Transmit(p *sim.Proc, frame []byte) { c.port.SendOwned(frame) }

func (c *rawClient) DeliverFrame(f *netsw.Frame) { c.stack.DeliverFrame(f.Bytes) }

var (
	instIP = netstack.IPv4(10, 0, 0, 10)
	cliIP  = netstack.IPv4(10, 0, 99, 1)
	mac1   = netsw.MAC{0x02, 0, 0, 0, 0, 1}
	mac2   = netsw.MAC{0x02, 0, 0, 0, 0, 2}
	macCli = netsw.MAC{0x02, 0, 0, 0, 0, 9}
)

// telemEvery is the rig backends' telemetry period, the §3.5 default.
const telemEvery = 100 * time.Millisecond

func newEngineRig(t *testing.T) *engineRig {
	t.Helper()
	return newEngineRigWith(t, DefaultConfig())
}

func newEngineRigWith(t *testing.T, cfg Config) *engineRig {
	t.Helper()
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<30, cxl.DefaultParams())
	sw := netsw.New(eng, netsw.DefaultParams())

	r := &engineRig{eng: eng, pool: pool, sw: sw}
	r.hA = host.New(eng, 0, "hostA", pool, host.DefaultConfig())
	r.hB = host.New(eng, 1, "hostB", pool, host.DefaultConfig())
	r.hC = host.New(eng, 2, "hostC", pool, host.DefaultConfig())

	nicDir := map[uint16]netsw.MAC{1: mac1, 2: mac2}
	mkNIC := func(name string, mac netsw.MAC, on *host.Host) *nic.NIC {
		dev := nic.New(eng, name, mac, pool.AttachPort(name+"-dma"), netstack.FlowKey, nic.DefaultParams())
		dev.Connect(sw.AttachPort(name, dev))
		dev.SetSnooper(on.Cache)
		dev.Start()
		return dev
	}
	r.nic1 = mkNIC("nic1", mac1, r.hB)
	r.nic2 = mkNIC("nic2", mac2, r.hC)

	var err error
	r.be1, err = NewBackend(r.hB, 1, r.nic1, pool, nicDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.be2, err = NewBackend(r.hC, 2, r.nic2, pool, nicDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.fe = NewFrontend(r.hA, pool, nicDir, cfg)
	for _, be := range []*Backend{r.be1, r.be2} {
		feEnd, beEnd, err := core.NewDuplexLink(pool, r.hA, be.Host(), cfg.Chan)
		if err != nil {
			t.Fatal(err)
		}
		r.fe.ConnectBackend(be.NICID(), feEnd)
		be.ConnectFrontend(r.hA.ID, beEnd)
	}
	// Fake allocator links (the test drives the control plane directly).
	var feEnd *core.LinkEnd
	r.ctlFE, feEnd, err = core.NewDuplexLink(pool, r.hA, r.hA, cfg.Chan)
	if err != nil {
		t.Fatal(err)
	}
	r.fe.SetControlLink(feEnd)
	var be1End, be2End *core.LinkEnd
	r.ctlBE1, be1End, err = core.NewDuplexLink(pool, r.hB, r.hB, cfg.Chan)
	if err != nil {
		t.Fatal(err)
	}
	r.be1.SetControlLink(be1End, telemEvery)
	r.ctlBE2, be2End, err = core.NewDuplexLink(pool, r.hC, r.hC, cfg.Chan)
	if err != nil {
		t.Fatal(err)
	}
	r.be2.SetControlLink(be2End, telemEvery)

	r.inst, err = r.fe.AddInstance(instIP)
	if err != nil {
		t.Fatal(err)
	}
	r.stack = netstack.NewStack(eng, "inst", instIP, r.inst.CurrentMAC, r.inst, netstack.DefaultConfig())
	r.inst.AttachStack(r.stack)

	cli := &rawClient{}
	cli.port = sw.AttachPort("client", cli)
	cli.stack = netstack.NewStack(eng, "client", cliIP, func() netsw.MAC { return macCli }, cli, netstack.DefaultConfig())
	r.client = cli

	r.fe.Start()
	r.be1.Start()
	r.be2.Start()
	r.stack.Start()
	cli.stack.Start()
	return r
}

// startEcho runs the echo app on the rig's instance.
func (r *engineRig) startEcho(t *testing.T) {
	r.eng.Go("echo", func(p *sim.Proc) {
		conn, err := r.stack.ListenUDP(7)
		if err != nil {
			t.Error(err)
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

func TestEngineEchoAndCounters(t *testing.T) {
	r := newEngineRig(t)
	r.inst.Assign(1, 0)
	r.startEcho(t)
	echoed := 0
	r.eng.Go("client", func(p *sim.Proc) {
		conn, _ := r.client.stack.ListenUDP(0)
		if !r.inst.WaitReady(p, 100*time.Millisecond) {
			t.Error("not ready")
			r.eng.Shutdown()
			return
		}
		p.Sleep(time.Millisecond)
		for i := 0; i < 30; i++ {
			conn.SendTo(p, instIP, 7, []byte("probe"))
			if dg, ok := conn.RecvTimeout(p, 10*time.Millisecond); ok && bytes.Equal(dg.Data, []byte("probe")) {
				echoed++
			}
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if echoed != 30 {
		t.Fatalf("echoed %d/30", echoed)
	}
	if r.fe.TxForwarded < 30 || r.fe.RxDelivered < 30 {
		t.Fatalf("fe counters: tx=%d rx=%d", r.fe.TxForwarded, r.fe.RxDelivered)
	}
	if r.be1.TxPosted < 30 || r.be1.RxForwarded < 30 {
		t.Fatalf("be counters: tx=%d rx=%d", r.be1.TxPosted, r.be1.RxForwarded)
	}
	if r.be2.TxPosted != 0 {
		t.Fatalf("idle backend posted %d", r.be2.TxPosted)
	}
}

func TestEngineMigrationCommand(t *testing.T) {
	// The old NIC keeps the instance registered for the 5 s grace window
	// after the flip (§3.3.4). The drivers back off to 1 ms when idle, so
	// the window costs milliseconds.
	cfg := DefaultConfig()
	cfg.IdleBackoff = time.Millisecond
	r := newEngineRigWith(t, cfg)
	r.inst.Assign(1, 0)
	r.startEcho(t)
	var buf [15]byte
	migrated := false
	r.eng.Go("allocator", func(p *sim.Proc) {
		if !r.inst.WaitReady(p, 100*time.Millisecond) {
			t.Error("not ready")
			r.eng.Shutdown()
			return
		}
		r.ctlFE.Send(p, core.EncodeControl(buf[:], core.ControlMsg{
			Op: core.CtlMigrate, Kind: core.DeviceNIC, IP: instIP, Dev: 2,
		}))
		r.ctlFE.Flush(p)
		// Wait for the migration to complete (ack + flip).
		for i := 0; i < 1000 && r.inst.CurrentMAC() != mac2; i++ {
			p.Sleep(100 * time.Microsecond)
		}
		if r.inst.CurrentMAC() != mac2 {
			t.Error("instance MAC never flipped to the new NIC")
		}
		flipped := p.Now()
		// The switch must have learned the new MAC from the GARP.
		p.Sleep(5 * time.Millisecond)
		if r.sw.LookupMAC(mac2) == nil {
			t.Error("GARP never reached the switch")
		}
		p.Sleep(flipped + 4900*time.Millisecond - p.Now())
		if _, ok := r.be1.regs[instIP]; !ok {
			t.Error("old NIC dropped the instance inside the grace window")
		}
		p.Sleep(200 * time.Millisecond)
		if _, ok := r.be1.regs[instIP]; ok {
			t.Error("old NIC still holds the instance after the grace window")
		}
		migrated = true
		r.eng.Shutdown()
	})
	r.eng.Run()
	if !migrated {
		t.Fatal("migration did not run")
	}
	if nicOf(r.inst.primary) != 2 {
		t.Fatalf("primary NIC = %d, want 2", nicOf(r.inst.primary))
	}
}

func TestEngineFailoverCommand(t *testing.T) {
	r := newEngineRig(t)
	r.inst.Assign(1, 2) // nic2 pre-registered as backup (§3.3.3)
	r.startEcho(t)
	var buf [15]byte
	ok := false
	r.eng.Go("allocator", func(p *sim.Proc) {
		if !r.inst.WaitReady(p, 100*time.Millisecond) {
			t.Error("not ready")
			r.eng.Shutdown()
			return
		}
		// Kill nic1's port, command failover + MAC borrow.
		r.sw.Ports()[0].SetEnabled(false)
		r.ctlFE.Send(p, core.EncodeControl(buf[:], core.ControlMsg{
			Op: core.CtlFailover, Kind: core.DeviceNIC, Dev: 1, Aux: 2,
		}))
		r.ctlFE.Flush(p)
		r.ctlBE2.Send(p, core.EncodeControl(buf[:], core.ControlMsg{
			Op: core.CtlBorrowMAC, Kind: core.DeviceNIC, Dev: 1,
		}))
		r.ctlBE2.Flush(p)
		p.Sleep(5 * time.Millisecond)
		if nicOf(r.inst.primary) != 2 {
			t.Errorf("primary = %d after failover", nicOf(r.inst.primary))
		}
		if r.inst.CurrentMAC() != mac1 {
			t.Error("instance MAC must stay the failed NIC's (borrowed)")
		}
		if r.be2.MACBorrows != 1 {
			t.Errorf("MAC borrows = %d", r.be2.MACBorrows)
		}
		// Traffic must flow via nic2 now.
		conn, _ := r.client.stack.ListenUDP(0)
		got := 0
		for i := 0; i < 10; i++ {
			conn.SendTo(p, instIP, 7, []byte("x"))
			if _, k := conn.RecvTimeout(p, 10*time.Millisecond); k {
				got++
			}
		}
		if got < 8 {
			t.Errorf("post-failover echoes %d/10", got)
		}
		ok = true
		r.eng.Shutdown()
	})
	r.eng.Run()
	if !ok {
		t.Fatal("failover scenario did not complete")
	}
	if r.fe.FailoversApplied != 1 {
		t.Fatalf("failovers applied = %d", r.fe.FailoversApplied)
	}
}

func TestEngineTelemetryAndLinkEvents(t *testing.T) {
	r := newEngineRig(t)
	r.inst.Assign(1, 0)
	gotTelemetry, gotLinkDown := false, false
	r.eng.Go("allocator", func(p *sim.Proc) {
		deadline := p.Now() + 400*time.Millisecond
		r.eng.At(150*time.Millisecond, func() { r.sw.Ports()[0].SetEnabled(false) })
		for p.Now() < deadline && !(gotTelemetry && gotLinkDown) {
			payload, ok := r.ctlBE1.Poll(p)
			if !ok {
				p.Sleep(time.Millisecond)
				continue
			}
			switch core.DecodeControl(payload).Op {
			case core.CtlTelemetry:
				gotTelemetry = true
			case core.CtlLinkDown:
				gotLinkDown = true
			}
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if !gotTelemetry {
		t.Error("no telemetry within 4 windows")
	}
	if !gotLinkDown {
		t.Error("no link-down report after port failure")
	}
}

func TestEngineUnregisterStopsDelivery(t *testing.T) {
	r := newEngineRig(t)
	r.inst.Assign(1, 0)
	r.startEcho(t)
	var buf [15]byte
	r.eng.Go("driver", func(p *sim.Proc) {
		r.inst.WaitReady(p, 100*time.Millisecond)
		conn, _ := r.client.stack.ListenUDP(0)
		conn.SendTo(p, instIP, 7, []byte("a"))
		if _, ok := conn.RecvTimeout(p, 10*time.Millisecond); !ok {
			t.Error("pre-unregister echo lost")
		}
		// Unregister the instance from nic1 directly (fe -> be message).
		r.fe.links.Get(1).End.Send(p, msg{op: opUnregister, ip: instIP}.encode(buf[:]))
		r.fe.links.Get(1).End.Flush(p)
		p.Sleep(2 * time.Millisecond)
		before := r.be1.RxNoRoute
		conn.SendTo(p, instIP, 7, []byte("b"))
		if _, ok := conn.RecvTimeout(p, 5*time.Millisecond); ok {
			t.Error("echo after unregister")
		}
		if r.be1.RxNoRoute <= before {
			t.Error("unroutable packet not counted")
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

func TestLocalDriverEcho(t *testing.T) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<28, cxl.DefaultParams())
	sw := netsw.New(eng, netsw.DefaultParams())
	h := host.New(eng, 0, "h", pool, host.DefaultConfig())
	dev := nic.New(eng, "nic", mac1, pool.AttachPort("nic-dma"), netstack.FlowKey, nic.DefaultParams())
	dev.Connect(sw.AttachPort("nic", dev))
	dev.SetSnooper(h.Cache)
	dev.Start()
	ld, err := NewLocalDriver(h, dev, pool, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lp, err := ld.AddInstance(instIP)
	if err != nil {
		t.Fatal(err)
	}
	stack := netstack.NewStack(eng, "inst", instIP, lp.CurrentMAC, lp, netstack.DefaultConfig())
	lp.AttachStack(stack)
	stack.Start()
	ld.Start()
	cli := &rawClient{}
	cli.port = sw.AttachPort("client", cli)
	cli.stack = netstack.NewStack(eng, "client", cliIP, func() netsw.MAC { return macCli }, cli, netstack.DefaultConfig())
	cli.stack.Start()
	eng.Go("echo", func(p *sim.Proc) {
		conn, _ := stack.ListenUDP(7)
		for {
			dg := conn.Recv(p)
			conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data)
		}
	})
	echoed := 0
	eng.Go("client", func(p *sim.Proc) {
		conn, _ := cli.stack.ListenUDP(0)
		p.Sleep(time.Millisecond)
		for i := 0; i < 20; i++ {
			conn.SendTo(p, instIP, 7, []byte("local"))
			if _, ok := conn.RecvTimeout(p, 10*time.Millisecond); ok {
				echoed++
			}
		}
		eng.Shutdown()
	})
	eng.Run()
	if echoed != 20 {
		t.Fatalf("local driver echoed %d/20", echoed)
	}
	if ld.TxForwarded < 20 || ld.RxDelivered < 20 {
		t.Fatalf("local driver counters: %d/%d", ld.TxForwarded, ld.RxDelivered)
	}
}

// The baseline driver is a stage list like the pooled engines: with no packet
// queued by an instance, no completion ready and the RX ring at its target,
// an iteration is part of the core's stepped chain and resumes no goroutine —
// also beside a second polling core, where neither gets the lone-process
// fast path. The counts are sim.Counters, exact on any machine.
func TestIdleLocalDriverCostsNoSwitch(t *testing.T) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<28, cxl.DefaultParams())
	var drivers []*LocalDriver
	for i, name := range []string{"a", "b"} {
		h := host.New(eng, i, name, pool, host.DefaultConfig())
		dev := nic.New(eng, name+"/nic", mac1, pool.AttachPort(name+"/nic-dma"), netstack.FlowKey, nic.DefaultParams())
		dev.SetSnooper(h.Cache)
		dev.Start()
		ld, err := NewLocalDriver(h, dev, pool, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ld.AddInstance(instIP); err != nil {
			t.Fatal(err)
		}
		// Started a few ns apart, each core's sleeps keep landing inside the
		// other's.
		eng.After(sim.Duration(7*i)*time.Nanosecond, ld.Start)
		drivers = append(drivers, ld)
	}
	eng.RunUntil(time.Millisecond) // the first iteration posts a ring of RX descriptors, one doorbell each
	iterations := func() (n, idle uint64) {
		for _, ld := range drivers {
			n, idle = n+uint64(ld.Iterations), idle+uint64(ld.IdleIterations)
		}
		return
	}
	c0 := eng.Counters()
	iters0, idle0 := iterations()
	eng.RunUntil(1200 * time.Microsecond)
	c := eng.Counters()
	iters, idle := iterations()
	iters, idle = iters-iters0, idle-idle0
	eng.Shutdown()
	if iters < 100 || idle != iters {
		t.Fatalf("want two idle cores: %d iterations, %d idle", iters, idle)
	}
	if fast := c.FastSleeps - c0.FastSleeps; fast > 4 {
		t.Fatalf("%d sleeps took the lone-process fast path: the cores are not contending, the bound below proves nothing", fast)
	}
	if legs := c.SteppedLegs - c0.SteppedLegs; legs+2 < iters {
		t.Fatalf("%d stepped legs over %d iterations, want each iteration's own sleep", legs, iters)
	}
	limit := uint64(0)
	if sim.Checking() {
		limit = iters // OASIS_SIMCHECK=1 runs the idle work stages from the process
	}
	if got := c.Switches - c0.Switches; got > limit {
		t.Fatalf("%d process switches over %d idle iterations (limit %d): %+v -> %+v", got, iters, limit, c0, c)
	}
}

func TestDuplicateInstanceRejected(t *testing.T) {
	r := newEngineRig(t)
	if _, err := r.fe.AddInstance(instIP); err == nil {
		t.Fatal("duplicate instance accepted")
	}
	r.eng.Shutdown()
	r.eng.Run()
}

func TestAllocRetryCircuitBreaker(t *testing.T) {
	// With no allocator answering, the frontend retries under backoff only
	// until the per-instance budget is spent, then fails fast with a typed
	// error. A late assignment heals the breaker. The drivers back off to
	// 1 ms when idle, so 14 s of allocator silence cost milliseconds; each
	// resend may then be up to 1 ms late.
	cfg := DefaultConfig()
	cfg.IdleBackoff = time.Millisecond
	r := newEngineRigWith(t, cfg)
	r.inst.RequestAllocation()
	var buf [15]byte
	r.eng.Go("allocator", func(p *sim.Proc) {
		// 32 resends, 10 ms after the request and then 20, 40, 80, 160,
		// 320 ms and 500 ms apart: the last goes out at 13.63 s and the
		// breaker trips 500 ms later, at 14.13 s.
		p.Sleep(14100 * time.Millisecond)
		if r.fe.AllocRetries != 32 || r.fe.AllocRetryExhausted != 0 {
			t.Errorf("at 14.1 s: retries = %d, breaker trips = %d, want 32 and 0", r.fe.AllocRetries, r.fe.AllocRetryExhausted)
		}
		p.Sleep(100 * time.Millisecond)
		if r.fe.AllocRetryExhausted != 1 {
			t.Errorf("breaker trips = %d, want 1", r.fe.AllocRetryExhausted)
		}
		if r.fe.AllocRetries != 32 {
			t.Errorf("retries = %d, want exactly the budget 32", r.fe.AllocRetries)
		}
		if err := r.inst.AllocError(); err != ErrAllocRetryExhausted {
			t.Errorf("AllocError = %v, want ErrAllocRetryExhausted", err)
		}
		// The allocator comes back and answers the original request after
		// all: the assignment still lands and clears the breaker.
		r.ctlFE.Send(p, core.EncodeControl(buf[:], core.ControlMsg{
			Op: core.CtlAssign, Kind: core.DeviceNIC, IP: instIP, Dev: 1,
		}))
		r.ctlFE.Flush(p)
		p.Sleep(50 * time.Millisecond)
		if err := r.inst.AllocError(); err != nil {
			t.Errorf("AllocError after late assign = %v, want nil", err)
		}
		if !r.inst.Ready() {
			t.Error("instance not ready after late assign")
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

// The datapath's jobs hand back to the process where a step cannot go on.
// With every line of the instance host's cache dropped every 100 ns,
// copy-outs meet lines that vanished under their fills and refetch them;
// every echo must still come back intact.
func TestCopyOutRefillsVanishedLines(t *testing.T) {
	r := newEngineRig(t)
	r.inst.Assign(1, 0)
	r.startEcho(t)
	r.eng.Go("churn", func(p *sim.Proc) {
		for {
			p.Sleep(100 * time.Nanosecond)
			r.hA.Cache.InvalidateAll()
		}
	})
	echoed := 0
	r.eng.Go("client", func(p *sim.Proc) {
		conn, _ := r.client.stack.ListenUDP(0)
		if !r.inst.WaitReady(p, 100*time.Millisecond) {
			t.Error("not ready")
			r.eng.Shutdown()
			return
		}
		payload := bytes.Repeat([]byte("0123456789abcdef"), 40)
		for i := 0; i < 200; i++ {
			payload[0] = byte(i)
			conn.SendTo(p, instIP, 7, payload)
			if dg, ok := conn.RecvTimeout(p, time.Millisecond); ok && bytes.Equal(dg.Data, payload) {
				echoed++
			}
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if echoed != 200 {
		t.Fatalf("echoed %d/200 intact", echoed)
	}
}

// A transmit whose TX buffer line has a fill in flight blocks, and its
// process finishes the write once the fill lands: the buffer holds the frame.
func TestTransmitWaitsForInflightFill(t *testing.T) {
	r := newEngineRig(t)
	frame := bytes.Repeat([]byte{0xA5}, 200)
	r.eng.Go("tx", func(p *sim.Proc) {
		r.inst.Transmit(p, append([]byte(nil), frame...)) // learn the buffer the next transmit reuses
		addr := r.inst.tx.addr
		req, _ := r.inst.txQ.TryPop()
		r.inst.area.Free(req.addr)
		r.hA.Cache.FlushRange(p, addr, len(frame), "payload")
		r.hA.Cache.Prefetch(p, addr+64, "payload") // the frame's second line, in flight
		before := r.hA.Cache.Stats().FillWaits
		r.inst.Transmit(p, append([]byte(nil), frame...))
		if r.inst.tx.addr != addr || r.hA.Cache.Stats().FillWaits == before {
			t.Errorf("transmit into %#x met no fill in flight (buffer %#x)", r.inst.tx.addr, addr)
		}
		got := make([]byte, len(frame))
		r.hA.Cache.Read(p, addr, got, "payload")
		if !bytes.Equal(got, frame) {
			t.Errorf("TX buffer holds %x, want the frame", got)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

// rxBurst is what a lone frontend did with k 1500 B packets handed to it in
// one burst of RxPacket messages over a backend link the test holds.
type rxBurst struct {
	span      sim.Duration // from the burst's flush to the last copy-out
	frames    [][]byte     // the frames the instance's UDP socket got, in order
	completes []int64      // the buffers recycled over the link, in order
	resident  int          // buffer lines still in the frontend host's cache
	prefetch  int64        // prefetches the burst issued
	processed int64        // items the frontend's core counted for the burst
	bufs      []int64      // the RX buffers, in message order
}

func runRxBurst(t *testing.T, k int, pp cxl.Params) rxBurst {
	t.Helper()
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<26, pp)
	hA := host.New(eng, 0, "hostA", pool, host.DefaultConfig())
	hB := host.New(eng, 1, "hostB", pool, host.DefaultConfig())
	cfg := DefaultConfig()
	fe := NewFrontend(hA, pool, map[uint16]netsw.MAC{1: mac1}, cfg)
	feEnd, beEnd, err := core.NewDuplexLink(pool, hA, hB, cfg.Chan)
	if err != nil {
		t.Fatal(err)
	}
	fe.ConnectBackend(1, feEnd)
	inst, err := fe.AddInstance(instIP)
	if err != nil {
		t.Fatal(err)
	}
	stack := netstack.NewStack(eng, "inst", instIP, inst.CurrentMAC, inst, netstack.DefaultConfig())
	inst.AttachStack(stack)
	conn, err := stack.ListenUDP(7)
	if err != nil {
		t.Fatal(err)
	}
	stack.Start()
	fe.Start()
	region, err := pool.Alloc(int64(k * bufSize))
	if err != nil {
		t.Fatal(err)
	}
	var out rxBurst
	want := make([][]byte, k)
	for i := range want {
		pk := netstack.Packet{SrcMAC: macCli, DstMAC: mac1, EtherType: netstack.EtherTypeIPv4, SrcIP: cliIP, DstIP: instIP,
			Proto: netstack.ProtoUDP, SrcPort: 9, DstPort: 7, Payload: bytes.Repeat([]byte{byte(i + 1)}, 1458)}
		want[i] = pk.Marshal()
		out.bufs = append(out.bufs, region.Base+int64(i*bufSize))
	}
	// The buffers hold stale bytes first: a line read before its packet's
	// DMA — before the message is polled — reads them.
	for _, addr := range out.bufs {
		pool.Poke(addr, bytes.Repeat([]byte{0xEE}, bufSize))
	}
	dma := pool.AttachPort("nic-dma")
	var flushed sim.Duration
	prefetched := hA.Cache.Stats().PrefetchIssued
	var processed int64
	eng.Go("nic", func(p *sim.Proc) {
		p.Sleep(20 * time.Microsecond) // the frontend is idle, backing off
		processed = fe.Processed
		var done sim.Duration
		for i, addr := range out.bufs {
			done = max(done, dma.DMAWrite(addr, want[i], "payload"))
		}
		p.Sleep(done - p.Now())
		var buf [15]byte
		for _, addr := range out.bufs {
			if !beEnd.Send(p, msg{op: opRxPacket, addr: addr, size: uint16(len(want[0])), ip: instIP}.encode(buf[:])) {
				t.Error("RxPacket refused by an empty ring")
			}
		}
		beEnd.Flush(p)
		flushed = p.Now()
	})
	eng.Go("watch", func(p *sim.Proc) {
		for fe.RxDelivered < int64(k) {
			p.Sleep(time.Nanosecond)
		}
		out.span = p.Now() - flushed
		for len(out.frames) < k {
			// A datagram is this process's only until its next Recv: keep a copy.
			out.frames = append(out.frames, bytes.Clone(conn.Recv(p).Data))
		}
		for {
			payload, ok := beEnd.Poll(p)
			if !ok {
				break
			}
			if m := decode(payload); m.op == opRxComplete {
				out.completes = append(out.completes, m.addr)
			}
		}
		for _, addr := range out.bufs {
			for a := addr; a < addr+int64(len(want[0])); a += cxl.LineSize {
				if hA.Cache.Contains(a) {
					out.resident++
				}
			}
		}
		out.prefetch = hA.Cache.Stats().PrefetchIssued - prefetched
		p.Sleep(time.Microsecond) // the iteration that copied the burst out has ended
		out.processed = fe.Processed - processed
		eng.Shutdown()
	})
	eng.RunUntil(time.Millisecond)
	for i, f := range out.frames {
		if !bytes.Equal(f, want[i][netstack.EthHeaderLen+netstack.IPv4HeaderLen+netstack.UDPHeaderLen:]) {
			t.Errorf("k=%d: datagram %d is not packet %d's payload", k, i, i)
		}
	}
	return out
}

// The frontend prefetches a received packet's buffer when it polls the
// message — the NIC's DMA is done by then — and copies it out after the poll
// stage, so a burst of k packets pays one fill latency, not k: with the pool's
// load latency ten times the default, so that a fill dwarfs a packet's work,
// each packet after the first adds less than half a fill. Every buffer is
// invalidated after its copy (no line stays in the cache), recycled exactly
// once in message order, every frame reaches the instance byte for byte,
// in order, and the core counts each packet once. A copy-out inline with the poll pays a fill per packet; a line
// read before its packet's DMA reads stale bytes.
func TestRxBurstOverlapsFills(t *testing.T) {
	const k = 6
	pp := cxl.DefaultParams()
	pp.LoadLatency *= 10
	one, burst := runRxBurst(t, 1, pp), runRxBurst(t, k, pp)
	for _, r := range []rxBurst{one, burst} {
		n := len(r.bufs)
		if len(r.frames) != n {
			t.Fatalf("k=%d: %d datagrams delivered", n, len(r.frames))
		}
		if !slices.Equal(r.completes, r.bufs) {
			t.Errorf("k=%d: recycled %#x, want each buffer once in message order %#x", n, r.completes, r.bufs)
		}
		if r.resident != 0 {
			t.Errorf("k=%d: %d buffer lines left in the cache: a buffer was not invalidated after its copy", n, r.resident)
		}
		if lines := int64(n * ((1500 + cxl.LineSize - 1) / cxl.LineSize)); r.prefetch < lines {
			t.Errorf("k=%d: %d prefetches for %d buffer lines", n, r.prefetch, lines)
		}
		if r.processed != int64(n) {
			t.Errorf("k=%d: the core counted %d items, want one per packet", n, r.processed)
		}
	}
	if extra := burst.span - one.span; extra >= (k-1)*pp.LoadLatency/2 {
		t.Errorf("a burst of %d took %v after its flush, one packet %v: %v more, want under half a %v fill per extra packet",
			k, burst.span, one.span, extra, pp.LoadLatency)
	}
}
