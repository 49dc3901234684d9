package allocator

import (
	"testing"
	"time"

	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/netstack"
	"oasis/internal/sim"
)

// allocRig wires an allocator to fake frontend/backend endpoints (plain
// link ends driven by test processes), isolating the allocator's protocol
// behaviour from the full engine.
type allocRig struct {
	eng   *sim.Engine
	pool  *cxl.Pool
	a     *Allocator
	fe    map[int]*core.LinkEnd    // test side of frontend links
	be    map[uint16]*core.LinkEnd // test side of NIC backend links
	ssd   map[uint16]*core.LinkEnd // test side of SSD backend links
	hosts []*host.Host
}

// newAllocRig builds a rig of nHosts hosts (the allocator on host 0, a
// frontend link for each other host) and the given NICs (Kind is filled in).
func newAllocRig(t *testing.T, nHosts int, nics []DeviceInfo) *allocRig {
	t.Helper()
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<27, cxl.DefaultParams())
	r := &allocRig{
		eng:  eng,
		pool: pool,
		fe:   make(map[int]*core.LinkEnd),
		be:   make(map[uint16]*core.LinkEnd),
		ssd:  make(map[uint16]*core.LinkEnd),
	}
	for i := 0; i < nHosts; i++ {
		r.hosts = append(r.hosts, host.New(eng, i, "h", pool, host.DefaultConfig()))
	}
	r.a = New(r.hosts[0], DefaultConfig())
	for i := 1; i < nHosts; i++ {
		aEnd, feEnd, err := core.NewDuplexLink(pool, r.hosts[0], r.hosts[i], msgchan.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		r.a.AddFrontend(i, aEnd)
		r.fe[i] = feEnd
	}
	for _, info := range nics {
		info.Kind = core.DeviceNIC
		r.addDevice(t, info)
	}
	r.a.Start()
	return r
}

// addDevice registers a pooled device on a control link of its own, the way
// a backend attaches, and returns the allocator's end of that link.
func (r *allocRig) addDevice(t *testing.T, info DeviceInfo) *core.LinkEnd {
	t.Helper()
	aEnd, beEnd, err := core.NewDuplexLink(r.pool, r.hosts[0], r.hosts[info.HostID], msgchan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.a.AddDevice(info, aEnd)
	r.backends(info.Kind)[info.ID] = beEnd
	return aEnd
}

// backends returns the test side of a device kind's backend links, by id.
func (r *allocRig) backends(kind core.DeviceKind) map[uint16]*core.LinkEnd {
	if kind == core.DeviceSSD {
		return r.ssd
	}
	return r.be
}

// addStorageFrontend gives a host a storage-frontend control link and
// returns the test side.
func (r *allocRig) addStorageFrontend(t *testing.T, hostID int) *core.LinkEnd {
	t.Helper()
	aEnd, sfeEnd, err := core.NewDuplexLink(r.pool, r.hosts[0], r.hosts[hostID], msgchan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.a.AddStorageFrontend(hostID, aEnd)
	return sfeEnd
}

// expectMsg polls a link until a control message arrives or times out.
func expectMsg(p *sim.Proc, end *core.LinkEnd, timeout sim.Duration) (core.ControlMsg, bool) {
	deadline := p.Now() + timeout
	for p.Now() < deadline {
		if payload, ok := end.Poll(p); ok {
			return core.DecodeControl(payload), true
		}
		p.Sleep(5 * time.Microsecond)
	}
	return core.ControlMsg{}, false
}

func sendCtl(p *sim.Proc, end *core.LinkEnd, m core.ControlMsg) {
	var buf [15]byte
	end.Send(p, core.EncodeControl(buf[:], m))
	end.Flush(p)
}

func TestPlacementPrefersLocalNIC(t *testing.T) {
	nics := []DeviceInfo{
		{ID: 1, HostID: 1, CapacityBps: 12.5e9},
		{ID: 2, HostID: 2, CapacityBps: 12.5e9},
	}
	r := newAllocRig(t, 3, nics)
	ip := netstack.IPv4(10, 0, 0, 1)
	r.eng.Go("fe2", func(p *sim.Proc) {
		sendCtl(p, r.fe[2], core.ControlMsg{Op: core.CtlAllocRequest, IP: ip})
		m, ok := expectMsg(p, r.fe[2], 50*time.Millisecond)
		if !ok || m.Op != core.CtlAssign {
			t.Errorf("no assign: %+v ok=%v", m, ok)
		} else if m.Dev != 2 {
			t.Errorf("assigned NIC %d, want host-local 2", m.Dev)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if got, _ := r.a.PrimaryOf(ip); got != 2 {
		t.Fatalf("allocator state: primary = %d", got)
	}
}

func TestPlacementSpillsToLeastLoaded(t *testing.T) {
	// Host 1 has a tiny NIC; demand exceeds it, so the second instance on
	// host 1 must spill to the remote NIC with more headroom.
	nics := []DeviceInfo{
		{ID: 1, HostID: 1, CapacityBps: 1.5e9},
		{ID: 2, HostID: 2, CapacityBps: 12.5e9},
	}
	r := newAllocRig(t, 3, nics)
	ip1 := netstack.IPv4(10, 0, 0, 1)
	ip2 := netstack.IPv4(10, 0, 0, 2)
	r.eng.Go("fe1", func(p *sim.Proc) {
		sendCtl(p, r.fe[1], core.ControlMsg{Op: core.CtlAllocRequest, IP: ip1})
		m1, ok1 := expectMsg(p, r.fe[1], 50*time.Millisecond)
		sendCtl(p, r.fe[1], core.ControlMsg{Op: core.CtlAllocRequest, IP: ip2})
		m2, ok2 := expectMsg(p, r.fe[1], 50*time.Millisecond)
		if !ok1 || !ok2 {
			t.Error("missing assignments")
		} else {
			if m1.Dev != 1 {
				t.Errorf("first instance on NIC %d, want local 1", m1.Dev)
			}
			if m2.Dev != 2 {
				t.Errorf("second instance on NIC %d, want spill to 2", m2.Dev)
			}
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

func TestBackupNICNotUsedForPlacement(t *testing.T) {
	nics := []DeviceInfo{
		{ID: 1, HostID: 1, CapacityBps: 12.5e9},
		{ID: 2, HostID: 2, CapacityBps: 12.5e9, Backup: true},
	}
	r := newAllocRig(t, 3, nics)
	ip := netstack.IPv4(10, 0, 0, 1)
	r.eng.Go("fe2", func(p *sim.Proc) {
		// Host 2's local NIC is the backup: placement must avoid it and
		// use NIC 1, with NIC 2 as the backup assignment.
		sendCtl(p, r.fe[2], core.ControlMsg{Op: core.CtlAllocRequest, IP: ip})
		m, ok := expectMsg(p, r.fe[2], 50*time.Millisecond)
		if !ok || m.Dev != 1 {
			t.Errorf("assigned %+v, want primary 1", m)
		}
		if m.Aux != 2 {
			t.Errorf("backup = %d, want the reserved NIC 2", m.Aux)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

func TestLinkDownTriggersFailoverMessages(t *testing.T) {
	nics := []DeviceInfo{
		{ID: 1, HostID: 1, CapacityBps: 12.5e9},
		{ID: 2, HostID: 2, CapacityBps: 12.5e9, Backup: true},
	}
	r := newAllocRig(t, 3, nics)
	ip := netstack.IPv4(10, 0, 0, 1)
	r.eng.Go("driver", func(p *sim.Proc) {
		sendCtl(p, r.fe[1], core.ControlMsg{Op: core.CtlAllocRequest, IP: ip})
		if _, ok := expectMsg(p, r.fe[1], 50*time.Millisecond); !ok {
			t.Error("no assignment")
			r.eng.Shutdown()
			return
		}
		// Backend of NIC 1 reports link down.
		sendCtl(p, r.be[1], core.ControlMsg{Op: core.CtlLinkDown, Dev: 1})
		// Every frontend must receive a failover command...
		m, ok := expectMsg(p, r.fe[1], 50*time.Millisecond)
		if !ok || m.Op != core.CtlFailover || m.Dev != 1 || m.Aux != 2 {
			t.Errorf("fe1 got %+v ok=%v, want failover 1->2", m, ok)
		}
		// ...and the backup's backend a borrow-MAC command.
		bm, ok := expectMsg(p, r.be[2], 50*time.Millisecond)
		if !ok || bm.Op != core.CtlBorrowMAC || bm.Dev != 1 {
			t.Errorf("backup backend got %+v ok=%v, want borrow-MAC 1", bm, ok)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.a.Failovers != 1 {
		t.Fatalf("failovers = %d", r.a.Failovers)
	}
	if got, _ := r.a.PrimaryOf(ip); got != 2 {
		t.Fatalf("instance not moved to backup: primary = %d", got)
	}
	if r.a.View(core.DeviceNIC, 1).Up {
		t.Fatal("failed NIC still marked up")
	}
}

// kindRows is one row per device kind for the tests of the shared
// telemetry/lease/health path; health stamps v into the kind's health slot
// of a telemetry record (a NIC's soft errors, a drive's mean service µs).
var kindRows = []struct {
	kind   core.DeviceKind
	health func(m core.ControlMsg, v uint16) core.ControlMsg
}{
	{core.DeviceNIC, func(m core.ControlMsg, v uint16) core.ControlMsg { m.Errs = uint8(v); return m }},
	{core.DeviceSSD, func(m core.ControlMsg, v uint16) core.ControlMsg { m.AER = v; return m }},
}

func TestLeaseExpiryFailsSilentHost(t *testing.T) {
	// A device whose telemetry goes silent is marked failed whatever its
	// kind. What the expiry sets off is the kind's policy: a NIC's instances
	// fail over to the backup NIC; a drive's volumes re-bind or — here, with
	// no backup drive — are declared lost, which is never a NIC failover.
	for _, row := range kindRows {
		t.Run(row.kind.String(), func(t *testing.T) {
			r := newAllocRig(t, 3, []DeviceInfo{
				{ID: 1, HostID: 1, CapacityBps: 12.5e9},
				{ID: 2, HostID: 2, CapacityBps: 12.5e9, Backup: true},
			})
			r.addDevice(t, DeviceInfo{Kind: core.DeviceSSD, ID: 1, HostID: 1})
			r.eng.Go("driver", func(p *sim.Proc) {
				// One telemetry record establishes the lease...
				sendCtl(p, r.backends(row.kind)[1], core.ControlMsg{Op: core.CtlTelemetry, Kind: row.kind, Dev: 1, Load: 100, LinkUp: true})
				// ...then silence for longer than the lease timeout.
				p.Sleep(DefaultConfig().LeaseTimeout + 200*time.Millisecond)
				m, ok := expectMsg(p, r.fe[1], 100*time.Millisecond)
				if nic := row.kind == core.DeviceNIC; ok != nic || (nic && m.Op != core.CtlFailover) {
					t.Errorf("frontend command after %v lease expiry: %+v ok=%v, want a failover iff NIC", row.kind, m, ok)
				}
				r.eng.Shutdown()
			})
			r.eng.Run()
			if r.a.View(row.kind, 1).Up {
				t.Fatalf("silent %v still marked up", row.kind)
			}
			want := map[core.DeviceKind][3]int64{core.DeviceNIC: {1, 0, 1}, core.DeviceSSD: {0, 1, 0}}[row.kind]
			if got := [3]int64{r.a.LeaseExpiries, r.a.SSDLeaseExpiries, r.a.Failovers}; got != want {
				t.Fatalf("NIC lease expiries, SSD lease expiries, NIC failovers = %v, want %v", got, want)
			}
		})
	}
}

func TestTelemetryUpdatesLoadView(t *testing.T) {
	// A backend's load record flows through the one control path and lands in
	// the allocator's per-device view, for a NIC and a drive alike.
	for _, row := range kindRows {
		t.Run(row.kind.String(), func(t *testing.T) {
			r := newAllocRig(t, 2, []DeviceInfo{{ID: 1, HostID: 1, CapacityBps: 12.5e9}})
			r.addDevice(t, DeviceInfo{Kind: core.DeviceSSD, ID: 1, HostID: 1})
			r.eng.Go("driver", func(p *sim.Proc) {
				sendCtl(p, r.backends(row.kind)[1], core.ControlMsg{
					Op: core.CtlTelemetry, Kind: row.kind, Dev: 1,
					Load: 500_000_000, LinkUp: true, QueueDepth: 7,
				})
				p.Sleep(5 * time.Millisecond)
				r.eng.Shutdown()
			})
			r.eng.Run()
			// 500 MB per 100 ms window = 5 GB/s.
			if got := r.a.View(row.kind, 1).LoadBps; got < 4.9e9 || got > 5.1e9 {
				t.Fatalf("telemetry-derived load = %v, want ≈ 5e9", got)
			}
			if !r.a.View(row.kind, 1).Up {
				t.Fatal("healthy device marked down")
			}
			if got := r.a.View(row.kind, 1).QueueDepth; got != 7 {
				t.Fatalf("queue depth = %d, want 7", got)
			}
		})
	}
}

func TestTelemetryLinkDownBeforeLinkDownReport(t *testing.T) {
	// The backend closes telemetry windows and checks its link on separate
	// timers, so a window that closes just after the link drops says
	// LinkUp=false before the link-down report does. Whichever arrives first
	// must trigger the failover — exactly once.
	r := newAllocRig(t, 3, []DeviceInfo{
		{ID: 1, HostID: 1, CapacityBps: 12.5e9},
		{ID: 2, HostID: 2, CapacityBps: 12.5e9, Backup: true},
	})
	ip := netstack.IPv4(10, 0, 0, 1)
	r.eng.Go("driver", func(p *sim.Proc) {
		sendCtl(p, r.fe[1], core.ControlMsg{Op: core.CtlAllocRequest, IP: ip})
		if m, ok := expectMsg(p, r.fe[1], 50*time.Millisecond); !ok || m.Dev != 1 {
			t.Errorf("placement: %+v ok=%v", m, ok)
		}
		sendCtl(p, r.be[1], core.ControlMsg{Op: core.CtlTelemetry, Dev: 1, Load: 100, LinkUp: false})
		sendCtl(p, r.be[1], core.ControlMsg{Op: core.CtlLinkDown, Dev: 1})
		p.Sleep(2 * time.Second)
		m, ok := expectMsg(p, r.fe[1], 50*time.Millisecond)
		if !ok || m.Op != core.CtlFailover || m.Dev != 1 || m.Aux != 2 {
			t.Errorf("fe1 got %+v ok=%v, want failover 1->2", m, ok)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.a.Failovers != 1 {
		t.Fatalf("failovers = %d, want exactly 1", r.a.Failovers)
	}
	if got, _ := r.a.PrimaryOf(ip); got != 2 {
		t.Fatalf("instance not moved to backup: primary = %d", got)
	}
	if r.a.View(core.DeviceNIC, 1).Up {
		t.Fatal("failed NIC still marked up")
	}
}

func TestMigrateSendsCommandToOwningHost(t *testing.T) {
	nics := []DeviceInfo{
		{ID: 1, HostID: 1, CapacityBps: 12.5e9},
		{ID: 2, HostID: 2, CapacityBps: 12.5e9},
	}
	r := newAllocRig(t, 3, nics)
	ip := netstack.IPv4(10, 0, 0, 1)
	r.eng.Go("driver", func(p *sim.Proc) {
		sendCtl(p, r.fe[1], core.ControlMsg{Op: core.CtlAllocRequest, IP: ip})
		expectMsg(p, r.fe[1], 50*time.Millisecond)
		r.a.Migrate(ip, 2)
		m, ok := expectMsg(p, r.fe[1], 50*time.Millisecond)
		if !ok || m.Op != core.CtlMigrate || m.Dev != 2 || m.IP != ip {
			t.Errorf("migrate command = %+v ok=%v", m, ok)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.a.Migrations != 1 {
		t.Fatalf("migrations = %d", r.a.Migrations)
	}
	if got, _ := r.a.PrimaryOf(ip); got != 2 {
		t.Fatalf("primary after migrate = %d", got)
	}
}

func TestRebalanceMovesInstanceOffHotNIC(t *testing.T) {
	nics := []DeviceInfo{
		{ID: 1, HostID: 1, CapacityBps: 10e9},
		{ID: 2, HostID: 2, CapacityBps: 10e9},
	}
	r := newAllocRig(t, 3, nics)
	r.a.cfg.Rebalance = true
	r.a.cfg.RebalanceEvery = 50 * time.Millisecond
	ip := netstack.IPv4(10, 0, 0, 1)
	r.eng.Go("driver", func(p *sim.Proc) {
		sendCtl(p, r.fe[1], core.ControlMsg{Op: core.CtlAllocRequest, IP: ip})
		if m, ok := expectMsg(p, r.fe[1], 50*time.Millisecond); !ok || m.Dev != 1 {
			t.Errorf("placement: %+v ok=%v", m, ok)
		}
		// Telemetry: NIC 1 at 90% (hot), NIC 2 idle (cold). Load field is
		// bytes per 100 ms window → 0.9 GB/window = 9 GB/s on 10 Gbps... use
		// bytes: 9e8 per window = 9 GB/s? CapacityBps is bytes/s here (10e9).
		for i := 0; i < 12; i++ {
			sendCtl(p, r.be[1], core.ControlMsg{Op: core.CtlTelemetry, Dev: 1, Load: 9e8, LinkUp: true})
			sendCtl(p, r.be[2], core.ControlMsg{Op: core.CtlTelemetry, Dev: 2, Load: 1e7, LinkUp: true})
			p.Sleep(20 * time.Millisecond)
		}
		m, ok := expectMsg(p, r.fe[1], 200*time.Millisecond)
		if !ok || m.Op != core.CtlMigrate || m.Dev != 2 || m.IP != ip {
			t.Errorf("expected migrate to NIC 2, got %+v ok=%v", m, ok)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.a.Rebalances != 1 {
		t.Fatalf("rebalances = %d, want exactly 1 (hysteresis after the move)", r.a.Rebalances)
	}
	if got, _ := r.a.PrimaryOf(ip); got != 2 {
		t.Fatalf("instance still on NIC %d", got)
	}
}

func TestNoRebalanceWhenBalanced(t *testing.T) {
	nics := []DeviceInfo{
		{ID: 1, HostID: 1, CapacityBps: 10e9},
		{ID: 2, HostID: 2, CapacityBps: 10e9},
	}
	r := newAllocRig(t, 3, nics)
	r.a.cfg.Rebalance = true
	r.a.cfg.RebalanceEvery = 50 * time.Millisecond
	r.eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			sendCtl(p, r.be[1], core.ControlMsg{Op: core.CtlTelemetry, Dev: 1, Load: 6e8, LinkUp: true})
			sendCtl(p, r.be[2], core.ControlMsg{Op: core.CtlTelemetry, Dev: 2, Load: 6e8, LinkUp: true})
			p.Sleep(25 * time.Millisecond)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.a.Rebalances != 0 {
		t.Fatalf("spurious rebalances = %d", r.a.Rebalances)
	}
}

func TestAERBurstTriggersProactiveFailover(t *testing.T) {
	nics := []DeviceInfo{
		{ID: 1, HostID: 1, CapacityBps: 12.5e9},
		{ID: 2, HostID: 2, CapacityBps: 12.5e9, Backup: true},
	}
	r := newAllocRig(t, 3, nics)
	r.eng.Go("driver", func(p *sim.Proc) {
		// Healthy telemetry with a trickle of correctable-only noise (AER=0
		// here counts uncorrectable): no failover.
		sendCtl(p, r.be[1], core.ControlMsg{Op: core.CtlTelemetry, Dev: 1, Load: 100, LinkUp: true, AER: 3})
		p.Sleep(10 * time.Millisecond)
		if r.a.AERFailovers != 0 {
			t.Error("failover on sub-threshold AER noise")
		}
		// A burst of uncorrectable errors while the link is still up.
		sendCtl(p, r.be[1], core.ControlMsg{Op: core.CtlTelemetry, Dev: 1, Load: 100, LinkUp: true, AER: 40})
		m, ok := expectMsg(p, r.fe[1], 50*time.Millisecond)
		if !ok || m.Op != core.CtlFailover || m.Dev != 1 || m.Aux != 2 {
			t.Errorf("no proactive failover: %+v ok=%v", m, ok)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.a.AERFailovers != 1 || r.a.Failovers != 1 {
		t.Fatalf("AER failovers = %d, failovers = %d", r.a.AERFailovers, r.a.Failovers)
	}
	if r.a.View(core.DeviceNIC, 1).Up {
		t.Fatal("dying NIC still marked up")
	}
}

func TestHealthScorerEvacuatesGrayDevice(t *testing.T) {
	// A device whose health signal — a NIC's soft-error count, a drive's mean
	// service latency — is a sustained outlier vs. its peers is quarantined
	// and its load steered away, even though its link never goes down (gray
	// failure). How it is steered is the kind's policy: instances migrate to
	// a healthy peer NIC; volumes re-bind onto the backup drive under a
	// bumped epoch.
	want := map[core.DeviceKind]struct {
		healthy, sick uint16
		evacs         [2]int64 // HealthNICEvacs, HealthSSDEvacs
	}{
		core.DeviceNIC: {healthy: 1, sick: 40, evacs: [2]int64{1, 0}},
		core.DeviceSSD: {healthy: 120, sick: 2500, evacs: [2]int64{0, 1}},
	}
	for _, row := range kindRows {
		t.Run(row.kind.String(), func(t *testing.T) {
			w := want[row.kind]
			r := newAllocRig(t, 3, []DeviceInfo{
				{ID: 1, HostID: 1, CapacityBps: 12.5e9},
				{ID: 2, HostID: 2, CapacityBps: 12.5e9},
				{ID: 3, HostID: 2, CapacityBps: 12.5e9, Backup: true},
			})
			r.addDevice(t, DeviceInfo{Kind: core.DeviceSSD, ID: 1, HostID: 1})
			r.addDevice(t, DeviceInfo{Kind: core.DeviceSSD, ID: 2, HostID: 2})
			sfeEnd := r.addStorageFrontend(t, 1)
			r.addDevice(t, DeviceInfo{Kind: core.DeviceSSD, ID: 3, HostID: 2, Backup: true})
			r.a.cfg.Health = true
			ip := netstack.IPv4(10, 0, 0, 1)
			r.eng.Go("driver", func(p *sim.Proc) {
				sendCtl(p, r.fe[1], core.ControlMsg{Op: core.CtlAllocRequest, IP: ip})
				if m, ok := expectMsg(p, r.fe[1], 50*time.Millisecond); !ok || m.Dev != 1 {
					t.Errorf("placement: %+v ok=%v", m, ok)
				}
				// Three windows of an outlier signal on device 1; device 2
				// stays clean.
				be := r.backends(row.kind)
				telem := core.ControlMsg{Op: core.CtlTelemetry, Kind: row.kind, Load: 100, LinkUp: true}
				for i := 0; i < r.a.cfg.HealthWindows; i++ {
					telem.Dev = 2
					sendCtl(p, be[2], row.health(telem, w.healthy))
					telem.Dev = 1
					sendCtl(p, be[1], row.health(telem, w.sick))
					p.Sleep(5 * time.Millisecond)
				}
				if row.kind == core.DeviceNIC {
					m, ok := expectMsg(p, r.fe[1], 100*time.Millisecond)
					if !ok || m.Op != core.CtlMigrate || m.IP != ip || m.Dev != 2 {
						t.Errorf("expected migrate off lossy NIC to NIC 2, got %+v ok=%v", m, ok)
					}
				} else {
					m, ok := expectMsg(p, sfeEnd, 100*time.Millisecond)
					if !ok || m.Op != core.CtlFailover || m.Kind != core.DeviceSSD || m.Dev != 1 || m.Aux != 3 || m.Epoch != 1 {
						t.Errorf("expected epoch-fenced evacuation ssd1 -> ssd3, got %+v ok=%v", m, ok)
					}
				}
				r.eng.Shutdown()
			})
			r.eng.Run()
			if got := [2]int64{r.a.HealthNICEvacs, r.a.HealthSSDEvacs}; got != w.evacs {
				t.Fatalf("health evacs (NIC, SSD) = %v, want %v", got, w.evacs)
			}
			if !r.a.View(row.kind, 1).Quarantined {
				t.Fatalf("gray %v not quarantined", row.kind)
			}
			if !r.a.View(row.kind, 1).Up {
				t.Fatalf("gray %v must stay up (no fail-stop)", row.kind)
			}
			if r.a.Failovers != 0 || r.a.SSDFailovers != 0 {
				t.Fatalf("health evacuation must not count as failover, got nic=%d ssd=%d", r.a.Failovers, r.a.SSDFailovers)
			}
			// The NIC row moved the instance; the SSD row fenced the drive.
			wantPrimary, wantEpoch := uint16(2), uint16(0)
			if row.kind == core.DeviceSSD {
				wantPrimary, wantEpoch = 1, 1
			}
			if got, _ := r.a.PrimaryOf(ip); got != wantPrimary {
				t.Fatalf("instance on NIC %d, want %d", got, wantPrimary)
			}
			if got := r.a.View(core.DeviceSSD, 1).Epoch; got != wantEpoch {
				t.Fatalf("ssd1 epoch = %d, want %d", got, wantEpoch)
			}
		})
	}
}

func TestHealthScorerIgnoresUniformNoise(t *testing.T) {
	// When every NIC sees the same soft-error rate (a lossy workload, not a
	// sick device), the peer-relative rule keeps the scorer quiet even
	// though the absolute floor is exceeded.
	nics := []DeviceInfo{
		{ID: 1, HostID: 1, CapacityBps: 12.5e9},
		{ID: 2, HostID: 2, CapacityBps: 12.5e9},
	}
	r := newAllocRig(t, 3, nics)
	r.a.cfg.Health = true
	r.eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			sendCtl(p, r.be[1], core.ControlMsg{Op: core.CtlTelemetry, Dev: 1, Load: 100, LinkUp: true, Errs: 30})
			sendCtl(p, r.be[2], core.ControlMsg{Op: core.CtlTelemetry, Dev: 2, Load: 100, LinkUp: true, Errs: 30})
			p.Sleep(5 * time.Millisecond)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.a.HealthNICEvacs != 0 || r.a.View(core.DeviceNIC, 1).Quarantined || r.a.View(core.DeviceNIC, 2).Quarantined {
		t.Fatalf("uniform noise flagged: evacs=%d q1=%v q2=%v",
			r.a.HealthNICEvacs, r.a.View(core.DeviceNIC, 1).Quarantined, r.a.View(core.DeviceNIC, 2).Quarantined)
	}
}

func TestRemovedNICIsForgotten(t *testing.T) {
	// A NIC added to a live allocator and then removed stops existing: its
	// link is no longer polled, placement does not pick it (it would have
	// been the host-local first choice) and an evacuation does not target it
	// (it would have been the least-loaded peer).
	r := newAllocRig(t, 3, []DeviceInfo{
		{ID: 1, HostID: 2, CapacityBps: 12.5e9},
		{ID: 2, HostID: 2, CapacityBps: 12.5e9},
	})
	r.a.cfg.Health = true
	aEnd3 := r.addDevice(t, DeviceInfo{Kind: core.DeviceNIC, ID: 3, HostID: 1, CapacityBps: 12.5e9})
	r.a.RemoveDevice(core.DeviceNIC, 3)
	ipA, ipB := netstack.IPv4(10, 0, 0, 1), netstack.IPv4(10, 0, 0, 2)
	r.eng.Go("driver", func(p *sim.Proc) {
		sendCtl(p, r.be[3], core.ControlMsg{Op: core.CtlTelemetry, Dev: 3, Load: 500_000_000, LinkUp: true})
		// Host 1's instances land on the remote NICs, least-loaded first.
		for i, ip := range []netstack.IP{ipA, ipB} {
			sendCtl(p, r.fe[1], core.ControlMsg{Op: core.CtlAllocRequest, IP: ip})
			if m, ok := expectMsg(p, r.fe[1], 50*time.Millisecond); !ok || m.Dev != uint16(i+1) {
				t.Errorf("placement %d: %+v ok=%v, want NIC %d", i, m, ok, i+1)
			}
		}
		// NIC 1 turns gray: its instance must move to NIC 2, loaded as it is.
		for i := 0; i < r.a.cfg.HealthWindows; i++ {
			sendCtl(p, r.be[2], core.ControlMsg{Op: core.CtlTelemetry, Dev: 2, Load: 100, LinkUp: true, Errs: 1})
			sendCtl(p, r.be[1], core.ControlMsg{Op: core.CtlTelemetry, Dev: 1, Load: 100, LinkUp: true, Errs: 40})
			p.Sleep(5 * time.Millisecond)
		}
		m, ok := expectMsg(p, r.fe[1], 100*time.Millisecond)
		if !ok || m.Op != core.CtlMigrate || m.IP != ipA || m.Dev != 2 {
			t.Errorf("expected migrate of %v to NIC 2, got %+v ok=%v", ipA, m, ok)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if got := aEnd3.In.Received; got != 0 {
		t.Fatalf("removed NIC's link was polled: %d message(s) received", got)
	}
	if r.a.View(core.DeviceNIC, 3).LoadBps != 0 || r.a.View(core.DeviceNIC, 3).Up {
		t.Fatal("removed NIC still has a record")
	}
}
