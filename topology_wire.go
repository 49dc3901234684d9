package oasis

import (
	"oasis/internal/allocator"
	"oasis/internal/core"
	"oasis/internal/host"
	"oasis/internal/obs"
)

// engine is all the wiring pass needs of a device engine or the allocator:
// a core.Seat — the loop's name, stage list and place on a driver core —
// and a way to register its instruments. wire puts it on a core with seat
// (shared host cores) and launch; a new engine type that embeds the seat and
// has a RegisterObs is wired by adding its node to the walk below, and
// nothing else names its type.
type engine interface {
	LoopName() string
	Driver() *core.Driver
	Join(d *core.Driver)
	Start()
	RegisterObs(r *obs.Registry, prefix string)
}

// launch starts e's loop — on the shared core it joined, else on a dedicated
// one — and registers its instruments under its loop name and its core's
// under core/<core name>. Registration order is invisible: Snapshot sorts by
// name.
func (t *Topology) launch(e engine) { t.launchAs(e, e.LoopName()) }

// launchAs is launch with the instruments under prefix instead (the
// allocator's series are <scope>alloc/*, not its loop name).
func (t *Topology) launchAs(e engine, prefix string) {
	e.Start()
	e.RegisterObs(t.obs, prefix)
	d := e.Driver()
	t.regDriver(d, "core/"+d.Name())
}

// regDriver registers a driver core's instruments once: a shared host core
// is reached again through every engine seated on it.
func (t *Topology) regDriver(d *core.Driver, prefix string) {
	if t.obsDrivers[d] {
		return
	}
	t.obsDrivers[d] = true
	d.RegisterObs(t.obs, prefix)
}

// seat puts e on its host's shared driver core (§5.1, Config.SharedHostCore),
// creating the core for the first engine seated. The core registers under
// core/<host>, ahead of the engines that reach it through their seats.
func (t *Topology) seat(e engine, on *Host) {
	if on.Driver == nil {
		on.Driver = core.NewDriver(on.H, on.H.Name+"/engines", core.DriverConfig{
			LoopCost:    t.cfg.Engine.LoopCost,
			IdleBackoff: t.cfg.Engine.IdleBackoff,
		})
		t.regDriver(on.Driver, "core/"+on.H.Name)
	}
	e.Join(on.Driver)
}

// liveHosts returns the hosts that have not been removed, in index order.
func (t *Topology) liveHosts() []*Host {
	live := make([]*Host, 0, len(t.Hosts))
	for _, ph := range t.Hosts {
		if !ph.removed {
			live = append(live, ph)
		}
	}
	return live
}

// wire is the one wiring pass. It brings the live pod up to date with the
// node graph: data links between every frontend and every backend, the
// backup-drive mirror, the allocator with a control link per driver, the
// raft group, shared-core seats, and finally every launch, each with its
// metric registration. Start runs it over the whole graph; every add after
// Start runs it again, and the per-node wired marks (Host, Host.SFE, NIC,
// SSDDev, and the instance and client stacks) make it touch only what is
// new — an edge is made iff one of its endpoints is not yet wired, a loop is
// launched iff its node is not. Before Start it does nothing.
//
// The order is fixed (sorted device ids, host insertion order) and is part
// of the simulated result: it decides pool addresses, process spawn order
// and the poll order on shared cores. The engine is cooperative, so growing
// link sets and shared cores between poll iterations is safe. An error
// (the pool cannot hold another channel) leaves the new nodes partly wired.
func (t *Topology) wire() error {
	if !t.started {
		return nil
	}
	nicIDs, ssdIDs := t.nicIDs(), t.ssdIDs()
	hosts := t.liveHosts()

	// Data links: every frontend to every backend.
	for _, ph := range hosts {
		for _, id := range nicIDs {
			n := t.NICs[id]
			if n.BE == nil || (ph.wired && n.wired) {
				continue // a baseline local NIC has no backend driver
			}
			feEnd, beEnd, err := core.NewDuplexLink(t.Pool, ph.H, n.host.H, t.cfg.Engine.Chan)
			if err != nil {
				return err
			}
			ph.FE.ConnectBackend(n.ID, n.Dev.MAC(), feEnd)
			n.BE.ConnectFrontend(ph.H.ID, beEnd)
		}
		if ph.SFE == nil {
			continue
		}
		for _, id := range ssdIDs {
			d := t.SSDs[id]
			if ph.sfeWired && d.wired {
				continue
			}
			feEnd, beEnd, err := core.NewDuplexLink(t.Pool, ph.H, d.host.H, t.cfg.Storage.Chan)
			if err != nil {
				return err
			}
			ph.SFE.ConnectBackend(d.ID, feEnd)
			d.BE.ConnectFrontend(ph.H.ID, beEnd)
		}
	}

	// Backup-drive mirroring: every storage frontend mirrors its volumes
	// onto the pod's reserved backup drive (the §3.3.3 mechanism applied to
	// storage). Needs the backend mesh above so mirror registrations can
	// ride the normal request path.
	if bid := t.backupSSDID(); bid != 0 {
		for _, ph := range hosts {
			if ph.SFE != nil && !(ph.sfeWired && t.SSDs[bid].wired) {
				ph.SFE.SetBackupSSD(bid)
			}
		}
	}

	// Control plane: the allocator (on host 0) gets a link to every frontend
	// and every device backend — NIC and SSD backends report through the
	// same path — and to every storage frontend, which hears SSD failover
	// commands (volume re-binds, fencing epochs) over it.
	if !t.cfg.NoAllocator && len(t.Hosts) > 0 {
		ah := t.allocHost().H
		fresh := t.Alloc == nil
		if fresh {
			t.Alloc = allocator.New(ah, t.cfg.Allocator)
		}
		ctl := func(peer *host.Host) (aEnd, peerEnd *core.LinkEnd, err error) {
			return core.NewDuplexLink(t.Pool, ah, peer, t.cfg.Engine.Chan)
		}
		for _, ph := range hosts {
			if ph.wired {
				continue
			}
			aEnd, feEnd, err := ctl(ph.H)
			if err != nil {
				return err
			}
			t.Alloc.AddFrontend(ph.H.ID, aEnd)
			ph.FE.SetControlLink(feEnd)
		}
		for _, id := range nicIDs {
			n := t.NICs[id]
			if n.BE == nil || n.wired {
				continue
			}
			aEnd, beEnd, err := ctl(n.host.H)
			if err != nil {
				return err
			}
			t.Alloc.AddDevice(allocator.DeviceInfo{
				Kind:        core.DeviceNIC,
				ID:          n.ID,
				HostID:      n.host.H.ID,
				CapacityBps: t.cfg.Switch.PortBandwidth,
				Backup:      n.Backup,
			}, aEnd)
			n.BE.SetControlLink(beEnd)
		}
		for _, id := range ssdIDs {
			d := t.SSDs[id]
			if d.wired {
				continue
			}
			aEnd, beEnd, err := ctl(d.host.H)
			if err != nil {
				return err
			}
			t.Alloc.AddDevice(allocator.DeviceInfo{Kind: core.DeviceSSD, ID: d.ID, HostID: d.host.H.ID, Backup: d.Backup}, aEnd)
			d.BE.SetControlLink(beEnd)
		}
		for _, ph := range hosts {
			if ph.SFE == nil || ph.sfeWired {
				continue
			}
			aEnd, sfeEnd, err := ctl(ph.H)
			if err != nil {
				return err
			}
			t.Alloc.AddStorageFrontend(ph.H.ID, aEnd)
			ph.SFE.SetControlLink(sfeEnd)
		}
		if fresh {
			if t.cfg.RaftReplicas > 0 {
				t.setupRaft()
			}
			t.launchAs(t.Alloc, t.scope+"alloc")
		}
	}

	// Shared host cores (§5.1): one driver core per host multiplexes the
	// host's frontend loops and locally-attached backend loops, polled in
	// seating order. Seats are taken before the launches below, which then
	// only make sure the shared core is polling.
	if t.cfg.SharedHostCore {
		for _, ph := range hosts {
			if !ph.wired {
				t.seat(ph.FE, ph)
			}
			if ph.SFE != nil && !ph.sfeWired {
				t.seat(ph.SFE, ph)
			}
		}
		for _, id := range nicIDs {
			if n := t.NICs[id]; n.BE != nil && !n.wired {
				t.seat(n.BE, n.host)
			}
		}
		for _, id := range ssdIDs {
			if d := t.SSDs[id]; !d.wired {
				t.seat(d.BE, d.host)
			}
		}
	}

	// Launch whatever is new — devices and their backends, then the hosts'
	// loops, then the stacks — and mark it wired.
	for _, id := range nicIDs {
		n := t.NICs[id]
		if n.wired {
			continue
		}
		n.Dev.Start()
		n.Dev.RegisterObs(t.obs, t.nicName(id))
		if n.BE != nil {
			t.launch(n.BE)
		}
		n.wired = true
	}
	for _, id := range ssdIDs {
		d := t.SSDs[id]
		if d.wired {
			continue
		}
		d.Dev.Start()
		d.Dev.RegisterObs(t.obs, t.ssdName(id))
		t.launch(d.BE)
		d.wired = true
	}
	for _, ph := range hosts {
		if !ph.wired {
			if ph.H.Cache != nil {
				ph.H.Cache.RegisterObs(t.obs, ph.H.Name+"/cache")
			}
			t.launch(ph.FE)
		}
		if ph.SFE != nil && !ph.sfeWired {
			t.launch(ph.SFE)
			ph.sfeWired = true
		}
		if ph.LD != nil && !ph.wired {
			t.launch(ph.LD)
		}
		ph.wired = true
	}
	for _, inst := range t.instances {
		if !inst.wired {
			inst.Stack.Start()
			inst.wired = true
		}
	}
	for _, c := range t.clients {
		if !c.wired {
			c.Stack.Start()
			c.wired = true
		}
	}
	// Every node's pool port (host, NIC and SSD DMA) attached since the
	// last pass; the pool keeps them in attach order.
	ports := t.Pool.Ports()
	for _, pt := range ports[t.obsPorts:] {
		pt.RegisterObs(t.obs, "cxl/port/"+pt.Name())
	}
	t.obsPorts = len(ports)
	return nil
}
