package oasis

import (
	"oasis/internal/allocator"
	"oasis/internal/core"
	"oasis/internal/host"
	"oasis/internal/obs"
)

// instrumented is all the wiring pass needs of a device engine or the
// allocator beside its driver core: a way to register its instruments.
type instrumented interface {
	RegisterObs(r *obs.Registry, prefix string)
}

// launch is the one launch path of driver core d and its engine e. On the
// node's first wiring pass (fresh) it registers e's instruments under the
// core's name and the core's under core/<core name>; it starts d on the
// first pass at which e has a user (used), and d runs from then on (Start
// is idempotent). Every engine has a user from its wiring except a host's
// network frontend, which serves that host's instances: its core starts with
// the first of them, as a host's storage frontend is made on its first
// volume, while its series exist from the host's wiring whatever the
// placement. Registration order is invisible: Snapshot sorts by name.
func (t *Pod) launch(d *core.Driver, e instrumented, fresh, used bool) {
	t.launchAs(d, e, d.Name(), fresh, used)
}

// launchAs is launch with e's instruments under prefix instead (the
// allocator's series are <scope>alloc/*, not its core's name).
func (t *Pod) launchAs(d *core.Driver, e instrumented, prefix string, fresh, used bool) {
	if used {
		d.Start()
	}
	if fresh {
		e.RegisterObs(t.obs, prefix)
		d.RegisterObs(t.obs, "core/"+d.Name())
	}
}

// wire is the one wiring pass. It brings the live pod up to date with the
// node graph: data links between every frontend and every backend, the
// backup-drive mirror, the allocator with a control link per driver, the
// raft group, and finally every launch, each with its metric registration.
// Start runs it over the whole graph; every add after Start runs it again,
// and the per-node wired marks (Host, Host.SFE, NIC, SSDDev, and the
// instance and client stacks) make it touch only what is new — an edge is
// made iff one of its endpoints is not yet wired, a node's engine is
// registered iff the node is not, and a core starts once its engine has a
// user (see launch). Before Start it does nothing.
//
// The order is fixed (sorted device ids, host insertion order) and is part
// of the simulated result: it decides pool addresses and process spawn
// order. The engine is cooperative, so growing link sets between poll
// iterations is safe. An error (the pool cannot hold another channel) leaves
// the new nodes partly wired.
func (t *Pod) wire() error {
	if !t.started {
		return nil
	}
	nicIDs, ssdIDs := t.nicIDs(), t.ssdIDs()

	// Data links: every frontend to every backend.
	for _, ph := range t.Hosts {
		for _, id := range nicIDs {
			n := t.NICs[id]
			if n.BE == nil || (ph.wired && n.wired) {
				continue // a baseline local NIC has no backend driver
			}
			feEnd, beEnd, err := core.NewDuplexLink(t.Pool, ph.H, n.host.H, t.cfg.Engine.Chan)
			if err != nil {
				return err
			}
			ph.FE.ConnectBackend(n.ID, feEnd)
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
			if err := ph.SFE.ConnectBackend(d.BE); err != nil {
				return err
			}
		}
	}

	// Backup-drive mirroring: every storage frontend mirrors its volumes
	// onto the pod's reserved backup drive (the §3.3.3 mechanism applied to
	// storage). Needs the backend mesh above so mirror registrations can
	// ride the normal request path.
	if bid := t.backupSSDID(); bid != 0 {
		for _, ph := range t.Hosts {
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
		for _, ph := range t.Hosts {
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
			n.BE.SetControlLink(beEnd, t.cfg.Allocator.TelemetryEvery)
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
			d.BE.SetControlLink(beEnd, t.cfg.Allocator.TelemetryEvery)
		}
		for _, ph := range t.Hosts {
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
			t.launchAs(t.Alloc.Driver, t.Alloc, t.scope+"alloc", true, true)
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
			t.launch(n.BE.Driver, n.BE, true, true)
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
		t.launch(d.BE.Driver, d.BE, true, true)
		d.wired = true
	}
	for _, ph := range t.Hosts {
		if !ph.wired && ph.H.Cache != nil {
			ph.H.Cache.RegisterObs(t.obs, ph.H.Name+"/cache")
		}
		t.launch(ph.FE.Driver, ph.FE, !ph.wired, ph.FE.Instances() > 0)
		if ph.SFE != nil && !ph.sfeWired {
			t.launch(ph.SFE.Driver, ph.SFE, true, true)
			ph.sfeWired = true
		}
		if ph.LD != nil && !ph.wired {
			t.launch(ph.LD.Driver, ph.LD, true, true)
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
