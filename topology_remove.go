package oasis

import (
	"fmt"

	"oasis/internal/core"
	"oasis/internal/topo"
)

// RemoveInstanceErr detaches an instance from the topology: its volume (if
// any) is removed, the allocator forgets its placement, and the frontend
// drops its port. The caller is responsible for quiescing the instance's
// traffic first; its stack process idles afterwards (the engine is
// cooperative, an idle stack costs nothing). Baseline local instances are
// construct-then-run and cannot be removed.
func (t *Topology) RemoveInstanceErr(inst *Instance) error {
	idx := -1
	for i, in := range t.instances {
		if in == inst {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("oasis: %w: instance %v", ErrNoSuchNode, inst.IPAddr())
	}
	if inst.Port == nil {
		return fmt.Errorf("oasis: %w: baseline local instance %v cannot be removed", ErrNodeInUse, inst.IPAddr())
	}
	ip := inst.IPAddr()
	if sfe := inst.host.SFE; sfe != nil && sfe.Volume(ip) != nil {
		if err := sfe.RemoveVolume(ip); err != nil {
			return err
		}
	}
	if t.Alloc != nil {
		t.Alloc.ReleaseInstance(ip)
	}
	if err := inst.host.FE.RemoveInstance(ip); err != nil {
		return err
	}
	t.instances = append(t.instances[:idx], t.instances[idx+1:]...)
	t.dropNode(topo.Ref{Pod: topo.Unscoped, Kind: topo.KindInstance, Name: ip.String()}.String())
	return nil
}

// RemoveHostErr removes a pod host. The host must be empty — no live
// instances (migrate or remove them first; ErrHostNotEmpty otherwise), no
// device backends, no volumes — and must not carry the allocator or a raft
// replica (ErrNodeInUse). The host's slot in Hosts is retained so host
// indices stay stable; after Start its driver cores are stalled for good.
func (t *Topology) RemoveHostErr(ph *Host) error {
	if err := t.checkHost(ph); err != nil {
		return err
	}
	idx := -1
	for i, h := range t.Hosts {
		if h == ph {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("oasis: %w: host not in this topology", ErrNoSuchNode)
	}
	live := 0
	for _, inst := range t.instances {
		if inst.host == ph {
			live++
		}
	}
	if live > 0 {
		return fmt.Errorf("oasis: %w: %s has %d live instance(s); migrate or remove them first",
			ErrHostNotEmpty, ph.H.Name, live)
	}
	for _, id := range t.nicIDs() {
		if t.NICs[id].host == ph {
			return fmt.Errorf("oasis: %w: %s still owns %s", ErrHostNotEmpty, ph.H.Name, t.nicName(id))
		}
	}
	for _, id := range t.ssdIDs() {
		if t.SSDs[id].host == ph {
			return fmt.Errorf("oasis: %w: %s still owns %s", ErrHostNotEmpty, ph.H.Name, t.ssdName(id))
		}
	}
	if ph.SFE != nil && ph.SFE.VolumeCount() > 0 {
		return fmt.Errorf("oasis: %w: %s still serves %d volume(s)", ErrHostNotEmpty, ph.H.Name, ph.SFE.VolumeCount())
	}
	if idx == 0 && !t.cfg.NoAllocator {
		return fmt.Errorf("oasis: %w: %s hosts the pod allocator", ErrNodeInUse, ph.H.Name)
	}
	if t.cfg.RaftReplicas > 0 && idx < t.cfg.RaftReplicas {
		return fmt.Errorf("oasis: %w: %s carries raft replica %d", ErrNodeInUse, ph.H.Name, idx)
	}
	ph.removed = true
	if t.started {
		for _, d := range t.hostDrivers(ph) {
			d.Stall()
		}
		if t.Alloc != nil {
			t.Alloc.RemoveFrontend(ph.H.ID)
		}
	}
	t.dropNode(topo.Ref{Pod: topo.Unscoped, Kind: topo.KindHost, Index: idx}.String())
	return nil
}

// RemoveNICErr removes a pooled NIC. The NIC must be idle: no instance may
// hold it as primary, backup, or pending migration target, and the
// allocator must not have placements on it (ErrNodeInUse otherwise). After
// Start the device's switch port is disabled, its dedicated backend core
// (if any) is stalled, and every frontend drops its link to it.
func (t *Topology) RemoveNICErr(id uint16) error {
	n, ok := t.NICs[id]
	if !ok {
		return fmt.Errorf("oasis: %w: %s", ErrNoSuchNode, t.nicName(id))
	}
	if n.BE == nil {
		return fmt.Errorf("oasis: %w: %s serves a baseline local driver", ErrNodeInUse, t.nicName(id))
	}
	for _, inst := range t.instances {
		if inst.Port != nil && inst.Port.UsesNIC(id) {
			return fmt.Errorf("oasis: %w: instance %v is attached to %s", ErrNodeInUse, inst.IPAddr(), t.nicName(id))
		}
	}
	if t.Alloc != nil && t.Alloc.InstancesOn(id) > 0 {
		return fmt.Errorf("oasis: %w: allocator has %d placement(s) on %s", ErrNodeInUse, t.Alloc.InstancesOn(id), t.nicName(id))
	}
	if t.started {
		n.SwPort.SetEnabled(false)
		if !t.cfg.SharedHostCore {
			if d := n.BE.Driver(); d != nil {
				d.Stall()
			}
		}
	}
	if t.Alloc != nil {
		t.Alloc.RemoveDevice(core.DeviceNIC, id)
	}
	for _, ph := range t.Hosts {
		ph.FE.DisconnectBackend(id)
	}
	for i, be := range n.host.BEs {
		if be == n.BE {
			n.host.BEs = append(n.host.BEs[:i], n.host.BEs[i+1:]...)
			break
		}
	}
	delete(t.NICs, id)
	delete(t.nicDir, id)
	t.dropNode(topo.Ref{Pod: topo.Unscoped, Kind: topo.KindNIC, Index: int(id)}.String())
	return nil
}

// RemoveSSDErr removes a pooled SSD. The drive must be idle: no volume may
// be bound to it as primary or mirror on any host, and it must not be the
// designated backup drive while volumes exist (ErrNodeInUse otherwise).
// After Start its dedicated backend core (if any) is stalled and every
// storage frontend drops its link to it.
func (t *Topology) RemoveSSDErr(id uint16) error {
	d, ok := t.SSDs[id]
	if !ok {
		return fmt.Errorf("oasis: %w: %s", ErrNoSuchNode, t.ssdName(id))
	}
	for _, ph := range t.liveHosts() {
		if ph.SFE != nil && ph.SFE.UsesSSD(id) {
			return fmt.Errorf("oasis: %w: %s has volumes bound to %s", ErrNodeInUse, ph.H.Name, t.ssdName(id))
		}
	}
	if t.started && !t.cfg.SharedHostCore {
		if drv := d.BE.Driver(); drv != nil {
			drv.Stall()
		}
	}
	if t.Alloc != nil {
		t.Alloc.RemoveDevice(core.DeviceSSD, id)
	}
	for _, ph := range t.Hosts {
		if ph.SFE != nil {
			ph.SFE.DisconnectBackend(id)
		}
	}
	delete(t.SSDs, id)
	t.dropNode(topo.Ref{Pod: topo.Unscoped, Kind: topo.KindSSD, Index: int(id)}.String())
	return nil
}
