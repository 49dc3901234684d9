package oasis

import "fmt"

// RemoveInstanceErr detaches an instance from the pod: its volume (if
// any) is removed, the allocator forgets its placement, and the frontend
// drops its port. The caller is responsible for quiescing the instance's
// traffic first; its stack process idles afterwards (the engine is
// cooperative, an idle stack costs nothing). Baseline local instances are
// construct-then-run and cannot be removed.
func (t *Pod) RemoveInstanceErr(inst *Instance) error {
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
	t.releaseIP(ip)
	return nil
}
