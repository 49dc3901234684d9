package oasis

import (
	"fmt"

	"oasis/internal/core"
	"oasis/internal/faults"
	"oasis/internal/topo"
)

// BindFaults creates (once) the topology's fault injector and registers the
// handler for every fault kind. Call it after Start — targets are resolved
// at injection time against the live topology. The injector's instruments
// register under faults/* in the pod registry (pod<P>/faults/* for cluster
// pods), so chaos campaigns show up in Stats alongside everything else.
//
// Targets use the internal/topo grammar (the same strings the cluster
// placement layer uses), per kind:
//
//	host-crash, cxl-degrade, cxl-jitter:   "host<N>"  (pod host index)
//	engine-stall:                          a driver core name ("host2/storage-be1", "host0/fe", …)
//	nic-link-down, port-flap, nic-lossy,
//	link-flaky:                            "nic<N>"   (pooled NIC id)
//	ssd-fail, ssd-slow:                    "ssd<N>"   (pooled SSD id)
//
// Any form may carry a "pod<P>/" scope; a pod injector accepts it only if P
// is its own pod index (Cluster.RunFaultPlan routes scoped events to the
// right pod's injector).
//
// HostCrash stalls every driver core on the host (engines freeze, telemetry
// stops — the allocator sees lease expiries) and stops the host's raft
// replica if it carries one; healing resumes the cores and restarts the
// replica, which rejoins as a follower. A crashed allocator host is the
// "allocator leader loss" scenario: proposals fail over to the re-elected
// leader and the allocator rebuilds leases when its core resumes.
func (t *Topology) BindFaults() *faults.Injector {
	if t.injector != nil {
		return t.injector
	}
	in := faults.NewInjector(t.Eng)
	t.injector = in

	in.Handle(faults.HostCrash, faults.Handler{
		Inject: func(ev faults.Event) error {
			ph, idx, err := t.faultHost(ev.Target)
			if err != nil {
				return err
			}
			for _, d := range t.hostDrivers(ph) {
				d.Stall()
			}
			if idx < len(t.Raft) {
				t.Raft[idx].Stop()
			}
			return nil
		},
		Heal: func(ev faults.Event) error {
			ph, idx, err := t.faultHost(ev.Target)
			if err != nil {
				return err
			}
			for _, d := range t.hostDrivers(ph) {
				d.Resume()
			}
			if idx < len(t.Raft) {
				t.Raft[idx].Restart()
			}
			return nil
		},
	})
	in.Handle(faults.EngineStall, faults.Handler{
		Inject: func(ev faults.Event) error {
			d, err := t.faultDriver(ev.Target)
			if err != nil {
				return err
			}
			d.Stall()
			return nil
		},
		Heal: func(ev faults.Event) error {
			d, err := t.faultDriver(ev.Target)
			if err != nil {
				return err
			}
			d.Resume()
			return nil
		},
	})
	in.Handle(faults.NICLinkDown, faults.Handler{
		Inject: func(ev faults.Event) error {
			n, err := t.faultNIC(ev.Target)
			if err != nil {
				return err
			}
			n.Dev.ForceLink(false)
			return nil
		},
		Heal: func(ev faults.Event) error {
			n, err := t.faultNIC(ev.Target)
			if err != nil {
				return err
			}
			n.Dev.ForceLink(true)
			return nil
		},
	})
	in.Handle(faults.SSDFail, faults.Handler{
		Inject: func(ev faults.Event) error {
			d, err := t.faultSSD(ev.Target)
			if err != nil {
				return err
			}
			d.Dev.Fail()
			return nil
		},
		Heal: func(ev faults.Event) error {
			d, err := t.faultSSD(ev.Target)
			if err != nil {
				return err
			}
			d.Dev.Repair()
			return nil
		},
	})
	in.Handle(faults.PortFlap, faults.Handler{
		Inject: func(ev faults.Event) error {
			n, err := t.faultNIC(ev.Target)
			if err != nil {
				return err
			}
			n.SwPort.SetEnabled(false)
			return nil
		},
		Heal: func(ev faults.Event) error {
			n, err := t.faultNIC(ev.Target)
			if err != nil {
				return err
			}
			n.SwPort.SetEnabled(true)
			return nil
		},
	})
	in.Handle(faults.CXLDegrade, faults.Handler{
		Inject: func(ev faults.Event) error {
			ph, _, err := t.faultHost(ev.Target)
			if err != nil {
				return err
			}
			if ph.H.CXLPort == nil {
				return fmt.Errorf("oasis: %s has no CXL port", ev.Target)
			}
			ph.H.CXLPort.SetDegraded(ev.LatMult, ev.BWFrac)
			return nil
		},
		Heal: func(ev faults.Event) error {
			ph, _, err := t.faultHost(ev.Target)
			if err != nil {
				return err
			}
			if ph.H.CXLPort == nil {
				return fmt.Errorf("oasis: %s has no CXL port", ev.Target)
			}
			ph.H.CXLPort.SetDegraded(1, 1)
			return nil
		},
	})

	in.Handle(faults.SSDSlow, faults.Handler{
		Inject: func(ev faults.Event) error {
			d, err := t.faultSSD(ev.Target)
			if err != nil {
				return err
			}
			d.Dev.SetSlow(ev.LatMult)
			return nil
		},
		Heal: func(ev faults.Event) error {
			d, err := t.faultSSD(ev.Target)
			if err != nil {
				return err
			}
			d.Dev.SetSlow(1)
			return nil
		},
	})
	in.Handle(faults.NICLossy, faults.Handler{
		Inject: func(ev faults.Event) error {
			n, err := t.faultNIC(ev.Target)
			if err != nil {
				return err
			}
			// The drop sequence's seed is derived from the event itself so a
			// replayed plan drops the exact same frames.
			seed := int64(ev.At)
			for _, c := range ev.Target {
				seed = seed*131 + int64(c)
			}
			n.Dev.SetLossy(ev.Drop, seed)
			return nil
		},
		Heal: func(ev faults.Event) error {
			n, err := t.faultNIC(ev.Target)
			if err != nil {
				return err
			}
			n.Dev.ClearLossy()
			return nil
		},
	})
	in.Handle(faults.CXLJitter, faults.Handler{
		Inject: func(ev faults.Event) error {
			ph, _, err := t.faultHost(ev.Target)
			if err != nil {
				return err
			}
			if ph.H.CXLPort == nil {
				return fmt.Errorf("oasis: %s has no CXL port", ev.Target)
			}
			ph.H.CXLPort.SetJitter(ev.Jitter)
			return nil
		},
		Heal: func(ev faults.Event) error {
			ph, _, err := t.faultHost(ev.Target)
			if err != nil {
				return err
			}
			if ph.H.CXLPort == nil {
				return fmt.Errorf("oasis: %s has no CXL port", ev.Target)
			}
			ph.H.CXLPort.SetJitter(0)
			return nil
		},
	})
	// link-flaky pulses a switch port down for Stall every Period. A pulse
	// shorter than the NIC's PHY debounce never reaches the link-status
	// register, so the backend sees a link that is "up" while frames stall
	// intermittently — detectable only by its effects. The generation map
	// stops the pulse train at heal time without leaving the port down.
	flakyGen := make(map[string]int)
	in.Handle(faults.LinkFlaky, faults.Handler{
		Inject: func(ev faults.Event) error {
			n, err := t.faultNIC(ev.Target)
			if err != nil {
				return err
			}
			flakyGen[ev.Target]++
			gen := flakyGen[ev.Target]
			var pulse func()
			pulse = func() {
				if flakyGen[ev.Target] != gen {
					return
				}
				n.SwPort.SetEnabled(false)
				t.Eng.After(ev.Stall, func() {
					n.SwPort.SetEnabled(true)
					if flakyGen[ev.Target] == gen {
						t.Eng.After(ev.Period-ev.Stall, pulse)
					}
				})
			}
			pulse()
			return nil
		},
		Heal: func(ev faults.Event) error {
			n, err := t.faultNIC(ev.Target)
			if err != nil {
				return err
			}
			flakyGen[ev.Target]++
			n.SwPort.SetEnabled(true)
			return nil
		},
	})

	in.RegisterObs(t.obs, t.scope+"faults")
	return in
}

// RunFaultPlan binds the injector (if needed) and schedules the plan.
func (t *Topology) RunFaultPlan(pl faults.Plan) error {
	return t.BindFaults().Schedule(pl)
}

// Injector returns the topology's fault injector (nil before BindFaults).
func (t *Topology) Injector() *faults.Injector { return t.injector }

// faultRef parses a target through the shared topo grammar and checks its
// pod scope against this topology: unscoped targets address the local pod,
// scoped ones must name it exactly.
func (t *Topology) faultRef(target string, want topo.Kind) (topo.Ref, error) {
	r, err := topo.Parse(target)
	if err != nil {
		return topo.Ref{}, fmt.Errorf("oasis: %w", err)
	}
	if r.Pod != topo.Unscoped && r.Pod != t.podIndex {
		return topo.Ref{}, fmt.Errorf("oasis: target %q is scoped to pod%d, not this pod", target, r.Pod)
	}
	if r.Kind != want {
		return topo.Ref{}, fmt.Errorf("oasis: target %q is a %s, want a %s", target, r.Kind, want)
	}
	return r, nil
}

// faultHost resolves a "host<N>" target.
func (t *Topology) faultHost(target string) (*Host, int, error) {
	r, err := t.faultRef(target, topo.KindHost)
	if err != nil {
		return nil, 0, err
	}
	if r.Index < 0 || r.Index >= len(t.Hosts) || t.Hosts[r.Index].removed {
		return nil, 0, fmt.Errorf("oasis: no such host %q", target)
	}
	return t.Hosts[r.Index], r.Index, nil
}

// faultNIC resolves a "nic<N>" target.
func (t *Topology) faultNIC(target string) (*NIC, error) {
	r, err := t.faultRef(target, topo.KindNIC)
	if err != nil {
		return nil, err
	}
	n, ok := t.NICs[uint16(r.Index)]
	if !ok {
		return nil, fmt.Errorf("oasis: no such NIC %q", target)
	}
	return n, nil
}

// faultSSD resolves an "ssd<N>" target.
func (t *Topology) faultSSD(target string) (*SSDDev, error) {
	r, err := t.faultRef(target, topo.KindSSD)
	if err != nil {
		return nil, err
	}
	d, ok := t.SSDs[uint16(r.Index)]
	if !ok {
		return nil, fmt.Errorf("oasis: no such SSD %q", target)
	}
	return d, nil
}

// faultDriver resolves an engine-stall target by driver core name. Driver
// names carry the pod scope already ("pod1/host2/fe" in a cluster), so the
// parsed local name is re-prefixed before the exact match.
func (t *Topology) faultDriver(target string) (*core.Driver, error) {
	r, err := t.faultRef(target, topo.KindDriver)
	if err != nil {
		return nil, err
	}
	name := t.scope + r.Name
	for _, d := range t.allDrivers() {
		if d.Name() == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("oasis: no driver core named %q", target)
}

// hostDrivers collects every driver core that runs on a host — the blast
// radius of a host crash. Deterministic order, deduped by pointer (shared
// host cores appear once).
func (t *Topology) hostDrivers(ph *Host) []*core.Driver {
	var out []*core.Driver
	seen := make(map[*core.Driver]bool)
	add := func(d *core.Driver) {
		if d != nil && !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	add(ph.Driver)
	add(ph.FE.Driver())
	if ph.SFE != nil {
		add(ph.SFE.Driver())
	}
	if ph.LD != nil {
		add(ph.LD.Driver())
	}
	for _, be := range ph.BEs {
		add(be.Driver())
	}
	for _, id := range t.ssdIDs() {
		if d := t.SSDs[id]; d.host == ph {
			add(d.BE.Driver())
		}
	}
	if t.Alloc != nil && len(t.Hosts) > 0 && t.Hosts[0] == ph {
		add(t.Alloc.Driver())
	}
	return out
}

// allDrivers collects every driver core in the topology in deterministic
// order.
func (t *Topology) allDrivers() []*core.Driver {
	var out []*core.Driver
	seen := make(map[*core.Driver]bool)
	for _, ph := range t.Hosts {
		for _, d := range t.hostDrivers(ph) {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	return out
}
