package oasis

import (
	"fmt"
	"math"

	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/faults"
	"oasis/internal/topo"
)

// faultNode is what a fault target resolves to: the field matching the
// binding's target kind is set (idx is the host's index, which is also its
// raft replica's).
type faultNode struct {
	host *Host
	idx  int
	nic  *NIC
	ssd  *SSDDev
	drv  *core.Driver
}

// faultBindings is the pod's half of the fault vocabulary, one row per
// faults.Kind: the kind of node the event's target must name (the
// internal/topo grammar, the same strings the cluster placement layer uses),
// and the one function that turns the fault on at inject time and off at
// heal time on that node:
//
//	topo.KindHost    "host<N>"  (pod host index)
//	topo.KindNIC     "nic<N>"   (pooled NIC id)
//	topo.KindSSD     "ssd<N>"   (pooled SSD id)
//	topo.KindDriver  a driver core name ("host2/storage-be1", "host0/fe", …)
//
// Any form may carry a "pod<P>/" scope; a pod accepts it only if P is its own
// pod index (Cluster.RunFaultPlan routes scoped events to the right pod).
// RunFaultPlan checks every target against this column before scheduling
// anything; BindFaults turns each row into the kind's injector handler.
var faultBindings = []struct {
	kind   faults.Kind
	target topo.Kind
	set    func(t *Pod, n faultNode, ev faults.Event, on bool) error
}{
	{faults.HostCrash, topo.KindHost, (*Pod).setHostCrash},
	{faults.EngineStall, topo.KindDriver, func(_ *Pod, n faultNode, _ faults.Event, on bool) error {
		stallDriver(n.drv, on)
		return nil
	}},
	{faults.NICLinkDown, topo.KindNIC, func(_ *Pod, n faultNode, _ faults.Event, on bool) error {
		n.nic.Dev.ForceLink(!on)
		return nil
	}},
	{faults.SSDFail, topo.KindSSD, func(_ *Pod, n faultNode, _ faults.Event, on bool) error {
		if on {
			n.ssd.Dev.Fail()
		} else {
			n.ssd.Dev.Repair()
		}
		return nil
	}},
	{faults.PortFlap, topo.KindNIC, func(_ *Pod, n faultNode, _ faults.Event, on bool) error {
		n.nic.SwPort.SetEnabled(!on)
		return nil
	}},
	{faults.CXLDegrade, topo.KindHost, func(_ *Pod, n faultNode, ev faults.Event, on bool) error {
		if !on {
			ev.LatMult, ev.BWFrac = 1, 1
		}
		return onCXLPort(n, ev, func(pt *cxl.Port) { pt.SetDegraded(ev.LatMult, ev.BWFrac) })
	}},
	{faults.SSDSlow, topo.KindSSD, func(_ *Pod, n faultNode, ev faults.Event, on bool) error {
		if !on {
			ev.LatMult = 1
		}
		n.ssd.Dev.SetSlow(ev.LatMult)
		return nil
	}},
	{faults.NICLossy, topo.KindNIC, func(_ *Pod, n faultNode, ev faults.Event, on bool) error {
		if !on {
			n.nic.Dev.ClearLossy()
			return nil
		}
		// The drop sequence's seed is derived from the event itself so a
		// replayed plan drops the exact same frames.
		seed := int64(ev.At)
		for _, c := range ev.Target {
			seed = seed*131 + int64(c)
		}
		n.nic.Dev.SetLossy(ev.Drop, seed)
		return nil
	}},
	{faults.CXLJitter, topo.KindHost, func(_ *Pod, n faultNode, ev faults.Event, on bool) error {
		if !on {
			ev.Jitter = 0
		}
		return onCXLPort(n, ev, func(pt *cxl.Port) { pt.SetJitter(ev.Jitter) })
	}},
	{faults.LinkFlaky, topo.KindNIC, (*Pod).setLinkFlaky},
}

// faultTarget returns the node kind a fault kind acts on (KindInvalid for a
// kind with no binding row).
func faultTarget(k faults.Kind) topo.Kind {
	for _, b := range faultBindings {
		if b.kind == k {
			return b.target
		}
	}
	return topo.KindInvalid
}

func stallDriver(d *core.Driver, on bool) {
	if on {
		d.Stall()
	} else {
		d.Resume()
	}
}

func onCXLPort(n faultNode, ev faults.Event, apply func(*cxl.Port)) error {
	if n.host.H.CXLPort == nil {
		return fmt.Errorf("oasis: %s has no CXL port", ev.Target)
	}
	apply(n.host.H.CXLPort)
	return nil
}

// setHostCrash stalls every driver core on the host (engines freeze,
// telemetry stops — the allocator sees lease expiries) and stops the host's
// raft replica if it carries one; healing resumes the cores and restarts the
// replica, which rejoins as a follower. A crashed allocator host is the
// "allocator leader loss" scenario: proposals fail over to the re-elected
// leader and the allocator rebuilds leases when its core resumes.
func (t *Pod) setHostCrash(n faultNode, _ faults.Event, on bool) error {
	for _, d := range t.hostDrivers(n.host) {
		stallDriver(d, on)
	}
	if n.idx < len(t.Raft) {
		if on {
			t.Raft[n.idx].Stop()
		} else {
			t.Raft[n.idx].Restart()
		}
	}
	return nil
}

// setLinkFlaky pulses a switch port down for Stall every Period. A pulse
// shorter than the NIC's PHY debounce never reaches the link-status
// register, so the backend sees a link that is "up" while frames stall
// intermittently — detectable only by its effects. The per-target generation
// stops the pulse train at heal time without leaving the port down.
func (t *Pod) setLinkFlaky(n faultNode, ev faults.Event, on bool) error {
	if t.flakyGen == nil {
		t.flakyGen = make(map[string]int)
	}
	t.flakyGen[ev.Target]++
	gen := t.flakyGen[ev.Target]
	if !on {
		n.nic.SwPort.SetEnabled(true)
		return nil
	}
	var pulse func()
	pulse = func() {
		if t.flakyGen[ev.Target] != gen {
			return
		}
		n.nic.SwPort.SetEnabled(false)
		t.Eng.After(ev.Stall, func() {
			n.nic.SwPort.SetEnabled(true)
			if t.flakyGen[ev.Target] == gen {
				t.Eng.After(ev.Period-ev.Stall, pulse)
			}
		})
	}
	pulse()
	return nil
}

// BindFaults creates (once) the pod's fault injector and registers one
// handler per faultBindings row: resolve the event's target against the live
// topology — at injection and again at heal time, so a node added after the
// plan was scheduled is found and a missing one is an injection-log error,
// not a panic — then set the fault on or off. Call it after Start. The
// injector's instruments register under faults/* in the pod registry
// (pod<P>/faults/* for cluster pods), so chaos campaigns show up in Stats
// alongside everything else.
func (t *Pod) BindFaults() *faults.Injector {
	if t.injector != nil {
		return t.injector
	}
	in := faults.NewInjector(t.Eng)
	t.injector = in
	for _, b := range faultBindings {
		flip := func(on bool) func(faults.Event) error {
			return func(ev faults.Event) error {
				n, err := t.resolve(ev.Target, b.target)
				if err != nil {
					return err
				}
				return b.set(t, n, ev, on)
			}
		}
		in.Handle(b.kind, faults.Handler{Inject: flip(true), Heal: flip(false)})
	}
	in.RegisterObs(t.obs, t.scope+"faults")
	return in
}

// RunFaultPlan binds the injector (if needed), checks every event's target
// against its kind's binding — the text must parse, a pod scope must be this
// pod's, and the node kind must be the one the fault acts on — and schedules
// the plan. A plan that fails the check schedules nothing. Whether the named
// node exists is left to injection time: it may be added after this call.
func (t *Pod) RunFaultPlan(pl faults.Plan) error {
	in := t.BindFaults()
	if err := pl.Validate(); err != nil {
		return err
	}
	for i, ev := range pl.Events {
		if _, err := t.faultRef(ev.Target, faultTarget(ev.Kind)); err != nil {
			return fmt.Errorf("oasis: fault plan event %d (%v): %w", i, ev.Kind, err)
		}
	}
	return in.Schedule(pl)
}

// Injector returns the pod's fault injector (nil before BindFaults).
func (t *Pod) Injector() *faults.Injector { return t.injector }

// faultRef parses a target through the shared topo grammar and checks its
// pod scope against this pod: unscoped targets address the local pod,
// scoped ones must name it exactly. A device index has to fit the id type.
func (t *Pod) faultRef(target string, want topo.Kind) (topo.Ref, error) {
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
	if (want == topo.KindNIC || want == topo.KindSSD) && r.Index > math.MaxUint16 {
		// Device ids are uint16: a larger index names no device now or later,
		// and must not reach resolve's map lookup truncated.
		return topo.Ref{}, fmt.Errorf("oasis: no such %s %q", want, target)
	}
	return r, nil
}

// resolve is faultRef plus the lookup of the named node in the live
// topology. Driver core names carry the pod scope already ("pod1/host2/fe"
// in a cluster), so the parsed local name is re-prefixed before the exact
// match.
func (t *Pod) resolve(target string, want topo.Kind) (n faultNode, err error) {
	r, err := t.faultRef(target, want)
	if err != nil {
		return n, err
	}
	found := false
	switch want {
	case topo.KindHost:
		if found = r.Index < len(t.Hosts); found {
			n.host, n.idx = t.Hosts[r.Index], r.Index
		}
	case topo.KindNIC:
		n.nic, found = t.NICs[uint16(r.Index)]
	case topo.KindSSD:
		n.ssd, found = t.SSDs[uint16(r.Index)]
	case topo.KindDriver:
		for _, d := range t.allDrivers() {
			if d.Name() == t.scope+r.Name {
				n.drv, found = d, true
				break
			}
		}
	}
	if !found {
		return n, fmt.Errorf("oasis: no such %s %q", want, target)
	}
	return n, nil
}

// hostDrivers collects every driver core that runs on a host — the blast
// radius of a host crash — in deterministic order. Each engine has a core of
// its own, so no core appears twice.
func (t *Pod) hostDrivers(ph *Host) []*core.Driver {
	out := []*core.Driver{ph.FE.Driver}
	if ph.SFE != nil {
		out = append(out, ph.SFE.Driver)
	}
	if ph.LD != nil {
		out = append(out, ph.LD.Driver)
	}
	for _, id := range t.nicIDs() {
		if n := t.NICs[id]; n.host == ph && n.BE != nil {
			out = append(out, n.BE.Driver)
		}
	}
	for _, id := range t.ssdIDs() {
		if d := t.SSDs[id]; d.host == ph {
			out = append(out, d.BE.Driver)
		}
	}
	if t.Alloc != nil && len(t.Hosts) > 0 && t.Hosts[0] == ph {
		out = append(out, t.Alloc.Driver)
	}
	return out
}

// allDrivers collects every driver core in the pod in deterministic
// order.
func (t *Pod) allDrivers() []*core.Driver {
	var out []*core.Driver
	for _, ph := range t.Hosts {
		out = append(out, t.hostDrivers(ph)...)
	}
	return out
}
