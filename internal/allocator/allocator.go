// Package allocator implements Oasis's pod-wide allocator (§3.5): the
// logically-centralized control plane that maps PCIe devices to instances,
// ingests 100 ms telemetry from backend drivers, places new instances
// (host-local first, then least-loaded), and orchestrates NIC failover and
// graceful migration. It is never on the data path.
//
// The allocator converses with every frontend and backend driver over the
// datapath's message channels, speaking the shared control protocol
// (core.ControlMsg) that all device engines use. It tracks devices, not NICs
// and SSDs: one record per device, one telemetry/lease path for every kind.
// Host failures are inferred from missing telemetry (lease expiry), device
// failures also arrive as explicit link-down reports or as a telemetry record
// that says so. What a failure sets off is per-kind policy: a failed NIC
// triggers transparent failover (§3.3.3); a failed SSD triggers the same
// mechanism applied to storage — volumes re-bind onto the pod's backup drive
// under a bumped fencing epoch, or are declared lost when no backup exists
// (§3.4's error propagation). When every lease-tracked device on a host
// expires in the same pass, the host is presumed dead and all of its engines
// have been re-placed onto survivors. State can be replicated across peers
// with the raft package (see Replicate), matching §3.5's "replicated with
// Raft" design; a Propose that fails (e.g. mid-election after a leader crash)
// is retried with exponential backoff, and an allocator that was itself off
// the air rebuilds its leases from the next telemetry window instead of
// mass-expiring survivors.
package allocator

import (
	"fmt"
	"sort"
	"time"

	"oasis/internal/core"
	"oasis/internal/host"
	"oasis/internal/metrics"
	"oasis/internal/netstack"
	"oasis/internal/obs"
	"oasis/internal/sim"
)

// Config tunes the allocator.
type Config struct {
	// LeaseTimeout is how long a device may go silent (no telemetry) before
	// its host is presumed dead: a NIC's instances are failed over, an SSD
	// is marked down.
	LeaseTimeout sim.Duration

	// Rebalance enables the §6 "load balancing policies" extension: when a
	// NIC's telemetry-reported load exceeds RebalanceHigh (fraction of
	// capacity) and another non-backup NIC sits below RebalanceLow, one
	// instance is gracefully migrated from hot to cold. The paper only
	// rebalances at instance start and failure; this policy exploits the
	// fine-grained telemetry it already collects.
	Rebalance      bool
	RebalanceHigh  float64
	RebalanceLow   float64
	RebalanceEvery sim.Duration

	// AERFailThreshold is the per-telemetry-window count of uncorrectable
	// PCIe AER errors (§3.5's health metrics) above which a NIC is treated
	// as failing and proactively failed over — before the link even drops.
	// 0 disables the policy.
	AERFailThreshold uint16

	// Health enables the gray-failure scorer: per-telemetry-window
	// peer-relative outlier detection on the soft signals fail-stop
	// machinery never sees — a NIC's soft error/drop count, a drive's mean
	// request service latency. A device whose metric exceeds HealthFactor
	// times the mean of its healthy peers (and an absolute floor, so idle
	// pods don't flag noise) for HealthWindows consecutive windows is
	// quarantined and proactively evacuated: volumes re-bind off a suspect
	// drive under a bumped epoch, instances migrate off a suspect NIC.
	// The link stays up throughout — this is the degraded-mode complement
	// to the fail-stop lease/link-down paths.
	Health bool
	// HealthWindows is how many consecutive suspect windows are required
	// before evacuation (debounce against one-window blips).
	HealthWindows int
	// HealthFactor is the outlier multiplier over the healthy-peer mean.
	HealthFactor float64
	// HealthErrFloor is the minimum per-window soft error count for a NIC
	// to be considered suspect at all.
	HealthErrFloor uint16
	// HealthLatFloorUs is the minimum mean service latency (µs) for a
	// drive to be considered suspect at all; set it above the loaded
	// latency of a healthy drive.
	HealthLatFloorUs uint16
}

// DefaultConfig returns production-flavoured defaults (§3.5: telemetry
// every 100 ms; three missed records expire the lease).
func DefaultConfig() Config {
	return Config{
		LeaseTimeout:     300 * time.Millisecond,
		RebalanceHigh:    0.80,
		RebalanceLow:     0.50,
		RebalanceEvery:   500 * time.Millisecond,
		AERFailThreshold: 16,
		// Gray-failure scoring is opt-in (Health: false): the floors below
		// are sane defaults for deployments that switch it on.
		HealthWindows:    3,
		HealthFactor:     4,
		HealthErrFloor:   8,
		HealthLatFloorUs: 400,
	}
}

// The allocator core's pacing: per-iteration cost, the bound on its idle
// backoff, and the messages drained per link (and deferred commands run)
// per iteration.
const (
	pollCost = 200 * time.Nanosecond
	idleCap  = 20 * time.Microsecond
	burst    = 32
)

// telemetryWindow is the window the allocator assumes a telemetry record's
// byte count covers when it converts it to bytes/s. It is the §3.5 default,
// not the backend's configured TelemetryEvery: a deployment that reports
// faster (chaos and grayfail run 40 ms windows) has its load under-reported
// by the ratio (see DESIGN.md §9).
const telemetryWindow = 100 * time.Millisecond

// DeviceInfo describes one pooled device to the allocator.
type DeviceInfo struct {
	Kind   core.DeviceKind
	ID     uint16 // pod-wide, in Kind's namespace
	HostID int
	// CapacityBps is the device's bandwidth for placement (NICs only).
	CapacityBps float64
	// Backup marks the kind's reserved per-pod backup device (§3.3.3's
	// backup NIC, and the same mechanism applied to drives).
	Backup bool
}

// device is the allocator's record of one pooled device of any kind. It
// hangs off Link.Meta of the device's control link in its kind's LinkSet, so
// the link table is the device table.
type device struct {
	DeviceInfo
	DeviceView
	lastSeen sim.Duration
	demand   float64 // sum of placed instances' demands (NICs only)
	// health is the last window's value of the kind's gray-failure signal:
	// a NIC's soft error/drop count, a drive's mean service latency in µs.
	health  uint16
	suspect int // consecutive windows the health scorer flagged this device
}

// DeviceView is the allocator's current view of one device: what telemetry
// last said and what the allocator's policies have decided about it.
type DeviceView struct {
	Up         bool
	LoadBps    float64 // from telemetry, bytes/s
	QueueDepth uint16  // from telemetry
	// Quarantined: the health scorer evacuated the device; placement skips it.
	Quarantined bool
	// Epoch fences a drive's generation of ownership: it is bumped on every
	// failover away from the drive, and storage frontends stamp it into
	// requests so a zombie backend's late completions are rejected.
	Epoch uint16
}

type instState struct {
	ip      netstack.IP
	hostID  int
	demand  float64
	primary uint16
	backup  uint16
}

// Allocator is the control-plane service. Run it with Start on its host
// (the embedded seat gives it a core of its own unless it joined one).
type Allocator struct {
	core.Seat
	h   *host.Host
	cfg Config

	// Control links, one set per class of peer, polled and flushed in this
	// order every iteration (so a late-added host still polls before every
	// NIC). The device sets are keyed by device id and carry the *device in
	// Link.Meta; the frontend sets are keyed by host id. Storage frontends
	// only listen — SSD failover commands are broadcast to them — so their
	// links are flushed but never polled.
	frontends  *core.LinkSet
	nics       *core.LinkSet
	ssds       *core.LinkSet
	storageFEs *core.LinkSet

	insts map[netstack.IP]*instState

	// instDemand lets the deployment declare expected per-instance NIC
	// bandwidth (the "instance type", §3.1); default if absent.
	instDemand    map[netstack.IP]float64
	defaultDemand float64

	cmds       *sim.Queue[func(p *sim.Proc)]
	rep        replicator
	timersInit bool
	nextLease  sim.Duration
	nextRebal  sim.Duration
	lastPoll   sim.Duration

	// events receives decision trace events when RegisterObs hooked the
	// allocator to a pod trace ring (nil-safe otherwise).
	events *obs.TraceRing

	// recoveryDetect records how long failures went unnoticed before a lease
	// expiry caught them (detection latency, the first leg of recovery time).
	recoveryDetect *metrics.Histogram

	// Stats.
	Placements           int64
	Failovers            int64
	SSDFailovers         int64
	LeaseExpiries        int64
	SSDLeaseExpiries     int64
	Migrations           int64
	Rebalances           int64
	AERFailovers         int64
	HealthNICEvacs       int64
	HealthSSDEvacs       int64
	HostDeaths           int64
	LeaseReconstructions int64
	ProposeRetries       int64
	ProposeDrops         int64
	AssignResends        int64
}

// replicator abstracts the Raft log: Propose blocks conceptually until the
// command is committed, then the allocator applies it. The nullReplicator
// commits immediately (single-node operation).
type replicator interface {
	Propose(p *sim.Proc, cmd []byte) bool
}

type nullReplicator struct{}

func (nullReplicator) Propose(*sim.Proc, []byte) bool { return true }

// New creates an allocator hosted on h.
func New(h *host.Host, cfg Config) *Allocator {
	a := &Allocator{
		h:              h,
		cfg:            cfg,
		frontends:      core.NewLinkSet(0),
		nics:           core.NewLinkSet(0),
		ssds:           core.NewLinkSet(0),
		storageFEs:     core.NewLinkSet(0),
		insts:          make(map[netstack.IP]*instState),
		instDemand:     make(map[netstack.IP]float64),
		defaultDemand:  1e9, // 8 Gbit/s default ask
		cmds:           sim.NewQueue[func(p *sim.Proc)](h.Eng),
		rep:            nullReplicator{},
		recoveryDetect: &metrics.Histogram{},
	}
	// One iteration: deferred commands, frontend requests, backend
	// telemetry (NIC and SSD), and the lease and rebalance windows.
	a.Seat = core.NewSeat(h.Name+"/allocator", []core.Stage{
		core.WorkStage("commands", a.commandsIdle, a.runCommands),
		core.PollStage("frontend requests", a.frontends, burst, a.handleFE),
		core.PollStage("nic reports", a.nics, burst, a.ingest),
		core.PollStage("ssd reports", a.ssds, burst, a.ingest),
		core.WorkStage("windows and flush", a.windowsIdle, a.windowsAndFlush),
	}, h, core.DriverConfig{LoopCost: pollCost, IdleBackoff: idleCap})
	return a
}

// Replicate installs a Raft-backed replicator (§3.5). Decisions are
// proposed to the log before being applied and broadcast.
func (a *Allocator) Replicate(r replicator) { a.rep = r }

// class returns the link set — and with it the device table — of one kind.
func (a *Allocator) class(kind core.DeviceKind) *core.LinkSet {
	if kind == core.DeviceSSD {
		return a.ssds
	}
	return a.nics
}

// dev returns the device record riding on a device-class link.
func dev(l *core.Link) *device { return l.Meta.(*device) }

// device looks a record up by kind and id (nil if unknown or removed).
func (a *Allocator) device(kind core.DeviceKind, id uint16) *device {
	if l := a.class(kind).Get(uint32(id)); l != nil {
		return dev(l)
	}
	return nil
}

// devices snapshots every record, NICs before SSDs, each in registration
// order: the order leases are checked and host deaths inferred in.
func (a *Allocator) devices() []*device {
	all := make([]*device, 0, a.nics.Len()+a.ssds.Len())
	for _, set := range []*core.LinkSet{a.nics, a.ssds} {
		for _, l := range set.All() {
			all = append(all, dev(l))
		}
	}
	return all
}

// AddDevice registers a pooled device and its control link to the backend
// driver that serves it. Every kind shares the telemetry/lease path; what
// expiry or explicit failure triggers is the kind's policy (see fail).
func (a *Allocator) AddDevice(info DeviceInfo, link *core.LinkEnd) {
	a.class(info.Kind).Add(uint32(info.ID), link).Meta = &device{DeviceInfo: info, DeviceView: DeviceView{Up: true}}
}

// AddFrontend registers a pod host's frontend control link.
func (a *Allocator) AddFrontend(hostID int, link *core.LinkEnd) {
	a.frontends.Add(uint32(hostID), link)
}

// AddStorageFrontend registers a pod host's storage-frontend control link,
// the channel over which SSD failover commands are broadcast.
func (a *Allocator) AddStorageFrontend(hostID int, link *core.LinkEnd) {
	a.storageFEs.Add(uint32(hostID), link)
}

// RemoveDevice forgets a device and its control link (topology removal).
// The caller guarantees nothing is still placed on it; the device simply
// stops existing for placement, failover, and leases.
func (a *Allocator) RemoveDevice(kind core.DeviceKind, id uint16) {
	a.class(kind).Remove(uint32(id))
}

// RemoveFrontend forgets a host's frontend control links (host removal).
func (a *Allocator) RemoveFrontend(hostID int) {
	a.frontends.Remove(uint32(hostID))
	a.storageFEs.Remove(uint32(hostID))
}

// ReleaseInstance forgets an instance's placement (cross-pod migration or
// teardown): its demand is returned to its NIC and it no longer
// participates in rebalancing or failover fan-out.
func (a *Allocator) ReleaseInstance(ip netstack.IP) {
	st := a.insts[ip]
	if st == nil {
		return
	}
	if ns := a.device(core.DeviceNIC, st.primary); ns != nil {
		ns.demand -= st.demand
	}
	delete(a.insts, ip)
}

// InstancesOn counts instances whose primary or backup assignment is the
// NIC — the "in use" check a topology-level NIC removal must clear.
func (a *Allocator) InstancesOn(nic uint16) int {
	n := 0
	for _, st := range a.insts {
		if st.primary == nic || st.backup == nic {
			n++
		}
	}
	return n
}

// SetInstanceDemand declares an instance type's expected NIC bandwidth in
// bytes/s, used by placement (§3.5 "static policies such as instance types").
func (a *Allocator) SetInstanceDemand(ip netstack.IP, bps float64) {
	a.instDemand[ip] = bps
}

// backup returns a kind's reserved backup device (nil if none is
// configured).
func (a *Allocator) backup(kind core.DeviceKind) *device {
	for _, l := range a.class(kind).All() {
		if dev(l).Backup {
			return dev(l)
		}
	}
	return nil
}

// Migrate asks the allocator to gracefully move an instance to a NIC
// (§3.3.4); used by load-balancing policies and experiments.
func (a *Allocator) Migrate(ip netstack.IP, newNIC uint16) {
	a.cmds.Push(func(p *sim.Proc) { a.migrateAttempt(p, ip, newNIC, 0) })
}

func (a *Allocator) migrateAttempt(p *sim.Proc, ip netstack.IP, newNIC uint16, attempt int) {
	st, ok := a.insts[ip]
	if !ok {
		return
	}
	if !a.rep.Propose(p, encodeCmd('M', uint32(ip), newNIC)) {
		a.deferRetry(attempt, func(p *sim.Proc, attempt int) { a.migrateAttempt(p, ip, newNIC, attempt) })
		return
	}
	old := a.repoint(p, st, newNIC)
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("migrate ip=%v nic%d -> nic%d", ip, old, newNIC))
}

// repoint makes nic the instance's primary: the accounted demand moves with
// it and the owning host's frontend is told to migrate (§3.3.4). It returns
// the NIC the instance left.
func (a *Allocator) repoint(p *sim.Proc, st *instState, nic uint16) (old uint16) {
	old = st.primary
	st.primary = nic
	a.shiftDemand(old, nic, st.demand)
	a.send(p, a.frontends, uint32(st.hostID), core.ControlMsg{Op: core.CtlMigrate, Kind: core.DeviceNIC, IP: st.ip, Dev: nic})
	a.Migrations++
	return old
}

// Propose retry policy: a replicated decision that fails to commit (e.g.
// the local raft node lost leadership mid-election) is retried with
// exponential backoff rather than silently dropped. The retry re-runs the
// full decision function against fresh state, so a retry that has become
// moot (instance gone, device back up) degenerates to a no-op.
const (
	proposeMaxRetries = 10
	proposeRetryBase  = 25 * time.Millisecond
	proposeRetryCap   = 200 * time.Millisecond
)

// deferRetry schedules attempt+1 of a failed replicated decision after an
// exponential backoff, bounded by proposeMaxRetries.
func (a *Allocator) deferRetry(attempt int, fn func(p *sim.Proc, attempt int)) {
	if attempt >= proposeMaxRetries {
		a.ProposeDrops++
		return
	}
	a.ProposeRetries++
	a.h.Eng.After(core.Backoff(proposeRetryBase, proposeRetryCap, attempt), func() {
		a.cmds.Push(func(p *sim.Proc) { fn(p, attempt+1) })
	})
}

// commandsIdle reports whether runCommands has only its time-of-pass mark to
// make — timers set, no outage behind this pass, no deferred command — and
// makes it, so that a pass skipped on this word still counts as the allocator
// having been on the air.
func (a *Allocator) commandsIdle() bool {
	now := a.h.Eng.Now()
	if !a.timersInit || a.cmds.Len() > 0 || (a.lastPoll > 0 && now-a.lastPoll > a.cfg.LeaseTimeout) {
		return false
	}
	a.lastPoll = now
	return true
}

func (a *Allocator) runCommands(p *sim.Proc) int {
	if !a.timersInit {
		a.timersInit = true
		a.nextLease = p.Now() + a.cfg.LeaseTimeout
		a.nextRebal = p.Now() + a.cfg.RebalanceEvery
	}
	// Lease reconstruction (§3.5 applied to allocator recovery): if the
	// allocator itself was off the air longer than a lease (host crash,
	// leader re-election), every device's lastSeen is stale through no fault
	// of the device. Grant a one-window grace instead of mass-expiring the
	// pod; the next telemetry window rebuilds true liveness.
	if a.lastPoll > 0 && p.Now()-a.lastPoll > a.cfg.LeaseTimeout {
		for _, d := range a.devices() {
			if d.lastSeen > 0 {
				d.lastSeen = p.Now()
			}
		}
		a.nextLease = p.Now() + a.cfg.LeaseTimeout
		a.LeaseReconstructions++
		a.events.Emit(p.Now(), "alloc", fmt.Sprintf("lease state reconstructed after %v gap", p.Now()-a.lastPoll))
	}
	a.lastPoll = p.Now()
	progress := 0
	for i := 0; i < burst; i++ {
		cmd, ok := a.cmds.TryPop()
		if !ok {
			break
		}
		cmd(p)
		progress++
	}
	return progress
}

// windowsIdle reports whether neither window is due and no control line is
// partly filled.
func (a *Allocator) windowsIdle() bool {
	now := a.h.Eng.Now()
	if now >= a.nextLease || (a.cfg.Rebalance && now >= a.nextRebal) {
		return false
	}
	return a.frontends.FlushIdle() && a.nics.FlushIdle() && a.ssds.FlushIdle() && a.storageFEs.FlushIdle()
}

func (a *Allocator) windowsAndFlush(p *sim.Proc) int {
	if p.Now() >= a.nextLease {
		a.nextLease = p.Now() + a.cfg.LeaseTimeout/4
		a.checkLeases(p)
	}
	if a.cfg.Rebalance && p.Now() >= a.nextRebal {
		a.nextRebal = p.Now() + a.cfg.RebalanceEvery
		a.rebalance(p)
	}
	a.frontends.FlushAll(p)
	a.nics.FlushAll(p)
	a.ssds.FlushAll(p)
	a.storageFEs.FlushAll(p)
	return 0
}

func (a *Allocator) handleFE(p *sim.Proc, l *core.Link, payload []byte) {
	if m := core.DecodeControl(payload); m.Op == core.CtlAllocRequest {
		a.placeAttempt(p, int(l.Peer), m.IP, 0)
	}
}

// ingest takes one backend report — telemetry, link-down, link-up — for a
// device of any kind. A device transitioning to failed, whichever message
// says so first, triggers its kind's failover (see fail).
func (a *Allocator) ingest(p *sim.Proc, l *core.Link, payload []byte) {
	d := dev(l)
	if a.class(d.Kind).Get(l.Peer) != l {
		return // removed while this burst was being drained
	}
	m := core.DecodeControl(payload)
	switch m.Op {
	case core.CtlTelemetry:
		d.lastSeen = p.Now()
		d.LoadBps = float64(m.Load) * float64(time.Second) / float64(telemetryWindow)
		d.QueueDepth = m.QueueDepth
		d.health = healthSlot(d.Kind, m)
		wasUp := d.Up
		d.Up = m.LinkUp
		if wasUp && !d.Up {
			// The backend closes telemetry windows and checks its link on
			// separate timers, so this record can beat the link-down report
			// that the same drop produces; the report then finds the device
			// already down. Fail here or the failover is lost for good
			// (leases skip devices that are down).
			a.events.Emit(p.Now(), "alloc", fmt.Sprintf("%v%d reported failed", d.Kind, d.ID))
			a.fail(p, d)
		}
		if d.Kind == core.DeviceNIC && a.cfg.AERFailThreshold > 0 && m.AER >= a.cfg.AERFailThreshold && d.Up && !d.Backup {
			// A burst of uncorrectable PCIe errors: the device is dying.
			// Fail over proactively instead of waiting for link-down.
			d.Up = false
			a.AERFailovers++
			a.events.Emit(p.Now(), "alloc", fmt.Sprintf("aer burst on nic%d: proactive failover", d.ID))
			a.fail(p, d)
		}
		a.score(p, d)
	case core.CtlLinkDown:
		d.lastSeen = p.Now()
		if d.Up {
			d.Up = false
			a.fail(p, d)
		}
	case core.CtlLinkUp:
		d.lastSeen = p.Now()
		d.Up = true
	}
}

// Per-kind policy. Everything above and below treats a device as a device;
// these are the places a NIC and an SSD are deliberately different, and what
// a third DeviceKind has to decide (DESIGN.md §6 step 3, §9).

// healthSlot picks the kind's gray-failure signal out of a telemetry record:
// a NIC's soft error/drop count, a drive's mean service latency in µs (which
// travels in the AER slot, where NICs report uncorrectable PCIe errors).
func healthSlot(kind core.DeviceKind, m core.ControlMsg) uint16 {
	if kind == core.DeviceSSD {
		return m.AER
	}
	return uint16(m.Errs)
}

// healthFloor is the value of the kind's signal below which a device is
// never suspect, so an idle pod does not flag noise.
func (a *Allocator) healthFloor(kind core.DeviceKind) uint16 {
	if kind == core.DeviceSSD {
		return a.cfg.HealthLatFloorUs
	}
	return a.cfg.HealthErrFloor
}

// leaseTracked reports whether silence from the device expires a lease. The
// backup NIC is exempt — nothing is placed on it until a failover, and there
// is no second backup to fail over to — while the backup drive is tracked: it
// holds the mirror of every volume, and losing it silently would turn the
// next drive failure into data loss.
func leaseTracked(d *device) bool { return !(d.Kind == core.DeviceNIC && d.Backup) }

// fail runs the kind's failover for a device the caller has marked down.
func (a *Allocator) fail(p *sim.Proc, d *device) {
	if d.Kind == core.DeviceSSD {
		a.failSSDAttempt(p, d.ID, 0)
	} else {
		a.failNICAttempt(p, d.ID, 0)
	}
}

// evacuate steers load off a device the health scorer has quarantined; the
// device stays up.
func (a *Allocator) evacuate(p *sim.Proc, d *device) {
	if d.Kind == core.DeviceSSD {
		a.events.Emit(p.Now(), "alloc", fmt.Sprintf("health: ssd%d gray (lat=%dµs/req, %d windows): evacuating", d.ID, d.health, d.suspect))
		a.evacuateSSDAttempt(p, d.ID, 0)
	} else {
		a.events.Emit(p.Now(), "alloc", fmt.Sprintf("health: nic%d gray (errs=%d/window, %d windows): evacuating", d.ID, d.health, d.suspect))
		a.evacuateNICAttempt(p, d.ID, 0)
	}
}

// score runs one window of the gray-failure scorer over a device's health
// signal. The metric is judged peer-relative — an outlier vs. the mean of
// the pod's other healthy devices of its kind — because absolute thresholds
// can't separate "the workload is bursty" from "this device is sick"; a
// floor keeps idle pods from flagging noise. HealthWindows consecutive
// suspect windows quarantine the device and steer its load away.
func (a *Allocator) score(p *sim.Proc, d *device) {
	if !a.cfg.Health || d.Quarantined || d.Backup || !d.Up {
		return
	}
	metric := float64(d.health)
	var peerSum float64
	peers := 0
	for _, l := range a.class(d.Kind).All() {
		ps := dev(l)
		if ps == d || ps.Backup || !ps.Up || ps.Quarantined || ps.lastSeen == 0 {
			continue
		}
		peerSum += float64(ps.health)
		peers++
	}
	suspect := metric >= float64(a.healthFloor(d.Kind))
	if suspect && peers > 0 {
		suspect = metric > a.cfg.HealthFactor*(peerSum/float64(peers))
	}
	if !suspect {
		d.suspect = 0
		return
	}
	d.suspect++
	if d.suspect < a.cfg.HealthWindows {
		return
	}
	d.Quarantined = true
	a.evacuate(p, d)
}

// evacuateNICAttempt gracefully migrates every instance off a quarantined
// NIC. Unlike failNICAttempt this is not a failover: the link is up,
// in-flight traffic still flows, and each instance moves via the ordinary
// §3.3.4 migration path. The target is the least-loaded healthy NIC with
// headroom, falling back to the pod's backup NIC.
func (a *Allocator) evacuateNICAttempt(p *sim.Proc, suspect uint16, attempt int) {
	if a.device(core.DeviceNIC, suspect) == nil {
		return
	}
	target := uint16(0)
	if best := a.leastLoaded(func(c *device) bool { return c.ID != suspect && !c.Quarantined }); best != nil {
		target = best.ID
	} else if b := a.backup(core.DeviceNIC); b != nil && b.ID != suspect && b.Up {
		target = b.ID
	}
	if target == 0 {
		// Nowhere to go: stay quarantined (no new placements land here) but
		// keep serving — a degraded NIC beats no NIC.
		a.events.Emit(p.Now(), "alloc", fmt.Sprintf("health: nic%d has no evacuation target; serving degraded", suspect))
		return
	}
	if !a.rep.Propose(p, encodeCmd('E', uint32(suspect), target)) {
		a.deferRetry(attempt, func(p *sim.Proc, attempt int) { a.evacuateNICAttempt(p, suspect, attempt) })
		return
	}
	a.HealthNICEvacs++
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("health evacuation nic%d -> nic%d", suspect, target))
	var ips []netstack.IP
	for ip, st := range a.insts {
		if st.primary == suspect {
			ips = append(ips, ip)
		}
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, ip := range ips {
		a.migrateAttempt(p, ip, target, 0)
	}
}

// evacuateSSDAttempt re-binds a quarantined drive's volumes onto the pod's
// backup drive under a bumped fencing epoch — the failSSDAttempt machinery
// aimed at a drive that is still alive. Crucially, with no healthy backup it
// does NOT declare volumes lost (the drive still serves, just slowly): it
// leaves the quarantine in place and keeps going.
func (a *Allocator) evacuateSSDAttempt(p *sim.Proc, suspect uint16, attempt int) {
	ds := a.device(core.DeviceSSD, suspect)
	if ds == nil {
		return
	}
	b := a.backup(core.DeviceSSD)
	if b == nil || b == ds || !b.Up || b.Quarantined {
		a.events.Emit(p.Now(), "alloc", fmt.Sprintf("health: ssd%d has no evacuation target; serving degraded", suspect))
		return
	}
	target := b.ID
	if !a.rep.Propose(p, encodeCmd('V', uint32(suspect), target)) {
		a.deferRetry(attempt, func(p *sim.Proc, attempt int) { a.evacuateSSDAttempt(p, suspect, attempt) })
		return
	}
	ds.Epoch++
	a.HealthSSDEvacs++
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("health evacuation ssd%d -> ssd%d epoch=%d", suspect, target, ds.Epoch))
	a.rebind(p, ds, target)
}

// placeAttempt picks a primary NIC for a new instance: host-local first,
// then the least-loaded NIC with spare capacity (§3.5 "Device allocation").
// A repeat request for an already-placed instance (a frontend retrying
// because the assignment got lost in an allocator crash window) is answered
// idempotently by re-sending the recorded assignment.
func (a *Allocator) placeAttempt(p *sim.Proc, hostID int, ip netstack.IP, attempt int) {
	if st, ok := a.insts[ip]; ok {
		a.AssignResends++
		a.send(p, a.frontends, uint32(st.hostID), core.ControlMsg{Op: core.CtlAssign, Kind: core.DeviceNIC, IP: ip, Dev: st.primary, Aux: st.backup})
		return
	}
	demand := a.defaultDemand
	if d, ok := a.instDemand[ip]; ok {
		demand = d
	}
	backup := uint16(0) // what "no backup NIC" reads as on the wire
	if b := a.backup(core.DeviceNIC); b != nil {
		backup = b.ID
	}
	// Quarantined NICs (gray-failure scorer) are skipped everywhere but the
	// last overcommit fallback: degraded beats none.
	fits := func(ns *device) bool { return !ns.Quarantined && ns.demand+demand <= ns.CapacityBps }
	var pick *device
	// Host-local NICs first, in registration order.
	for _, l := range a.nics.All() {
		if ns := dev(l); ns.HostID == hostID && ns.Up && !ns.Backup && fits(ns) {
			pick = ns
			break
		}
	}
	if pick == nil {
		// Greedy: lowest current demand with headroom.
		pick = a.leastLoaded(fits)
	}
	if pick == nil {
		// Overcommit the least-loaded non-backup NIC rather than refuse:
		// the paper oversubscribes deliberately (§2.2). Prefer healthy
		// NICs; fall back to quarantined ones only when nothing else is up.
		pick = a.leastLoaded(func(ns *device) bool { return !ns.Quarantined })
	}
	if pick == nil {
		pick = a.leastLoaded(func(ns *device) bool { return ns.Quarantined })
	}
	if pick == nil {
		return // no usable NICs at all
	}
	if !a.rep.Propose(p, encodeCmd('P', uint32(ip), pick.ID)) {
		a.deferRetry(attempt, func(p *sim.Proc, attempt int) { a.placeAttempt(p, hostID, ip, attempt) })
		return
	}
	pick.demand += demand
	a.insts[ip] = &instState{ip: ip, hostID: hostID, demand: demand, primary: pick.ID, backup: backup}
	a.send(p, a.frontends, uint32(hostID), core.ControlMsg{Op: core.CtlAssign, Kind: core.DeviceNIC, IP: ip, Dev: pick.ID, Aux: backup})
	a.Placements++
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("placement ip=%v nic=%d backup=%d", ip, pick.ID, backup))
}

// leastLoaded returns the NIC with the lowest accounted demand among the up,
// non-backup NICs that ok accepts (the first registered wins a tie), or nil.
func (a *Allocator) leastLoaded(ok func(ns *device) bool) *device {
	var best *device
	for _, l := range a.nics.All() {
		ns := dev(l)
		if !ns.Up || ns.Backup || !ok(ns) {
			continue
		}
		if best == nil || ns.demand < best.demand {
			best = ns
		}
	}
	return best
}

// failNICAttempt reroutes every instance on the failed NIC to the backup and
// has the backup borrow the failed NIC's MAC (§3.3.3). The backup NIC's own
// failure is a no-op: there is nowhere to go.
func (a *Allocator) failNICAttempt(p *sim.Proc, failed uint16, attempt int) {
	ns := a.device(core.DeviceNIC, failed)
	if ns == nil || ns.Up {
		return // repaired (or unknown) by the time the retry fired
	}
	b := a.backup(core.DeviceNIC)
	if b == nil || b == ns {
		return
	}
	backup := b.ID
	if !a.rep.Propose(p, encodeCmd('F', uint32(failed), backup)) {
		a.deferRetry(attempt, func(p *sim.Proc, attempt int) { a.failNICAttempt(p, failed, attempt) })
		return
	}
	a.Failovers++
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("failover nic%d -> nic%d", failed, backup))
	// Tell the backup's backend to borrow the MAC first (RX path), then
	// repoint the frontends (TX path).
	a.send(p, a.nics, uint32(backup), core.ControlMsg{Op: core.CtlBorrowMAC, Kind: core.DeviceNIC, Dev: failed})
	a.broadcast(p, a.frontends, core.ControlMsg{Op: core.CtlFailover, Kind: core.DeviceNIC, Dev: failed, Aux: backup})
	var moved float64
	for _, st := range a.insts {
		if st.primary == failed {
			st.primary = backup
			moved += st.demand
		}
	}
	a.shiftDemand(failed, backup, moved)
}

// failSSDAttempt re-binds every volume on the failed drive onto the pod's
// backup drive (§3.3.3's backup mechanism applied to storage). The drive's
// fencing epoch is bumped and broadcast with the failover so storage
// frontends reject the zombie backend's late completions. With no usable
// backup the failover is still broadcast with target 0: frontends mark the
// volumes lost and surface ErrVolumeLost (§3.4's error propagation).
func (a *Allocator) failSSDAttempt(p *sim.Proc, failed uint16, attempt int) {
	ds := a.device(core.DeviceSSD, failed)
	if ds == nil || ds.Up {
		return // repaired (or unknown) by the time the retry fired
	}
	target := uint16(0)
	if b := a.backup(core.DeviceSSD); b != nil && b != ds && b.Up {
		target = b.ID
	}
	if !a.rep.Propose(p, encodeCmd('S', uint32(failed), target)) {
		a.deferRetry(attempt, func(p *sim.Proc, attempt int) { a.failSSDAttempt(p, failed, attempt) })
		return
	}
	ds.Epoch++
	a.SSDFailovers++
	if target == 0 {
		a.events.Emit(p.Now(), "alloc", fmt.Sprintf("ssd%d failed, no backup: volumes lost", failed))
	} else {
		a.events.Emit(p.Now(), "alloc", fmt.Sprintf("ssd failover ssd%d -> ssd%d epoch=%d", failed, target, ds.Epoch))
	}
	a.rebind(p, ds, target)
}

// rebind tells every storage frontend to move the drive's volumes onto
// target (0: they are lost) under the drive's current fencing epoch.
func (a *Allocator) rebind(p *sim.Proc, ds *device, target uint16) {
	a.broadcast(p, a.storageFEs, core.ControlMsg{Op: core.CtlFailover, Kind: core.DeviceSSD, Dev: ds.ID, Aux: target, Epoch: ds.Epoch})
}

// shiftDemand moves accounted demand between NICs (an unknown id — 0, or a
// NIC since removed — is skipped).
func (a *Allocator) shiftDemand(from, to uint16, d float64) {
	if ns := a.device(core.DeviceNIC, from); ns != nil {
		ns.demand -= d
	}
	if ns := a.device(core.DeviceNIC, to); ns != nil {
		ns.demand += d
	}
}

// rebalance migrates one instance per period from the hottest overloaded
// NIC to the coldest underloaded one (§6 "Load balancing policies").
func (a *Allocator) rebalance(p *sim.Proc) {
	var hot, cold *device
	for _, l := range a.nics.All() {
		ns := dev(l)
		if !ns.Up || ns.Backup || ns.Quarantined || ns.CapacityBps <= 0 {
			continue
		}
		util := ns.LoadBps / ns.CapacityBps
		if util >= a.cfg.RebalanceHigh && (hot == nil || ns.LoadBps > hot.LoadBps) {
			hot = ns
		}
		if util <= a.cfg.RebalanceLow && (cold == nil || ns.LoadBps < cold.LoadBps) {
			cold = ns
		}
	}
	if hot == nil || cold == nil || hot == cold {
		return
	}
	// Move the largest-demand instance on the hot NIC.
	var victim *instState
	for _, st := range a.insts {
		if st.primary == hot.ID && (victim == nil || st.demand > victim.demand) {
			victim = st
		}
	}
	if victim == nil {
		return
	}
	if !a.rep.Propose(p, encodeCmd('M', uint32(victim.ip), cold.ID)) {
		return
	}
	old := a.repoint(p, victim, cold.ID)
	a.Rebalances++
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("rebalance ip=%v nic%d -> nic%d", victim.ip, old, cold.ID))
}

// checkLeases expires devices whose telemetry went silent — the host-failure
// path (§3.5 "Host failures are instead inferred from missing telemetry").
// A NIC's lease expiry fails its instances over; an SSD's fails its volumes
// over onto the backup drive (or declares them lost without one). When
// every lease-tracked device a host owns has expired, the host itself is
// presumed dead — by that point each device's own recovery has already
// re-placed its engines onto survivors.
func (a *Allocator) checkLeases(p *sim.Proc) {
	var expiredHosts []int
	for _, d := range a.devices() {
		if !d.Up || !leaseTracked(d) || d.lastSeen == 0 {
			continue // down already, exempt, or never reported yet (startup grace)
		}
		if p.Now()-d.lastSeen > a.cfg.LeaseTimeout {
			d.Up = false
			if d.Kind == core.DeviceSSD {
				a.SSDLeaseExpiries++
			} else {
				a.LeaseExpiries++
			}
			a.recoveryDetect.Record(time.Duration(p.Now() - d.lastSeen))
			a.events.Emit(p.Now(), "alloc", fmt.Sprintf("lease expired for %v%d", d.Kind, d.ID))
			a.fail(p, d)
			expiredHosts = append(expiredHosts, d.HostID)
		}
	}
	a.inferHostDeaths(p, expiredHosts)
}

// inferHostDeaths promotes per-device lease expiries to a host-death verdict
// when every lease-tracked device on a host (its non-backup NICs and its
// SSDs) is down. The verdict is observational — device recoveries already
// ran — but it is the pod-level signal operators and experiments key on.
func (a *Allocator) inferHostDeaths(p *sim.Proc, candidates []int) {
	if len(candidates) == 0 {
		return
	}
	sort.Ints(candidates)
	prev := -1 << 62
	for _, hostID := range candidates {
		if hostID == prev {
			continue // dedup: host had several devices expire this pass
		}
		prev = hostID
		dead, tracked := true, false
		for _, d := range a.devices() {
			if d.HostID != hostID || !leaseTracked(d) {
				continue
			}
			tracked = true
			if d.Up {
				dead = false
			}
		}
		if tracked && dead {
			a.HostDeaths++
			a.events.Emit(p.Now(), "alloc", fmt.Sprintf("host %d presumed dead: all device leases expired", hostID))
		}
	}
}

// send delivers one command to a peer of the given link set (frontends by
// host id, backends by device id). A full ring re-queues the command behind
// the deferred commands, to be retried next iteration; a peer that has been
// removed is skipped.
func (a *Allocator) send(p *sim.Proc, to *core.LinkSet, peer uint32, m core.ControlMsg) {
	if l := to.Get(peer); l != nil && !core.SendControl(p, l.End, m) {
		a.cmds.Push(func(p *sim.Proc) { a.send(p, to, peer, m) })
	}
}

// broadcast sends one command to every peer of a link set, in order.
func (a *Allocator) broadcast(p *sim.Proc, to *core.LinkSet, m core.ControlMsg) {
	for _, l := range to.All() {
		a.send(p, to, l.Peer, m)
	}
}

// View returns the allocator's current view of a device (tests, experiments
// and the obs gauges read this); the zero view for a device it does not know.
func (a *Allocator) View(kind core.DeviceKind, id uint16) DeviceView {
	if d := a.device(kind, id); d != nil {
		return d.DeviceView
	}
	return DeviceView{}
}

// PrimaryOf returns the allocator's current NIC assignment for an instance.
func (a *Allocator) PrimaryOf(ip netstack.IP) (uint16, bool) {
	if st, ok := a.insts[ip]; ok {
		return st.primary, true
	}
	return 0, false
}

// encodeCmd packs a replicated decision for the Raft log.
func encodeCmd(kind byte, arg uint32, nic uint16) []byte {
	return []byte{kind, byte(arg), byte(arg >> 8), byte(arg >> 16), byte(arg >> 24), byte(nic), byte(nic >> 8)}
}
