// Package allocator implements Oasis's pod-wide allocator (§3.5): the
// logically-centralized control plane that maps PCIe devices to instances,
// ingests 100 ms telemetry from backend drivers, places new instances
// (host-local first, then least-loaded), and orchestrates NIC failover and
// graceful migration. It is never on the data path.
//
// The allocator converses with every frontend and backend driver over the
// datapath's message channels, speaking the shared control protocol
// (core.ControlMsg) that all device engines use. NICs and SSDs share the
// telemetry/lease path: host failures are inferred from missing telemetry
// (lease expiry), NIC failures also arrive as explicit link-down reports.
// A failed NIC triggers transparent failover (§3.3.3); a failed SSD triggers
// the same mechanism applied to storage — volumes re-bind onto the pod's
// backup drive under a bumped fencing epoch, or are declared lost when no
// backup exists (§3.4's error propagation). When every lease-tracked device
// on a host expires in the same pass, the host is presumed dead and all of
// its engines have been re-placed onto survivors. State can be replicated
// across peers with the raft package (see Replicate), matching §3.5's
// "replicated with Raft" design; a Propose that fails (e.g. mid-election
// after a leader crash) is retried with exponential backoff, and an
// allocator that was itself off the air rebuilds its leases from the next
// telemetry window instead of mass-expiring survivors.
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
	// PollCost is the allocator core's per-iteration cost.
	PollCost sim.Duration
	// Burst bounds messages drained per link per iteration.
	Burst int

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
		PollCost:         200 * time.Nanosecond,
		Burst:            32,
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

// idleCap bounds the allocator core's idle backoff.
const idleCap = 20 * time.Microsecond

// NICInfo describes one pod NIC to the allocator.
type NICInfo struct {
	ID          uint16
	HostID      int
	CapacityBps float64
	Backup      bool // §3.3.3: the reserved per-pod backup NIC
}

// SSDInfo describes one pod SSD to the allocator.
type SSDInfo struct {
	ID     uint16
	HostID int
	Backup bool // the reserved per-pod backup drive (mirrors NICInfo.Backup)
}

type nicState struct {
	info       NICInfo
	up         bool
	lastSeen   sim.Duration
	loadBps    float64 // from telemetry
	queueDepth uint16  // from telemetry
	demand     float64 // sum of placed instances' demands
	errs       uint16  // last window's soft error/drop count (gray signal)
	suspect    int     // consecutive windows the health scorer flagged this NIC
	quarantine bool    // health scorer evacuated this NIC; skip for placement
}

type ssdState struct {
	info       SSDInfo
	up         bool
	lastSeen   sim.Duration
	loadBps    float64
	queueDepth uint16
	latUs      uint16 // last window's mean service latency in µs (gray signal)
	suspect    int    // consecutive windows the health scorer flagged this drive
	quarantine bool   // health scorer evacuated this drive
	// epoch fences a drive's generation of ownership: it is bumped on every
	// failover away from the drive, and storage frontends stamp it into
	// requests so a zombie backend's late completions are rejected.
	epoch uint16
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

	feLinks  map[int]*core.LinkEnd // by host id
	feOrder  []int
	beLinks  map[uint16]*core.LinkEnd // by NIC id
	beOrder  []uint16
	ssdLinks map[uint16]*core.LinkEnd // by SSD id
	ssdOrder []uint16
	sfeLinks map[int]*core.LinkEnd // storage-frontend control links, by host id
	sfeOrder []int
	nics     map[uint16]*nicState
	ssds     map[uint16]*ssdState
	insts    map[netstack.IP]*instState

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
		feLinks:        make(map[int]*core.LinkEnd),
		beLinks:        make(map[uint16]*core.LinkEnd),
		ssdLinks:       make(map[uint16]*core.LinkEnd),
		sfeLinks:       make(map[int]*core.LinkEnd),
		nics:           make(map[uint16]*nicState),
		ssds:           make(map[uint16]*ssdState),
		insts:          make(map[netstack.IP]*instState),
		instDemand:     make(map[netstack.IP]float64),
		defaultDemand:  1e9, // 8 Gbit/s default ask
		cmds:           sim.NewQueue[func(p *sim.Proc)](h.Eng),
		rep:            nullReplicator{},
		recoveryDetect: &metrics.Histogram{},
	}
	a.Seat = core.NewSeat(a, h, core.DriverConfig{LoopCost: cfg.PollCost, IdleBackoff: idleCap})
	return a
}

// Replicate installs a Raft-backed replicator (§3.5). Decisions are
// proposed to the log before being applied and broadcast.
func (a *Allocator) Replicate(r interface {
	Propose(p *sim.Proc, cmd []byte) bool
}) {
	a.rep = r
}

// AddNIC registers a pod NIC and its control link to the backend driver.
func (a *Allocator) AddNIC(info NICInfo, link *core.LinkEnd) {
	a.nics[info.ID] = &nicState{info: info, up: true}
	a.beLinks[info.ID] = link
	a.beOrder = append(a.beOrder, info.ID)
}

// AddSSD registers a pod SSD and its control link to the storage backend
// driver. Drives share the NICs' telemetry/lease path; expiry or explicit
// failure triggers storage failover onto the pod's backup drive (if any) —
// the §3.3.3 backup-NIC mechanism applied to storage.
func (a *Allocator) AddSSD(info SSDInfo, link *core.LinkEnd) {
	a.ssds[info.ID] = &ssdState{info: info, up: true}
	a.ssdLinks[info.ID] = link
	a.ssdOrder = append(a.ssdOrder, info.ID)
}

// AddFrontend registers a pod host's frontend control link.
func (a *Allocator) AddFrontend(hostID int, link *core.LinkEnd) {
	a.feLinks[hostID] = link
	a.feOrder = append(a.feOrder, hostID)
}

// AddStorageFrontend registers a pod host's storage-frontend control link,
// the channel over which SSD failover commands are broadcast.
func (a *Allocator) AddStorageFrontend(hostID int, link *core.LinkEnd) {
	a.sfeLinks[hostID] = link
	a.sfeOrder = append(a.sfeOrder, hostID)
}

// RemoveNIC forgets a NIC and its control link (topology removal). The
// caller guarantees no instance is still placed on it; the device simply
// stops existing for placement, failover, and leases.
func (a *Allocator) RemoveNIC(id uint16) {
	delete(a.nics, id)
	delete(a.beLinks, id)
	a.beOrder = removeID(a.beOrder, id)
}

// RemoveSSD forgets a drive and its control link (topology removal).
func (a *Allocator) RemoveSSD(id uint16) {
	delete(a.ssds, id)
	delete(a.ssdLinks, id)
	a.ssdOrder = removeID(a.ssdOrder, id)
}

// RemoveFrontend forgets a host's frontend control link (host removal).
func (a *Allocator) RemoveFrontend(hostID int) {
	delete(a.feLinks, hostID)
	a.feOrder = removeHostID(a.feOrder, hostID)
	delete(a.sfeLinks, hostID)
	a.sfeOrder = removeHostID(a.sfeOrder, hostID)
}

// ReleaseInstance forgets an instance's placement (cross-pod migration or
// teardown): its demand is returned to its NIC and it no longer
// participates in rebalancing or failover fan-out.
func (a *Allocator) ReleaseInstance(ip netstack.IP) {
	st := a.insts[ip]
	if st == nil {
		return
	}
	if ns := a.nics[st.primary]; ns != nil {
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

// Instances returns the number of placed instances.
func (a *Allocator) Instances() int { return len(a.insts) }

func removeID(s []uint16, id uint16) []uint16 {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func removeHostID(s []int, id int) []int {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// SetInstanceDemand declares an instance type's expected NIC bandwidth in
// bytes/s, used by placement (§3.5 "static policies such as instance types").
func (a *Allocator) SetInstanceDemand(ip netstack.IP, bps float64) {
	a.instDemand[ip] = bps
}

// BackupNIC returns the reserved backup NIC id (0 if none configured).
func (a *Allocator) BackupNIC() uint16 {
	for _, id := range a.beOrder {
		if a.nics[id].info.Backup {
			return id
		}
	}
	return 0
}

// BackupSSD returns the reserved backup drive id (0 if none configured).
func (a *Allocator) BackupSSD() uint16 {
	for _, id := range a.ssdOrder {
		if a.ssds[id].info.Backup {
			return id
		}
	}
	return 0
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
	old := st.primary
	st.primary = newNIC
	a.shiftDemand(old, newNIC, st.demand)
	a.sendToFE(p, st.hostID, ctlMsg{op: core.CtlMigrate, ip: ip, dev: newNIC})
	a.Migrations++
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("migrate ip=%v nic%d -> nic%d", ip, old, newNIC))
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
	d := proposeRetryBase
	for i := 0; i < attempt && d < proposeRetryCap; i++ {
		d *= 2
	}
	if d > proposeRetryCap {
		d = proposeRetryCap
	}
	a.h.Eng.After(d, func() {
		a.cmds.Push(func(p *sim.Proc) { fn(p, attempt+1) })
	})
}

// LoopName implements core.EngineLoop.
func (a *Allocator) LoopName() string { return a.h.Name + "/allocator" }

// PollOnce implements core.EngineLoop: one pass over deferred commands,
// frontend requests, backend telemetry (NIC and SSD), and the lease and
// rebalance windows.
func (a *Allocator) PollOnce(p *sim.Proc) int {
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
		for _, id := range a.beOrder {
			if ns := a.nics[id]; ns.lastSeen > 0 {
				ns.lastSeen = p.Now()
			}
		}
		for _, id := range a.ssdOrder {
			if ds := a.ssds[id]; ds.lastSeen > 0 {
				ds.lastSeen = p.Now()
			}
		}
		a.nextLease = p.Now() + a.cfg.LeaseTimeout
		a.LeaseReconstructions++
		a.events.Emit(p.Now(), "alloc", fmt.Sprintf("lease state reconstructed after %v gap", p.Now()-a.lastPoll))
	}
	a.lastPoll = p.Now()
	progress := 0
	for i := 0; i < a.cfg.Burst; i++ {
		cmd, ok := a.cmds.TryPop()
		if !ok {
			break
		}
		cmd(p)
		progress++
	}
	for _, hostID := range a.feOrder {
		l := a.feLinks[hostID]
		for i := 0; i < a.cfg.Burst; i++ {
			payload, ok := l.Poll(p)
			if !ok {
				break
			}
			a.handleFE(p, hostID, payload)
			progress++
		}
	}
	for _, nicID := range a.beOrder {
		l := a.beLinks[nicID]
		for i := 0; i < a.cfg.Burst; i++ {
			payload, ok := l.Poll(p)
			if !ok {
				break
			}
			a.handleNIC(p, nicID, payload)
			progress++
		}
	}
	for _, ssdID := range a.ssdOrder {
		l := a.ssdLinks[ssdID]
		for i := 0; i < a.cfg.Burst; i++ {
			payload, ok := l.Poll(p)
			if !ok {
				break
			}
			a.handleSSD(p, ssdID, payload)
			progress++
		}
	}
	if p.Now() >= a.nextLease {
		a.nextLease = p.Now() + a.cfg.LeaseTimeout/4
		a.checkLeases(p)
	}
	if a.cfg.Rebalance && p.Now() >= a.nextRebal {
		a.nextRebal = p.Now() + a.cfg.RebalanceEvery
		a.rebalance(p)
	}
	for _, hostID := range a.feOrder {
		a.feLinks[hostID].Flush(p)
	}
	for _, nicID := range a.beOrder {
		a.beLinks[nicID].Flush(p)
	}
	for _, ssdID := range a.ssdOrder {
		a.ssdLinks[ssdID].Flush(p)
	}
	for _, hostID := range a.sfeOrder {
		a.sfeLinks[hostID].Flush(p)
	}
	return progress
}

func (a *Allocator) handleFE(p *sim.Proc, hostID int, payload []byte) {
	m := core.DecodeControl(payload)
	switch m.Op {
	case core.CtlAllocRequest:
		a.place(p, hostID, m.IP)
	}
}

func (a *Allocator) handleNIC(p *sim.Proc, nicID uint16, payload []byte) {
	m := core.DecodeControl(payload)
	ns := a.nics[nicID]
	if ns == nil {
		return
	}
	switch m.Op {
	case core.CtlTelemetry:
		ns.lastSeen = p.Now()
		ns.loadBps = float64(m.Load) * float64(time.Second) / float64(a.leaseWindow())
		ns.queueDepth = m.QueueDepth
		ns.errs = uint16(m.Errs)
		ns.up = m.LinkUp
		if a.cfg.AERFailThreshold > 0 && m.AER >= a.cfg.AERFailThreshold && ns.up && !ns.info.Backup {
			// A burst of uncorrectable PCIe errors: the device is dying.
			// Fail over proactively instead of waiting for link-down.
			ns.up = false
			a.AERFailovers++
			a.events.Emit(p.Now(), "alloc", fmt.Sprintf("aer burst on nic%d: proactive failover", nicID))
			a.failNIC(p, nicID)
		}
		a.scoreNIC(p, nicID, ns)
	case core.CtlLinkDown:
		ns.lastSeen = p.Now()
		if ns.up {
			ns.up = false
			a.failNIC(p, nicID)
		}
	case core.CtlLinkUp:
		ns.lastSeen = p.Now()
		ns.up = true
	}
}

// handleSSD ingests storage-backend telemetry through the same control
// protocol as NICs. A drive transitioning to failed (LinkUp=false) triggers
// storage failover onto the pod's backup drive — the same mechanism as
// failNIC, fenced by the drive's epoch.
func (a *Allocator) handleSSD(p *sim.Proc, ssdID uint16, payload []byte) {
	m := core.DecodeControl(payload)
	ds := a.ssds[ssdID]
	if ds == nil {
		return
	}
	switch m.Op {
	case core.CtlTelemetry:
		ds.lastSeen = p.Now()
		ds.loadBps = float64(m.Load) * float64(time.Second) / float64(a.leaseWindow())
		ds.queueDepth = m.QueueDepth
		ds.latUs = m.AER // the per-kind health slot: mean service latency, µs
		wasUp := ds.up
		ds.up = m.LinkUp
		if wasUp && !ds.up {
			a.events.Emit(p.Now(), "alloc", fmt.Sprintf("ssd%d reported failed", ssdID))
			a.failSSD(p, ssdID)
		}
		a.scoreSSD(p, ssdID, ds)
	case core.CtlLinkDown:
		ds.lastSeen = p.Now()
		if ds.up {
			ds.up = false
			a.failSSD(p, ssdID)
		}
	case core.CtlLinkUp:
		ds.lastSeen = p.Now()
		ds.up = true
	}
}

func (a *Allocator) leaseWindow() sim.Duration { return 100 * time.Millisecond }

// scoreNIC runs one window of the gray-failure scorer over a NIC's soft
// error/drop count. The metric is judged peer-relative — an outlier vs. the
// mean of the pod's other healthy NICs — because absolute thresholds can't
// separate "the workload is bursty" from "this device is sick"; a floor
// keeps idle pods from flagging noise. HealthWindows consecutive suspect
// windows quarantine the NIC and steer its instances away.
func (a *Allocator) scoreNIC(p *sim.Proc, nicID uint16, ns *nicState) {
	if !a.cfg.Health || ns.quarantine || ns.info.Backup || !ns.up {
		return
	}
	metric := float64(ns.errs)
	var peerSum float64
	peers := 0
	for _, id := range a.beOrder {
		ps := a.nics[id]
		if id == nicID || ps.info.Backup || !ps.up || ps.quarantine || ps.lastSeen == 0 {
			continue
		}
		peerSum += float64(ps.errs)
		peers++
	}
	suspect := metric >= float64(a.cfg.HealthErrFloor)
	if suspect && peers > 0 {
		suspect = metric > a.cfg.HealthFactor*(peerSum/float64(peers))
	}
	if !suspect {
		ns.suspect = 0
		return
	}
	ns.suspect++
	if ns.suspect < a.cfg.HealthWindows {
		return
	}
	ns.quarantine = true
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("health: nic%d gray (errs=%d/window, %d windows): evacuating", nicID, ns.errs, ns.suspect))
	a.evacuateNICAttempt(p, nicID, 0)
}

// evacuateNICAttempt gracefully migrates every instance off a quarantined
// NIC. Unlike failNIC this is not a failover: the link is up, in-flight
// traffic still flows, and each instance moves via the ordinary §3.3.4
// migration path. The target is the least-loaded healthy NIC with headroom,
// falling back to the pod's backup NIC.
func (a *Allocator) evacuateNICAttempt(p *sim.Proc, suspect uint16, attempt int) {
	ns := a.nics[suspect]
	if ns == nil {
		return
	}
	target := uint16(0)
	var best *nicState
	for _, id := range a.beOrder {
		cand := a.nics[id]
		if id == suspect || cand.info.Backup || !cand.up || cand.quarantine {
			continue
		}
		if best == nil || cand.demand < best.demand {
			best = cand
		}
	}
	if best != nil {
		target = best.info.ID
	} else if b := a.BackupNIC(); b != 0 && b != suspect && a.nics[b].up {
		target = b
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

// scoreSSD runs one window of the gray-failure scorer over a drive's mean
// request service latency (the storage health slot). Same peer-relative
// outlier rule as scoreNIC; HealthWindows consecutive suspect windows
// quarantine the drive and re-bind its volumes onto the pod's backup.
func (a *Allocator) scoreSSD(p *sim.Proc, ssdID uint16, ds *ssdState) {
	if !a.cfg.Health || ds.quarantine || ds.info.Backup || !ds.up {
		return
	}
	metric := float64(ds.latUs)
	var peerSum float64
	peers := 0
	for _, id := range a.ssdOrder {
		ps := a.ssds[id]
		if id == ssdID || ps.info.Backup || !ps.up || ps.quarantine || ps.lastSeen == 0 {
			continue
		}
		peerSum += float64(ps.latUs)
		peers++
	}
	suspect := metric >= float64(a.cfg.HealthLatFloorUs)
	if suspect && peers > 0 {
		suspect = metric > a.cfg.HealthFactor*(peerSum/float64(peers))
	}
	if !suspect {
		ds.suspect = 0
		return
	}
	ds.suspect++
	if ds.suspect < a.cfg.HealthWindows {
		return
	}
	ds.quarantine = true
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("health: ssd%d gray (lat=%dµs/req, %d windows): evacuating", ssdID, ds.latUs, ds.suspect))
	a.evacuateSSDAttempt(p, ssdID, 0)
}

// evacuateSSDAttempt re-binds a quarantined drive's volumes onto the pod's
// backup drive under a bumped fencing epoch — the failSSD machinery aimed at
// a drive that is still alive. Crucially, with no healthy backup it does
// NOT declare volumes lost (the drive still serves, just slowly): it leaves
// the quarantine in place and keeps going.
func (a *Allocator) evacuateSSDAttempt(p *sim.Proc, suspect uint16, attempt int) {
	ds := a.ssds[suspect]
	if ds == nil {
		return
	}
	target := a.BackupSSD()
	if target == suspect || (target != 0 && (!a.ssds[target].up || a.ssds[target].quarantine)) {
		target = 0
	}
	if target == 0 {
		a.events.Emit(p.Now(), "alloc", fmt.Sprintf("health: ssd%d has no evacuation target; serving degraded", suspect))
		return
	}
	if !a.rep.Propose(p, encodeCmd('V', uint32(suspect), target)) {
		a.deferRetry(attempt, func(p *sim.Proc, attempt int) { a.evacuateSSDAttempt(p, suspect, attempt) })
		return
	}
	ds.epoch++
	a.HealthSSDEvacs++
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("health evacuation ssd%d -> ssd%d epoch=%d", suspect, target, ds.epoch))
	for _, hostID := range a.sfeOrder {
		a.sendToSFE(p, hostID, ctlMsg{
			op: core.CtlFailover, kind: core.DeviceSSD, dev: suspect, aux: target, epoch: ds.epoch,
		})
	}
}

// place picks a primary NIC for a new instance: host-local first, then the
// least-loaded NIC with spare capacity (§3.5 "Device allocation"). A repeat
// request for an already-placed instance (a frontend retrying because the
// assignment got lost in an allocator crash window) is answered
// idempotently by re-sending the recorded assignment.
func (a *Allocator) place(p *sim.Proc, hostID int, ip netstack.IP) {
	a.placeAttempt(p, hostID, ip, 0)
}

func (a *Allocator) placeAttempt(p *sim.Proc, hostID int, ip netstack.IP, attempt int) {
	if st, ok := a.insts[ip]; ok {
		a.AssignResends++
		a.sendToFE(p, st.hostID, ctlMsg{op: core.CtlAssign, ip: ip, dev: st.primary, aux: st.backup})
		return
	}
	demand := a.defaultDemand
	if d, ok := a.instDemand[ip]; ok {
		demand = d
	}
	backup := a.BackupNIC()
	pick := uint16(0)
	// Host-local NICs first. Quarantined NICs (gray-failure scorer) are
	// skipped everywhere but the overcommit fallback: degraded beats none.
	for _, id := range a.beOrder {
		ns := a.nics[id]
		if ns.info.HostID == hostID && ns.up && !ns.info.Backup && !ns.quarantine && ns.demand+demand <= ns.info.CapacityBps {
			pick = id
			break
		}
	}
	if pick == 0 {
		// Greedy: lowest current demand with headroom.
		var best *nicState
		for _, id := range a.beOrder {
			ns := a.nics[id]
			if !ns.up || ns.info.Backup || ns.quarantine {
				continue
			}
			if ns.demand+demand > ns.info.CapacityBps {
				continue
			}
			if best == nil || ns.demand < best.demand {
				best = ns
			}
		}
		if best != nil {
			pick = best.info.ID
		}
	}
	if pick == 0 {
		// Overcommit the least-loaded non-backup NIC rather than refuse:
		// the paper oversubscribes deliberately (§2.2). Prefer healthy
		// NICs; fall back to quarantined ones only when nothing else is up.
		var best, bestQuar *nicState
		for _, id := range a.beOrder {
			ns := a.nics[id]
			if !ns.up || ns.info.Backup {
				continue
			}
			if ns.quarantine {
				if bestQuar == nil || ns.demand < bestQuar.demand {
					bestQuar = ns
				}
				continue
			}
			if best == nil || ns.demand < best.demand {
				best = ns
			}
		}
		if best == nil {
			best = bestQuar
		}
		if best == nil {
			return // no usable NICs at all
		}
		pick = best.info.ID
	}
	if !a.rep.Propose(p, encodeCmd('P', uint32(ip), pick)) {
		a.deferRetry(attempt, func(p *sim.Proc, attempt int) { a.placeAttempt(p, hostID, ip, attempt) })
		return
	}
	a.nics[pick].demand += demand
	a.insts[ip] = &instState{ip: ip, hostID: hostID, demand: demand, primary: pick, backup: backup}
	a.sendToFE(p, hostID, ctlMsg{op: core.CtlAssign, ip: ip, dev: pick, aux: backup})
	a.Placements++
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("placement ip=%v nic=%d backup=%d", ip, pick, backup))
}

// failNIC reroutes every instance on the failed NIC to the backup and has
// the backup borrow the failed NIC's MAC (§3.3.3).
func (a *Allocator) failNIC(p *sim.Proc, failed uint16) {
	a.failNICAttempt(p, failed, 0)
}

func (a *Allocator) failNICAttempt(p *sim.Proc, failed uint16, attempt int) {
	ns := a.nics[failed]
	if ns == nil || ns.up {
		return // repaired (or unknown) by the time the retry fired
	}
	backup := a.BackupNIC()
	if backup == 0 || backup == failed {
		return
	}
	if !a.rep.Propose(p, encodeCmd('F', uint32(failed), backup)) {
		a.deferRetry(attempt, func(p *sim.Proc, attempt int) { a.failNICAttempt(p, failed, attempt) })
		return
	}
	a.Failovers++
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("failover nic%d -> nic%d", failed, backup))
	// Tell the backup's backend to borrow the MAC first (RX path), then
	// repoint the frontends (TX path).
	a.sendToBE(p, backup, ctlMsg{op: core.CtlBorrowMAC, dev: failed})
	for _, hostID := range a.feOrder {
		a.sendToFE(p, hostID, ctlMsg{op: core.CtlFailover, dev: failed, aux: backup})
	}
	var moved float64
	for _, st := range a.insts {
		if st.primary == failed {
			st.primary = backup
			moved += st.demand
		}
	}
	a.shiftDemand(failed, backup, moved)
}

// failSSD re-binds every volume on the failed drive onto the pod's backup
// drive (§3.3.3's backup mechanism applied to storage). The drive's fencing
// epoch is bumped and broadcast with the failover so storage frontends
// reject the zombie backend's late completions. With no usable backup the
// failover is still broadcast with target 0: frontends mark the volumes
// lost and surface ErrVolumeLost (§3.4's error propagation).
func (a *Allocator) failSSD(p *sim.Proc, failed uint16) {
	a.failSSDAttempt(p, failed, 0)
}

func (a *Allocator) failSSDAttempt(p *sim.Proc, failed uint16, attempt int) {
	ds := a.ssds[failed]
	if ds == nil || ds.up {
		return // repaired (or unknown) by the time the retry fired
	}
	target := a.BackupSSD()
	if target == failed || (target != 0 && !a.ssds[target].up) {
		target = 0
	}
	if !a.rep.Propose(p, encodeCmd('S', uint32(failed), target)) {
		a.deferRetry(attempt, func(p *sim.Proc, attempt int) { a.failSSDAttempt(p, failed, attempt) })
		return
	}
	ds.epoch++
	a.SSDFailovers++
	if target == 0 {
		a.events.Emit(p.Now(), "alloc", fmt.Sprintf("ssd%d failed, no backup: volumes lost", failed))
	} else {
		a.events.Emit(p.Now(), "alloc", fmt.Sprintf("ssd failover ssd%d -> ssd%d epoch=%d", failed, target, ds.epoch))
	}
	for _, hostID := range a.sfeOrder {
		a.sendToSFE(p, hostID, ctlMsg{
			op: core.CtlFailover, kind: core.DeviceSSD, dev: failed, aux: target, epoch: ds.epoch,
		})
	}
}

// shiftDemand moves accounted demand between NICs.
func (a *Allocator) shiftDemand(from, to uint16, d float64) {
	if ns := a.nics[from]; ns != nil {
		ns.demand -= d
	}
	if ns := a.nics[to]; ns != nil {
		ns.demand += d
	}
}

// rebalance migrates one instance per period from the hottest overloaded
// NIC to the coldest underloaded one (§6 "Load balancing policies").
func (a *Allocator) rebalance(p *sim.Proc) {
	var hot, cold *nicState
	for _, id := range a.beOrder {
		ns := a.nics[id]
		if !ns.up || ns.info.Backup || ns.quarantine || ns.info.CapacityBps <= 0 {
			continue
		}
		util := ns.loadBps / ns.info.CapacityBps
		if util >= a.cfg.RebalanceHigh && (hot == nil || ns.loadBps > hot.loadBps) {
			hot = ns
		}
		if util <= a.cfg.RebalanceLow && (cold == nil || ns.loadBps < cold.loadBps) {
			cold = ns
		}
	}
	if hot == nil || cold == nil || hot == cold {
		return
	}
	// Move the largest-demand instance on the hot NIC.
	var victim *instState
	for _, st := range a.insts {
		if st.primary == hot.info.ID && (victim == nil || st.demand > victim.demand) {
			victim = st
		}
	}
	if victim == nil {
		return
	}
	if !a.rep.Propose(p, encodeCmd('M', uint32(victim.ip), cold.info.ID)) {
		return
	}
	old := victim.primary
	victim.primary = cold.info.ID
	a.shiftDemand(old, cold.info.ID, victim.demand)
	a.sendToFE(p, victim.hostID, ctlMsg{op: core.CtlMigrate, ip: victim.ip, dev: cold.info.ID})
	a.Migrations++
	a.Rebalances++
	a.events.Emit(p.Now(), "alloc", fmt.Sprintf("rebalance ip=%v nic%d -> nic%d", victim.ip, old, cold.info.ID))
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
	for _, id := range a.beOrder {
		ns := a.nics[id]
		if !ns.up || ns.info.Backup {
			continue
		}
		if ns.lastSeen == 0 {
			continue // never reported yet (startup grace)
		}
		if p.Now()-ns.lastSeen > a.cfg.LeaseTimeout {
			ns.up = false
			a.LeaseExpiries++
			a.recoveryDetect.Record(time.Duration(p.Now() - ns.lastSeen))
			a.events.Emit(p.Now(), "alloc", fmt.Sprintf("lease expired for nic%d", id))
			a.failNIC(p, id)
			expiredHosts = append(expiredHosts, ns.info.HostID)
		}
	}
	for _, id := range a.ssdOrder {
		ds := a.ssds[id]
		if !ds.up || ds.lastSeen == 0 {
			continue
		}
		if p.Now()-ds.lastSeen > a.cfg.LeaseTimeout {
			ds.up = false
			a.SSDLeaseExpiries++
			a.recoveryDetect.Record(time.Duration(p.Now() - ds.lastSeen))
			a.events.Emit(p.Now(), "alloc", fmt.Sprintf("lease expired for ssd%d", id))
			a.failSSD(p, id)
			expiredHosts = append(expiredHosts, ds.info.HostID)
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
		for _, id := range a.beOrder {
			ns := a.nics[id]
			if ns.info.HostID != hostID || ns.info.Backup {
				continue
			}
			tracked = true
			if ns.up {
				dead = false
			}
		}
		for _, id := range a.ssdOrder {
			ds := a.ssds[id]
			if ds.info.HostID != hostID {
				continue
			}
			tracked = true
			if ds.up {
				dead = false
			}
		}
		if tracked && dead {
			a.HostDeaths++
			a.events.Emit(p.Now(), "alloc", fmt.Sprintf("host %d presumed dead: all device leases expired", hostID))
		}
	}
}

func (a *Allocator) sendToFE(p *sim.Proc, hostID int, m ctlMsg) {
	l := a.feLinks[hostID]
	if l == nil {
		return
	}
	var buf [15]byte
	if !l.Send(p, m.encode(buf[:])) {
		a.cmds.Push(func(p *sim.Proc) { a.sendToFE(p, hostID, m) })
		return
	}
	l.Flush(p)
}

func (a *Allocator) sendToSFE(p *sim.Proc, hostID int, m ctlMsg) {
	l := a.sfeLinks[hostID]
	if l == nil {
		return
	}
	var buf [15]byte
	if !l.Send(p, m.encode(buf[:])) {
		a.cmds.Push(func(p *sim.Proc) { a.sendToSFE(p, hostID, m) })
		return
	}
	l.Flush(p)
}

func (a *Allocator) sendToBE(p *sim.Proc, nicID uint16, m ctlMsg) {
	l := a.beLinks[nicID]
	if l == nil {
		return
	}
	var buf [15]byte
	if !l.Send(p, m.encode(buf[:])) {
		a.cmds.Push(func(p *sim.Proc) { a.sendToBE(p, nicID, m) })
		return
	}
	l.Flush(p)
}

// NICLoad returns the allocator's latest telemetry-derived load for a NIC
// in bytes/s (tests and load-balancing policies read this).
func (a *Allocator) NICLoad(id uint16) float64 {
	if ns := a.nics[id]; ns != nil {
		return ns.loadBps
	}
	return 0
}

// NICUp reports the allocator's view of a NIC's health.
func (a *Allocator) NICUp(id uint16) bool {
	if ns := a.nics[id]; ns != nil {
		return ns.up
	}
	return false
}

// SSDLoad returns the latest telemetry-derived load for an SSD in bytes/s.
func (a *Allocator) SSDLoad(id uint16) float64 {
	if ds := a.ssds[id]; ds != nil {
		return ds.loadBps
	}
	return 0
}

// SSDUp reports the allocator's view of a drive's health.
func (a *Allocator) SSDUp(id uint16) bool {
	if ds := a.ssds[id]; ds != nil {
		return ds.up
	}
	return false
}

// NICQuarantined reports whether the health scorer has quarantined a NIC.
func (a *Allocator) NICQuarantined(id uint16) bool {
	if ns := a.nics[id]; ns != nil {
		return ns.quarantine
	}
	return false
}

// SSDQuarantined reports whether the health scorer has quarantined a drive.
func (a *Allocator) SSDQuarantined(id uint16) bool {
	if ds := a.ssds[id]; ds != nil {
		return ds.quarantine
	}
	return false
}

// SSDServiceLatUs returns the drive's last-reported mean service latency µs.
func (a *Allocator) SSDServiceLatUs(id uint16) uint16 {
	if ds := a.ssds[id]; ds != nil {
		return ds.latUs
	}
	return 0
}

// NICErrs returns the NIC's last-reported per-window soft error count.
func (a *Allocator) NICErrs(id uint16) uint16 {
	if ns := a.nics[id]; ns != nil {
		return ns.errs
	}
	return 0
}

// SSDEpoch returns the drive's current fencing epoch (bumped per failover).
func (a *Allocator) SSDEpoch(id uint16) uint16 {
	if ds := a.ssds[id]; ds != nil {
		return ds.epoch
	}
	return 0
}

// RecoveryDetect exposes the failure-detection latency histogram.
func (a *Allocator) RecoveryDetect() *metrics.Histogram { return a.recoveryDetect }

// SSDQueueDepth returns the drive's last-reported queue occupancy.
func (a *Allocator) SSDQueueDepth(id uint16) uint16 {
	if ds := a.ssds[id]; ds != nil {
		return ds.queueDepth
	}
	return 0
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

// ctlMsg is shorthand for building engine control messages. kind's zero
// value maps to DeviceNIC so the (dominant) NIC-engine call sites stay
// terse; storage failover sets kind explicitly.
type ctlMsg struct {
	op    byte
	kind  core.DeviceKind
	ip    netstack.IP
	dev   uint16
	aux   uint16
	epoch uint16
}

func (m ctlMsg) encode(buf []byte) []byte {
	kind := m.kind
	if kind == 0 {
		kind = core.DeviceNIC
	}
	return core.EncodeControl(buf, core.ControlMsg{
		Op: m.op, Kind: kind, IP: m.ip, Dev: m.dev, Aux: m.aux, Epoch: m.epoch,
	})
}
