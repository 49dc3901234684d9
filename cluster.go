package oasis

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"oasis/internal/faults"
	"oasis/internal/netstack"
	"oasis/internal/obs"
	"oasis/internal/sim"
	"oasis/internal/ssd"
	"oasis/internal/storengine"
	"oasis/internal/topo"
)

// Typed cluster errors.
var (
	// ErrNoSuchPod marks an operation addressed to a pod index the cluster
	// does not hold.
	ErrNoSuchPod = errors.New("no such pod")
	// ErrMigrationFailed marks a cross-pod migration that aborted with the
	// source instance intact (writes unfrozen again).
	ErrMigrationFailed = errors.New("cross-pod migration failed")
	// ErrSerialCluster marks a pod whose config needs partitions of its own
	// (Config.PerHostPartitions) added to a cluster that keeps every pod on
	// one.
	ErrSerialCluster = errors.New("serial cluster cannot partition a pod")
)

// Cluster composes pods into a rack-scale topology. All pods share ONE
// virtual clock — cross-pod interactions (migrations, staggered fault plans)
// happen on a single timeline — while each pod keeps its own CXL pool, ToR
// switch, allocator, and raft group, exactly as standalone.
// Pods are identity-scoped: pod i's hosts, devices, drivers, metrics, and
// fault targets all carry the "pod<i>/" prefix from internal/topo, so a
// merged cluster snapshot never collides and a fault plan can name any
// node in the rack.
//
// The cluster adds a thin cross-pod placement layer: PlaceInstance routes
// an instance to the least-loaded pod, and MigrateInstance moves an
// instance (with its volume, epoch-fenced) between pods — the §3.5
// allocator's job lifted one level up.
//
// Every cluster executes on a sim.Group, and how the group is cut into
// partitions is the only thing that tells a serial cluster from a
// partitioned one: NewCluster puts every pod on partition 0 beside the
// cluster-level processes — one partition, which internal/sim runs as the
// plain serial loop — while NewPartitionedCluster asks the group for a fresh
// partition per pod. Cluster-level processes are mobile and hop between
// pods; a hop within one partition is a sleep of the same length, so the two
// shapes produce byte-identical virtual timelines.
type Cluster struct {
	// Eng is partition 0: the control partition hosting cluster-level
	// processes, and in a serial cluster every pod as well.
	Eng   *sim.Engine
	pods  []*Pod
	group *sim.Group
	// perPod gives each AddPod a partition of its own.
	perPod bool

	// StopTheWorldMigration makes MigrateInstance freeze writes before the
	// first copy pass instead of the last, so the whole volume copy sits
	// inside the blackout. Kept for comparison — the blackout experiment runs
	// both protocols side by side.
	StopTheWorldMigration bool

	// LastBlackout is the length of the write-blackout window (freeze to
	// cutover) of the most recent successful volume-backed
	// MigrateInstance.
	LastBlackout Duration

	// Stats.
	Placements int64
	Migrations int64
}

// DefaultHopLatency models one cross-pod control RPC: a rack-local
// round trip through the spine plus kernel/IPC overhead on both ends.
const DefaultHopLatency = 20 * time.Microsecond

// NewCluster creates an empty serial cluster: every pod joins partition 0,
// so the whole rack is one event loop.
func NewCluster() *Cluster { return newCluster(false) }

// NewPartitionedCluster creates an empty cluster whose every AddPod gets a
// sim partition of its own: Run advances the pods in parallel under the
// group's conservative windows, and cluster-level processes (Cluster.Go)
// really move between partitions when they hop. Simulation results are
// byte-identical to NewCluster provided cross-pod work is written against
// the cluster API (Go/GoPod/Migrate*): pods share no other channels, so the
// only cross-partition traffic is the hop itself.
func NewPartitionedCluster() *Cluster { return newCluster(true) }

func newCluster(perPod bool) *Cluster {
	g := sim.NewGroup()
	g.SetMobileLatency(DefaultHopLatency)
	return &Cluster{Eng: g.AddPartition(), group: g, perPod: perPod}
}

// Partitions returns the number of sim partitions backing the cluster: 1
// for a serial cluster; the control partition, one per pod and one per
// partitioned client or guest otherwise.
func (c *Cluster) Partitions() int { return c.group.Partitions() }

// SetHopLatency changes the modeled control-plane RPC cost a cluster-level
// operation pays each time it moves between pods (placement probe, migration
// step); DefaultHopLatency until set. It is the group's mobile-process
// latency — the one place it is stored — and so also the lookahead a
// partitioned cluster's windows are cut from: it must respect the group's
// 100 ns floor. Call it before spawning cluster processes.
func (c *Cluster) SetHopLatency(d Duration) { c.group.SetMobileLatency(d) }

// AddPodErr appends a pod built from cfg; its index (and thereby its
// "pod<i>/" identity scope) is its position. A pod added after
// Cluster.Start is not started by it: add its nodes and call its own Start
// (or add them after that Start — the wiring pass is the same either way).
// A pod with Config.PerHostPartitions needs a partitioned cluster: on a
// serial one it is refused with ErrSerialCluster.
func (c *Cluster) AddPodErr(cfg Config) (*Pod, error) {
	idx := len(c.pods)
	eng := c.Eng
	switch {
	case c.perPod:
		// Pods share no sim channels (cross-pod interaction is the migration
		// layer's hop), so no CrossLink registration is needed here; wiring
		// that ever spans pods must declare one (sim.Group.Link, as
		// netsw.Switch.AttachRemotePort does).
		eng = c.group.AddPartition()
	case cfg.PerHostPartitions:
		return nil, fmt.Errorf("oasis: %w: pod%d asks for Config.PerHostPartitions (use NewPartitionedCluster)", ErrSerialCluster, idx)
	}
	p := &Pod{Topology: newTopology(c.group, eng, cfg, idx)}
	c.pods = append(c.pods, p)
	return p, nil
}

// AddPod is the panic-on-error wrapper around AddPodErr.
func (c *Cluster) AddPod(cfg Config) *Pod { return must(c.AddPodErr(cfg)) }

// Pods returns the cluster's pods in index order.
func (c *Cluster) Pods() []*Pod { return c.pods }

// Pod returns pod i, or nil when out of range.
func (c *Cluster) Pod(i int) *Pod {
	if i < 0 || i >= len(c.pods) {
		return nil
	}
	return c.pods[i]
}

// Start wires and launches every pod, in index order.
func (c *Cluster) Start() {
	for _, p := range c.pods {
		p.Start()
	}
}

// Go spawns a cluster-level application process: a mobile process homed on
// the control partition, free to hop between pods (MigrateInstance and
// friends hop on its behalf). Cross-pod drivers — anything that may call
// the migration layer — must be spawned here, not with GoPod.
func (c *Cluster) Go(name string, fn func(p *Proc)) { c.group.GoMobile(c.Eng, name, fn) }

// GoPod spawns an application process inside pod i's own execution domain,
// its partition (the shared one in a serial cluster). Pod-local workloads
// spawned here are what partitioned execution runs in parallel.
func (c *Cluster) GoPod(i int, name string, fn func(p *Proc)) {
	pod := c.Pod(i)
	if pod == nil {
		panic(fmt.Sprintf("oasis: GoPod: no such pod %d", i))
	}
	pod.Eng.Go(name, fn)
}

// Run executes d of virtual time across the whole cluster.
func (c *Cluster) Run(d Duration) Duration { return c.group.RunUntil(d) }

// Shutdown unwinds all processes in every pod. A serial cluster may be shut
// down from inside the simulation; a partitioned one only between Run calls.
func (c *Cluster) Shutdown() { c.group.Shutdown() }

// Now returns the cluster's virtual clock: the shared engine's clock in a
// serial cluster, the committed (barrier) time in a partitioned one.
func (c *Cluster) Now() Duration { return c.group.Now() }

// hop moves a cluster-level process's execution context to pod, charging the
// hop latency of virtual time — a sleep when pod shares the process's
// partition, so timelines are identical however the rack is partitioned.
func (c *Cluster) hop(p *Proc, pod *Pod) { c.group.Hop(p, pod.Eng) }

// podLoad is the placement layer's load proxy for one pod: placed
// instances per usable (non-backup) NIC. It needs no cross-pod telemetry
// — instance counts and NIC counts are construction-time facts — which
// keeps placement deterministic and allocator-agnostic.
func (c *Cluster) podLoad(p *Pod) float64 {
	nics := 0
	for _, id := range p.nicIDs() {
		n := p.NICs[id]
		if n.BE != nil && !n.Backup {
			nics++
		}
	}
	if nics == 0 {
		return float64(len(p.instances)) + 1e9 // effectively unplaceable
	}
	return float64(len(p.instances)) / float64(nics)
}

// leastLoadedPod picks the pod with the lowest load (ties: lowest index).
func (c *Cluster) leastLoadedPod() *Pod {
	var best *Pod
	bestLoad := 0.0
	for _, p := range c.pods {
		l := c.podLoad(p)
		if best == nil || l < bestLoad {
			best, bestLoad = p, l
		}
	}
	return best
}

// leastLoadedHost picks the live host with the fewest instances (ties:
// lowest index).
func leastLoadedHost(p *Pod) *Host {
	counts := make(map[*Host]int)
	for _, inst := range p.instances {
		counts[inst.host]++
	}
	var best *Host
	bestN := 0
	for _, ph := range p.liveHosts() {
		if n := counts[ph]; best == nil || n < bestN {
			best, bestN = ph, n
		}
	}
	return best
}

// findInstance locates an instance by IP across the cluster.
func (c *Cluster) findInstance(ip netstack.IP) (*Pod, *Instance) {
	for _, p := range c.pods {
		for _, inst := range p.instances {
			if inst.IPAddr() == ip {
				return p, inst
			}
		}
	}
	return nil, nil
}

// PlaceInstanceErr routes an instance to the least-loaded pod (placed
// instances per usable NIC; ties go to the lowest pod index) and the
// least-loaded host within it, then asks that pod's allocator for a NIC
// assignment. Instance IPs are cluster-unique.
func (c *Cluster) PlaceInstanceErr(ip netstack.IP) (*Instance, error) {
	if len(c.pods) == 0 {
		return nil, fmt.Errorf("oasis: %w: cluster has no pods", ErrNoSuchPod)
	}
	if p, _ := c.findInstance(ip); p != nil {
		return nil, fmt.Errorf("oasis: %w: inst-%v already placed in pod%d", ErrDuplicateNode, ip, p.podIndex)
	}
	pod := c.leastLoadedPod()
	host := leastLoadedHost(pod)
	if host == nil {
		return nil, fmt.Errorf("oasis: %w: pod%d has no live hosts", ErrNoSuchNode, pod.podIndex)
	}
	inst, err := pod.AddInstanceErr(host, ip)
	if err != nil {
		return nil, err
	}
	if pod.Started() && pod.Alloc != nil {
		inst.RequestAllocation()
	}
	c.Placements++
	return inst, nil
}

// PlaceInstance is the panic-on-error wrapper around PlaceInstanceErr.
func (c *Cluster) PlaceInstance(ip netstack.IP) *Instance { return must(c.PlaceInstanceErr(ip)) }

// Migration pacing: constants of the protocol.
const (
	// migrationCopyBudget bounds how long a migration waits for the source
	// volume to quiesce and for the destination volume to register.
	migrationCopyBudget = 500 * time.Millisecond
	// precopyRounds bounds the dirty passes a pre-copy migration runs
	// unfrozen: each re-copies the blocks dirtied during the previous one, so
	// the set shrinks geometrically when the copy outruns the writer. More
	// rounds shrink the final freeze window at the cost of total time.
	precopyRounds = 4
	// precopyFlushBlocks ends them early: a pass that begins with at most
	// this many dirty blocks is run frozen, as the last.
	precopyFlushBlocks = 16
)

// MigrateInstance moves an instance — and its volume, if it has one — to
// pod dst. It must run inside a simulation process (use Cluster.Go).
//
// The volume moves in copy passes, one loop (migration.run): pass 0 copies
// the whole image [0, blocks), every later pass the blocks dirtied since the
// one before (Volume.TakeDirty, armed before pass 0 reads). A pass reads at
// the source through the ordinary read path, hops, and writes at the
// destination; after pass 0's read the destination is placed — instance,
// allocator request, a fresh volume — once. The last pass is the one run
// fenced: writes are frozen first (new writes fail fast with ErrMigrating —
// never acknowledged, so no promise exists) and the volume quiesced, which
// bumps its fencing epoch so a wedged backend's late completion is rejected
// (StaleRejected) rather than applied after the cutover — the zombie defense
// of the SSD failover path. A quiesce timeout is safe to proceed past for the
// same reason. Everything acked before the freeze is durable and either
// already copied or in the dirty set the fenced pass takes, so no acked write
// is ever lost, even with the fault injector tearing at both pods.
//
// Which pass is the fenced one is the whole difference between the two
// protocols. Pre-copy (the default) keeps writes flowing through pass 0 and
// up to precopyRounds dirty passes and fences the first pass that starts with
// at most precopyFlushBlocks dirty (or the one after the rounds run out): the
// blackout is bounded by the write rate, not the volume size.
// StopTheWorldMigration fences pass 0 — freeze, then copy everything inside
// the blackout — and is kept for comparison. After the fenced pass the source
// instance, volume and placement are removed; LastBlackout records
// freeze→cutover.
//
// On any failure the migration is torn down from wherever it got to
// (migration.teardown): the source instance is left intact with writes
// unfrozen and tracking disarmed (the epoch bump is harmless), and
// ErrMigrationFailed is returned.
//
// The driver executes against one pod at a time, paying a hop-latency
// control RPC (SetHopLatency) to move between them; each pass is one round
// trip. In a partitioned cluster each hop re-homes the (mobile) process onto
// that pod's partition, which is also what makes the pod-local state it
// touches race-free; hopping within a partition charges the identical
// virtual time as a sleep. Call it only from processes spawned with
// Cluster.Go.
func (c *Cluster) MigrateInstance(p *Proc, ip netstack.IP, dst int) (*Instance, error) {
	dstPod := c.Pod(dst)
	if dstPod == nil {
		return nil, fmt.Errorf("oasis: %w: pod%d", ErrNoSuchPod, dst)
	}
	srcPod, inst := c.findInstance(ip)
	if inst == nil {
		return nil, fmt.Errorf("oasis: %w: inst-%v", ErrNoSuchNode, ip)
	}
	if srcPod == dstPod {
		return inst, nil
	}
	if inst.Port == nil {
		return nil, fmt.Errorf("oasis: %w: baseline local instance %v cannot migrate", ErrNodeInUse, ip)
	}
	m := &migration{c: c, p: p, src: srcPod, dst: dstPod, inst: inst}
	m.hop(srcPod)
	if sfe := inst.host.SFE; sfe != nil {
		m.vol = sfe.Volume(ip)
	}
	if err := m.run(); err != nil {
		m.teardown()
		return nil, fmt.Errorf("oasis: %w: %v", ErrMigrationFailed, err)
	}
	if m.vol != nil {
		c.LastBlackout = p.Now() - m.frozeAt
	}
	c.Migrations++
	return m.newInst, nil
}

// migration is one MigrateInstance in flight: the two ends, what has been
// built at the destination so far, and which pod the driving process is
// executing in — everything teardown needs to undo it from any point.
type migration struct {
	c        *Cluster
	p        *Proc
	src, dst *Pod
	at       *Pod               // where p executes now
	inst     *Instance          // the source instance
	vol      *storengine.Volume // its volume; nil for a volume-less instance
	newInst  *Instance          // the destination instance, once placed
	newVol   *storengine.Volume
	frozeAt  Duration // when the source volume's writes were frozen
}

// hop moves the process to pod unless it is already there. Pod state is only
// ever touched from its own domain.
func (m *migration) hop(pod *Pod) {
	if m.at != pod {
		m.c.hop(m.p, pod)
		m.at = pod
	}
}

// run is the pass loop, then the cutover.
func (m *migration) run() error {
	for pass := 0; ; pass++ {
		m.hop(m.src)
		var ranges []storengine.DirtyRange
		fenced := true // a volume-less instance is one empty pass
		if m.vol != nil {
			switch {
			case pass > 0:
				fenced = pass > precopyRounds || m.vol.DirtyCount() <= precopyFlushBlocks
			case !m.c.StopTheWorldMigration:
				fenced = false
				m.vol.StartDirtyTracking()
			}
			if fenced {
				m.frozeAt = m.p.Now()
				m.vol.FreezeWrites()
				m.vol.Quiesce(m.p, migrationCopyBudget)
			}
			if pass == 0 {
				ranges = []storengine.DirtyRange{{LBA: 0, Blocks: m.vol.Blocks()}}
			} else {
				ranges = m.vol.TakeDirty()
			}
		}
		data, err := m.read(ranges)
		if err != nil {
			return fmt.Errorf("pass %d: %v", pass, err)
		}
		m.hop(m.dst)
		if pass == 0 {
			if err := m.place(); err != nil {
				return err
			}
		}
		if err := m.write(ranges, data); err != nil {
			return fmt.Errorf("pass %d: %v", pass, err)
		}
		if fenced {
			break
		}
	}
	m.hop(m.src)
	return m.src.RemoveInstanceErr(m.inst)
}

// read copies ranges off the source volume through the ordinary read path,
// one request per MaxBlocksPerRequest. Runs in the source pod's domain.
func (m *migration) read(ranges []storengine.DirtyRange) ([]byte, error) {
	chunk := uint64(m.src.cfg.Storage.MaxBlocksPerRequest())
	var blocks uint64
	for _, r := range ranges {
		blocks += r.Blocks
	}
	data := make([]byte, 0, blocks*ssd.BlockSize)
	for _, r := range ranges {
		for off := uint64(0); off < r.Blocks; off += chunk {
			got, err := m.vol.Read(m.p, r.LBA+off, int(min(chunk, r.Blocks-off)))
			if err != nil {
				return nil, fmt.Errorf("read at lba %d: %v", r.LBA+off, err)
			}
			data = append(data, got...)
		}
	}
	return data, nil
}

// write replays what read returned onto the destination volume. Runs in the
// destination pod's domain.
func (m *migration) write(ranges []storengine.DirtyRange, data []byte) error {
	chunk := uint64(m.dst.cfg.Storage.MaxBlocksPerRequest())
	for _, r := range ranges {
		for off := uint64(0); off < r.Blocks; off += chunk {
			n := min(chunk, r.Blocks-off) * ssd.BlockSize
			if err := m.newVol.Write(m.p, r.LBA+off, data[:n]); err != nil {
				return fmt.Errorf("write at lba %d: %v", r.LBA+off, err)
			}
			data = data[n:]
		}
	}
	return nil
}

// place builds the destination: the instance on the least-loaded host, its
// allocator request, and — for a volume-backed instance — a fresh volume of
// the same size on the pod's first non-backup SSD, waited ready.
func (m *migration) place() (err error) {
	dstHost := leastLoadedHost(m.dst)
	if dstHost == nil {
		return fmt.Errorf("pod%d has no live hosts", m.dst.podIndex)
	}
	if m.newInst, err = m.dst.AddInstanceErr(dstHost, m.inst.IPAddr()); err != nil {
		return err
	}
	if m.dst.Started() && m.dst.Alloc != nil {
		m.newInst.RequestAllocation()
	}
	if m.vol == nil {
		return nil
	}
	dstSSD := uint16(0)
	for _, id := range m.dst.ssdIDs() {
		if !m.dst.SSDs[id].Backup {
			dstSSD = id
			break
		}
	}
	if dstSSD == 0 {
		return fmt.Errorf("pod%d has no usable SSD for the volume", m.dst.podIndex)
	}
	if m.newVol, err = m.dst.AddVolumeErr(m.newInst, dstSSD, m.vol.Blocks()); err != nil {
		return err
	}
	if !m.newVol.WaitReady(m.p, migrationCopyBudget) {
		return fmt.Errorf("destination volume on %s never became ready", m.dst.ssdName(dstSSD))
	}
	return nil
}

// teardown undoes a failed migration from wherever it got to: whatever was
// built at the destination is removed there, then the source volume is
// unfrozen and its tracking disarmed at the source.
func (m *migration) teardown() {
	if m.newInst != nil {
		m.hop(m.dst)
		_ = m.dst.RemoveInstanceErr(m.newInst)
	}
	m.hop(m.src)
	if m.vol != nil {
		m.vol.UnfreezeWrites()
		m.vol.StopDirtyTracking()
	}
}

// RebalanceOnce migrates one instance from the most-loaded pod to the
// least-loaded pod when their load ratio exceeds ratio (>1). Returns the
// migrated instance, or nil if the cluster is balanced. Run it from a
// simulation process.
func (c *Cluster) RebalanceOnce(p *Proc, ratio float64) (*Instance, error) {
	if len(c.pods) < 2 {
		return nil, nil
	}
	var hot, cold *Pod
	for _, pod := range c.pods {
		if hot == nil || c.podLoad(pod) > c.podLoad(hot) {
			hot = pod
		}
		if cold == nil || c.podLoad(pod) < c.podLoad(cold) {
			cold = pod
		}
	}
	if hot == cold || c.podLoad(hot) == 0 {
		return nil, nil // nothing placed anywhere, or no skew possible
	}
	if c.podLoad(cold) > 0 && c.podLoad(hot)/c.podLoad(cold) <= ratio {
		return nil, nil
	}
	if len(hot.instances) == 0 {
		return nil, nil
	}
	victim := hot.instances[len(hot.instances)-1] // newest placement moves
	return c.MigrateInstance(p, victim.IPAddr(), cold.podIndex)
}

// RunFaultPlan routes a cluster-wide fault plan: every event's target must
// carry a "pod<P>/" scope (the internal/topo grammar), and each event is
// scheduled on that pod's own injector. The per-pod sub-plans inherit the
// plan's name and seed.
func (c *Cluster) RunFaultPlan(pl faults.Plan) error {
	perPod := make(map[int][]faults.Event)
	for i, ev := range pl.Events {
		r, err := topo.Parse(ev.Target)
		if err != nil {
			return fmt.Errorf("oasis: cluster plan event %d: %w", i, err)
		}
		if r.Pod == topo.Unscoped {
			return fmt.Errorf("oasis: cluster plan event %d: target %q must carry a pod scope (\"pod<P>/…\")", i, ev.Target)
		}
		if c.Pod(r.Pod) == nil {
			return fmt.Errorf("oasis: cluster plan event %d: %w: pod%d", i, ErrNoSuchPod, r.Pod)
		}
		perPod[r.Pod] = append(perPod[r.Pod], ev)
	}
	idxs := make([]int, 0, len(perPod))
	for idx := range perPod {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		sub := faults.Plan{Name: pl.Name, Seed: pl.Seed, Events: perPod[idx]}
		if err := c.pods[idx].RunFaultPlan(sub); err != nil {
			return err
		}
	}
	return nil
}

// Stats merges every pod's snapshot into one cluster-wide view. Pod
// identity scoping ("pod<i>/" prefixes on hosts, devices, drivers, alloc,
// raft, faults) keeps the merged namespace collision-free; points re-sort
// by name and trace events merge in time order (ties: pod order).
func (c *Cluster) Stats() obs.Snapshot {
	s := obs.Snapshot{At: c.Eng.Now()}
	for _, p := range c.pods {
		ps := p.Stats()
		s.Points = append(s.Points, ps.Points...)
		s.Events = append(s.Events, ps.Events...)
	}
	sort.Slice(s.Points, func(a, b int) bool {
		if s.Points[a].Name != s.Points[b].Name {
			return s.Points[a].Name < s.Points[b].Name
		}
		return s.Points[a].Label < s.Points[b].Label
	})
	sort.SliceStable(s.Events, func(a, b int) bool { return s.Events[a].At < s.Events[b].At })
	return s
}

// StatsReport renders the merged cluster snapshot.
func (c *Cluster) StatsReport() string { return c.Stats().String() }
