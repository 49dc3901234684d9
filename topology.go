package oasis

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"oasis/internal/allocator"
	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/faults"
	"oasis/internal/host"
	"oasis/internal/netengine"
	"oasis/internal/netstack"
	"oasis/internal/netsw"
	"oasis/internal/nic"
	"oasis/internal/obs"
	"oasis/internal/raft"
	"oasis/internal/sim"
	"oasis/internal/ssd"
	"oasis/internal/storengine"
	"oasis/internal/topo"
)

// Typed topology-mutation errors. Callers match them with errors.Is; the
// builders wrap them with node-specific context.
var (
	// ErrFrozen marks mutations the topology cannot absorb after Start —
	// only the baseline local-driver path, which exists to reproduce the
	// paper's static Junction setup, stays construct-then-run.
	ErrFrozen = errors.New("topology is frozen after Start for baseline local drivers")
	// ErrDuplicateNode marks an add of an instance or client whose IP an
	// instance or client of the pod already holds.
	ErrDuplicateNode = errors.New("duplicate node id")
	// ErrNoSuchNode marks an operation on a node the graph does not hold.
	ErrNoSuchNode = errors.New("no such node")
	// ErrNodeInUse marks an instance the pod cannot detach or move: a
	// baseline local instance is construct-then-run.
	ErrNodeInUse = errors.New("node is in use")
)

// Host is one pod member: the underlying host model and the drivers its
// instances reach the pod through. The backends of its NICs and SSDs hang
// off the devices (NIC.BE, SSDDev.BE), which record the host they are on.
type Host struct {
	H *host.Host
	// FE is the network frontend. It is wired with the host — data links to
	// every NIC backend, the allocator control link, its core/<host>/fe/*
	// series — but its driver core serves the host's instances, so it starts
	// with the first of them and runs from then on; a host that never has
	// one polls nothing and reads core/<host>/fe/iters 0.
	FE *netengine.Frontend
	// SFE is the storage frontend (created on demand by AddSSD/AddVolume).
	SFE *storengine.Frontend
	// LD is the baseline Junction-style local driver (set by AddLocalNIC).
	LD *netengine.LocalDriver

	// wired and sfeWired mark what the wiring pass has already linked and
	// launched: the host (FE, LD, control link) and its storage frontend,
	// which may arrive later than the host did.
	wired, sfeWired bool
}

// SSDDev is one pooled SSD: the device and its storage backend driver.
type SSDDev struct {
	ID     uint16
	Dev    *ssd.SSD
	BE     *storengine.Backend
	Backup bool

	host  *Host // owner: the host the drive and its backend are attached to
	wired bool
}

// NIC is one pooled NIC: the device and its backend driver.
type NIC struct {
	ID     uint16
	Dev    *nic.NIC
	BE     *netengine.Backend
	SwPort *netsw.Port
	Backup bool

	host  *Host // owner: the host the NIC and its driver are attached to
	wired bool
}

// Instance is a container instance: its frontend attachment and its
// network stack. Exactly one of Port (pooled, via the Oasis frontend) or
// LocalPort (baseline, via a LocalDriver) is set.
type Instance struct {
	Port      *netengine.InstancePort
	LocalPort *netengine.LocalPort
	Stack     *netstack.Stack
	host      *Host
	pod       *Pod
	wired     bool // stack process launched
}

// IPAddr returns the instance's address.
func (i *Instance) IPAddr() netstack.IP { return i.Stack.IP() }

// Host returns the pod host the instance runs on.
func (i *Instance) Host() *Host { return i.host }

// IsPooled reports whether the instance attaches to the pooled datapath
// (an Oasis frontend port) rather than a baseline local driver.
func (i *Instance) IsPooled() bool { return i.Port != nil }

// Assign sets the instance's primary and backup NICs directly (bypassing
// the allocator). backup may be 0. Baseline local instances have no pooled
// frontend port to assign; that returns a descriptive error instead of the
// historical nil-pointer panic. A NIC the pod does not pool — an unknown id
// or a baseline local one — is ErrNoSuchNode, with nothing queued on the
// frontend.
func (i *Instance) Assign(primary, backup uint16) error {
	if i.Port == nil {
		return fmt.Errorf("oasis: Assign on baseline local instance %v: it has no pooled frontend port (AddLocalInstance attaches to the host's local driver; use AddInstance for the pooled datapath)", i.IPAddr())
	}
	ids := []uint16{primary}
	if backup != 0 {
		ids = append(ids, backup)
	}
	for _, id := range ids {
		if n := i.pod.NICs[id]; n == nil || n.BE == nil {
			return fmt.Errorf("oasis: %w: instance %v assigned to %s, which is not a pooled NIC of this pod", ErrNoSuchNode, i.IPAddr(), i.pod.nicName(id))
		}
	}
	i.Port.Assign(primary, backup)
	return nil
}

// RequestAllocation asks the pod-wide allocator for a NIC assignment.
// Baseline local instances need no assignment; the request is ignored.
func (i *Instance) RequestAllocation() {
	if i.Port == nil {
		return
	}
	i.Port.RequestAllocation()
}

// WaitReady blocks until the instance can transmit. Baseline local
// instances are ready immediately.
func (i *Instance) WaitReady(p *Proc, timeout Duration) bool {
	if i.Port == nil {
		return true
	}
	return i.Port.WaitReady(p, timeout)
}

// Client is a load-generator node outside the pod, attached directly to
// the ToR switch (the paper's "network load driver", §5). It runs on the pod
// engine, like everything else in the pod.
type Client struct {
	Stack  *netstack.Stack
	SwPort *netsw.Port
	mac    netsw.MAC
	eng    *sim.Engine // the pod engine
	wired  bool        // stack process launched
	tx     clientTx    // the transmit in progress
}

// Transmit implements netstack.Endpoint for the raw client.
func (c *Client) Transmit(p *Proc, frame []byte) { p.RunJob(c.TransmitJob(frame)) }

// TransmitJob implements netstack.SteppedEndpoint: a raw client hands the
// frame straight to its switch port, which takes no time and no process and
// takes the frame, as Transmit's ownership rules allow.
func (c *Client) TransmitJob(frame []byte) sim.Job {
	c.tx = clientTx{c: c, frame: frame}
	return &c.tx
}

// clientTx is a raw client's transmit as a job: one Step, no legs.
type clientTx struct {
	sim.NonBlocking
	c     *Client
	frame []byte
}

func (t *clientTx) Step() (sim.Duration, bool) {
	t.c.SwPort.SendOwned(t.frame)
	t.frame = nil
	return 0, false
}

// DeliverFrame implements netsw.Sink for the raw client: the stack queues a
// copy of the borrowed frame.
func (c *Client) DeliverFrame(f *netsw.Frame) { c.Stack.DeliverFrame(f.Bytes) }

// Go spawns an application process on the client's engine, the pod's; it is
// identical to Pod.Go.
func (c *Client) Go(name string, fn func(p *Proc)) { c.eng.Go(name, fn) }

// Pod is one whole simulated pod and the incremental node graph behind it:
// the engine, the CXL pool, the ToR switch, and every host, device,
// instance, and client node. Nodes are added one at a time through the
// ...Err builders; only an instance is ever detached again (migration). One
// idempotent pass, wire, turns the graph into a live pod (links to every
// peer, control links, driver launches, metric registration): Start runs it
// over whatever exists, and every add after Start runs it again, where it
// touches only the new node. Cluster composes pods.
type Pod struct {
	Eng    *sim.Engine
	Pool   *cxl.Pool
	Switch *netsw.Switch
	Hosts  []*Host
	NICs   map[uint16]*NIC
	SSDs   map[uint16]*SSDDev
	Alloc  *allocator.Allocator
	// Raft holds the allocator's replicas when Config.RaftReplicas > 0;
	// Raft[0] runs beside the allocator and is the expected leader.
	Raft []*raft.Node

	cfg       Config
	obs       *obs.Registry
	nicDir    map[uint16]netsw.MAC
	nextNICID uint16
	nextSSDID uint16
	nextMAC   uint64
	instances []*Instance
	clients   []*Client
	started   bool
	injector  *faults.Injector
	flakyGen  map[string]int // link-flaky pulse-train generation per target

	// Identity scope: standalone pods are unscoped (flat names, the
	// historical scheme); pods inside a Cluster carry their pod index and
	// prefix every host, device, driver, and metric name with "pod<P>/".
	podIndex int
	scope    string

	// group is the partition group Eng belongs to — the pod's own, or its
	// cluster's — and what Run, Shutdown and Now drive. Every node of the pod
	// runs on Eng: they all share the pool's memory, so a pod is one
	// partition. A standalone pod's group has only it, and a one-partition
	// group is its engine (see internal/sim).
	group *sim.Group

	// ips holds every address an instance or a client of the pod has
	// claimed. Host, NIC and SSD ids come from counters and cannot collide;
	// an IP is the one id a caller chooses.
	ips map[netstack.IP]bool
	// obsPorts counts the pool ports registered so far.
	obsPorts int
}

// NewPod creates an empty standalone pod (its own engine, flat metric
// names, local fault targets) on partition 0 of a group of its own.
func NewPod(cfg Config) *Pod {
	g := sim.NewGroup()
	return newPod(g, g.AddPartition(), cfg, topo.Unscoped)
}

// newPod builds the graph shell on partition eng of g. podIndex scopes every
// name when the pod joins a cluster.
func newPod(g *sim.Group, eng *sim.Engine, cfg Config, podIndex int) *Pod {
	return &Pod{
		Eng:       eng,
		group:     g,
		Pool:      cxl.NewPool(eng, cfg.PoolBytes, cfg.CXL),
		Switch:    netsw.New(eng, cfg.Switch),
		NICs:      make(map[uint16]*NIC),
		SSDs:      make(map[uint16]*SSDDev),
		cfg:       cfg,
		obs:       obs.New(),
		nicDir:    make(map[uint16]netsw.MAC),
		nextNICID: 1,
		nextSSDID: 1,
		nextMAC:   0x02_00_00_00_00_01, // locally administered
		podIndex:  podIndex,
		scope:     topo.Scope(podIndex),
		ips:       make(map[netstack.IP]bool),
	}
}

// PodIndex returns the pod's index inside its cluster, or
// topo.Unscoped for a standalone pod.
func (t *Pod) PodIndex() int { return t.podIndex }

// Started reports whether Start has run (later adds are wired as they are
// made).
func (t *Pod) Started() bool { return t.started }

// Instances returns the number of placed instances.
func (t *Pod) Instances() int { return len(t.instances) }

// InstanceAt returns the i-th placed instance in placement order, or nil
// when out of range.
func (t *Pod) InstanceAt(i int) *Instance {
	if i < 0 || i >= len(t.instances) {
		return nil
	}
	return t.instances[i]
}

// must unwraps a builder's result for the panic-on-error wrappers: each one
// is must(t.Add…Err(…)) and adds nothing else.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// claimIP claims ip for a new instance or client: two stacks answering ARP
// for one address would split its traffic.
func (t *Pod) claimIP(ip netstack.IP) error {
	if t.ips[ip] {
		return fmt.Errorf("oasis: %w: %v is held by another instance or client of this pod", ErrDuplicateNode, ip)
	}
	t.ips[ip] = true
	return nil
}

// releaseIP releases a claimed IP.
func (t *Pod) releaseIP(ip netstack.IP) { delete(t.ips, ip) }

func (t *Pod) hostName(idx int) string { return topo.HostName(t.podIndex, idx) }
func (t *Pod) nicName(id uint16) string {
	return topo.DeviceName(t.podIndex, topo.KindNIC, int(id))
}
func (t *Pod) ssdName(id uint16) string {
	return topo.DeviceName(t.podIndex, topo.KindSSD, int(id))
}

// AddHostErr adds a pod member with a frontend driver. After Start the new
// host is wired immediately: data links to every pooled NIC backend and an
// allocator control link. Its frontend core starts with its first instance.
func (t *Pod) AddHostErr() (*Host, error) {
	id := len(t.Hosts)
	h := host.New(t.Eng, id, t.hostName(id), t.Pool, t.cfg.Host)
	ph := &Host{H: h, FE: netengine.NewFrontend(h, t.Pool, t.nicDir, t.cfg.Engine)}
	t.Hosts = append(t.Hosts, ph)
	if err := t.wire(); err != nil {
		return nil, err
	}
	return ph, nil
}

// AddHost is the legacy panic-on-error wrapper around AddHostErr.
func (t *Pod) AddHost() *Host { return must(t.AddHostErr()) }

// allocMAC hands out a unique locally-administered MAC.
func (t *Pod) allocMAC() netsw.MAC {
	var m netsw.MAC
	v := t.nextMAC
	t.nextMAC++
	for i := 5; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}

// checkHost validates a host argument: it must be one of this pod's
// hosts, not nil and not a host of another pod of the cluster (whose cache a
// device built here would snoop).
func (t *Pod) checkHost(on *Host) error {
	if on == nil {
		return fmt.Errorf("oasis: %w: nil host", ErrNoSuchNode)
	}
	if on.H.ID >= len(t.Hosts) || t.Hosts[on.H.ID] != on {
		return fmt.Errorf("oasis: %w: %s is not a host of this pod", ErrNoSuchNode, on.H.Name)
	}
	return nil
}

// newNIC claims the next NIC id and builds the device on host on: a DMA port
// on the pool, a switch port, and DMA that snoops the owning host's cache
// (§3.2.1). The caller gives it a driver and enters it in t.NICs.
func (t *Pod) newNIC(on *Host) (*NIC, error) {
	id := t.nextNICID
	t.nextNICID++
	name := t.nicName(id)
	dev := nic.New(t.Eng, name, t.allocMAC(), t.Pool.AttachPort(name+"-dma"), netstack.FlowKey, t.cfg.NIC)
	swPort := t.Switch.AttachPort(name, dev)
	dev.Connect(swPort)
	dev.SetSnooper(on.H.Cache)
	return &NIC{ID: id, Dev: dev, SwPort: swPort, host: on}, nil
}

// AddNICErr attaches a pooled NIC to a host and creates its backend driver.
// backup marks the pod's reserved failover NIC (§3.3.3). After Start the
// NIC is wired immediately: links from every host frontend, an allocator
// link, and a running device + backend loop.
func (t *Pod) AddNICErr(on *Host, backup bool) (*NIC, error) {
	if err := t.checkHost(on); err != nil {
		return nil, err
	}
	n, err := t.newNIC(on)
	if err != nil {
		return nil, err
	}
	n.Backup = backup
	n.BE, err = netengine.NewBackend(on.H, n.ID, n.Dev, t.Pool, t.nicDir, t.cfg.Engine)
	if err != nil {
		return nil, err
	}
	t.nicDir[n.ID] = n.Dev.MAC()
	t.NICs[n.ID] = n
	if err := t.wire(); err != nil {
		return nil, err
	}
	return n, nil
}

// AddNIC is the legacy panic-on-error wrapper around AddNICErr.
func (t *Pod) AddNIC(on *Host, backup bool) *NIC { return must(t.AddNICErr(on, backup)) }

// AddLocalNICErr attaches a NIC served by a Junction-style local driver —
// the evaluation baseline (§5.1): one intermediary core, no pooling, no
// message channels. Instances added with AddLocalInstance use it. The
// baseline path is construct-then-run by design and stays frozen after
// Start.
func (t *Pod) AddLocalNICErr(on *Host) (*NIC, error) {
	if t.started {
		return nil, fmt.Errorf("oasis: %w (AddLocalNIC)", ErrFrozen)
	}
	if err := t.checkHost(on); err != nil {
		return nil, err
	}
	if on.LD != nil {
		return nil, fmt.Errorf("oasis: host %s already has a local driver", on.H.Name)
	}
	n, err := t.newNIC(on)
	if err != nil {
		return nil, err
	}
	on.LD, err = netengine.NewLocalDriver(on.H, n.Dev, t.Pool, t.cfg.Engine)
	if err != nil {
		return nil, err
	}
	t.NICs[n.ID] = n
	return n, nil
}

// AddLocalNIC is the legacy panic-on-error wrapper around AddLocalNICErr.
func (t *Pod) AddLocalNIC(on *Host) *NIC { return must(t.AddLocalNICErr(on)) }

// AddLocalInstanceErr launches an instance on the host's baseline local
// driver. Like the driver itself, baseline instances are pre-Start only.
func (t *Pod) AddLocalInstanceErr(on *Host, ip netstack.IP) (*Instance, error) {
	if t.started {
		return nil, fmt.Errorf("oasis: %w (AddLocalInstance)", ErrFrozen)
	}
	if err := t.checkHost(on); err != nil {
		return nil, err
	}
	if on.LD == nil {
		return nil, fmt.Errorf("oasis: AddLocalInstance requires AddLocalNIC first")
	}
	if err := t.claimIP(ip); err != nil {
		return nil, err
	}
	lp, err := on.LD.AddInstance(ip)
	if err != nil {
		t.releaseIP(ip)
		return nil, err
	}
	stack := netstack.NewStack(t.Eng, t.scope+fmt.Sprintf("inst-%v", ip), ip, lp.CurrentMAC, lp, t.cfg.Stack)
	lp.AttachStack(stack)
	inst := &Instance{LocalPort: lp, Stack: stack, host: on, pod: t}
	t.instances = append(t.instances, inst)
	return inst, nil
}

// AddLocalInstance is the legacy panic-on-error wrapper around
// AddLocalInstanceErr.
func (t *Pod) AddLocalInstance(on *Host, ip netstack.IP) *Instance {
	return must(t.AddLocalInstanceErr(on, ip))
}

// AddSSDErr attaches a pooled SSD of the given capacity (in 4 KiB blocks)
// to a host and creates its storage backend driver (§3.4).
func (t *Pod) AddSSDErr(on *Host, capacityBlocks uint64) (*SSDDev, error) {
	return t.addSSD(on, capacityBlocks, false)
}

// AddSSD is the legacy panic-on-error wrapper around AddSSDErr.
func (t *Pod) AddSSD(on *Host, capacityBlocks uint64) *SSDDev {
	return must(t.AddSSDErr(on, capacityBlocks))
}

// AddBackupSSDErr attaches the pod's reserved backup drive — the §3.3.3
// backup-NIC mechanism applied to storage. Every volume on other drives is
// mirrored onto it (RAID-1 style) by the storage frontends, and the
// allocator re-binds volumes onto it when their primary drive fails. A pod
// has at most one backup drive; it should be at least as large as the sum
// of the volumes it protects.
func (t *Pod) AddBackupSSDErr(on *Host, capacityBlocks uint64) (*SSDDev, error) {
	for _, id := range t.ssdIDs() {
		if t.SSDs[id].Backup {
			return nil, fmt.Errorf("oasis: pod already has backup SSD %d", id)
		}
	}
	return t.addSSD(on, capacityBlocks, true)
}

// AddBackupSSD is the panic-on-error wrapper around AddBackupSSDErr.
func (t *Pod) AddBackupSSD(on *Host, capacityBlocks uint64) *SSDDev {
	return must(t.AddBackupSSDErr(on, capacityBlocks))
}

func (t *Pod) addSSD(on *Host, capacityBlocks uint64, backup bool) (*SSDDev, error) {
	if err := t.checkHost(on); err != nil {
		return nil, err
	}
	id := t.nextSSDID
	t.nextSSDID++
	name := t.ssdName(id)
	dma := t.Pool.AttachPort(name + "-dma")
	dev := ssd.New(t.Eng, name, dma, t.cfg.SSD)
	be := storengine.NewBackend(on.H, id, dev, capacityBlocks)
	d := &SSDDev{ID: id, Dev: dev, BE: be, Backup: backup, host: on}
	t.SSDs[id] = d
	if err := t.wire(); err != nil {
		return nil, err
	}
	return d, nil
}

// storageFE returns a host's storage frontend, creating (and, post-Start,
// wiring) it on first use.
func (t *Pod) storageFE(on *Host) (*storengine.Frontend, error) {
	if on.SFE == nil {
		on.SFE = storengine.NewFrontend(on.H, t.Pool)
		if err := t.wire(); err != nil {
			return nil, err
		}
	}
	return on.SFE, nil
}

// AddVolumeErr provisions a block volume for an instance on a pooled SSD.
// The instance's host is taken from the instance itself (recorded at
// AddInstance time), so no pod-wide scan is needed. Volumes may be added
// after Start: registration rides the normal request path. An unknown SSD,
// or an instance of another pod, is ErrNoSuchNode.
func (t *Pod) AddVolumeErr(inst *Instance, ssdID uint16, blocks uint64) (*storengine.Volume, error) {
	if inst == nil || inst.host == nil {
		return nil, fmt.Errorf("oasis: AddVolume: instance has no host (not built by AddInstance/AddLocalInstance)")
	}
	if inst.pod != t {
		return nil, fmt.Errorf("oasis: %w: instance %v is not an instance of this pod", ErrNoSuchNode, inst.IPAddr())
	}
	if t.SSDs[ssdID] == nil {
		return nil, fmt.Errorf("oasis: %w: volume for instance %v on %s", ErrNoSuchNode, inst.IPAddr(), t.ssdName(ssdID))
	}
	fe, err := t.storageFE(inst.host)
	if err != nil {
		return nil, err
	}
	return fe.AddVolume(inst.IPAddr(), ssdID, blocks)
}

// AddVolume is the legacy panic-on-error wrapper around AddVolumeErr.
func (t *Pod) AddVolume(inst *Instance, ssdID uint16, blocks uint64) *storengine.Volume {
	return must(t.AddVolumeErr(inst, ssdID, blocks))
}

// AddInstanceErr launches a container instance on a pod host. After Start
// the instance's network stack is started immediately, and so is the host's
// frontend core if this is the host's first instance.
func (t *Pod) AddInstanceErr(on *Host, ip netstack.IP) (*Instance, error) {
	if err := t.checkHost(on); err != nil {
		return nil, err
	}
	if err := t.claimIP(ip); err != nil {
		return nil, err
	}
	port, err := on.FE.AddInstance(ip)
	if err != nil {
		t.releaseIP(ip)
		return nil, err
	}
	name := t.scope + fmt.Sprintf("inst-%v", ip)
	stack := netstack.NewStack(t.Eng, name, ip, port.CurrentMAC, port, t.cfg.Stack)
	port.AttachStack(stack)
	inst := &Instance{Port: port, Stack: stack, host: on, pod: t}
	t.instances = append(t.instances, inst)
	if err := t.wire(); err != nil {
		return nil, err
	}
	return inst, nil
}

// AddInstance is the legacy panic-on-error wrapper around AddInstanceErr.
func (t *Pod) AddInstance(on *Host, ip netstack.IP) *Instance {
	return must(t.AddInstanceErr(on, ip))
}

// AddClientErr attaches a raw load-generator node to the switch. Its IP
// must not be one an instance or another client of the pod holds
// (ErrDuplicateNode). After Start its stack is started immediately.
func (t *Pod) AddClientErr(ip netstack.IP) (*Client, error) {
	if err := t.claimIP(ip); err != nil {
		return nil, err
	}
	name := t.scope + fmt.Sprintf("client-%v", ip)
	c := &Client{mac: t.allocMAC(), eng: t.Eng}
	c.SwPort = t.Switch.AttachPort(name, c)
	mac := c.mac
	c.Stack = netstack.NewStack(c.eng, name, ip,
		func() netsw.MAC { return mac }, c, t.cfg.Stack)
	t.clients = append(t.clients, c)
	if err := t.wire(); err != nil {
		return nil, err
	}
	return c, nil
}

// AddClient is the legacy panic-on-error wrapper around AddClientErr.
func (t *Pod) AddClient(ip netstack.IP) *Client { return must(t.AddClientErr(ip)) }

// sortedIDs returns a device map's ids in ascending order, so pod wiring
// and reports never depend on map iteration order (determinism).
func sortedIDs[V any](m map[uint16]V) []uint16 {
	ids := make([]uint16, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (t *Pod) nicIDs() []uint16 { return sortedIDs(t.NICs) }
func (t *Pod) ssdIDs() []uint16 { return sortedIDs(t.SSDs) }

// backupSSDID returns the pod's reserved backup drive id (0 if none).
func (t *Pod) backupSSDID() uint16 {
	for _, id := range t.ssdIDs() {
		if t.SSDs[id].Backup {
			return id
		}
	}
	return 0
}

// allocHost returns the host the allocator runs on (host 0).
func (t *Pod) allocHost() *Host { return t.Hosts[0] }

// Start brings the pod to life: it marks the pod started and runs the
// wiring pass over every node added so far — links, control plane, driver
// launches, metric registration, in one deterministic order (see wire). The
// pod stays mutable afterwards: later adds run the same pass for the
// new node. It panics if the pool cannot hold the pod's channels.
func (t *Pod) Start() {
	if t.started {
		return
	}
	t.started = true
	if err := t.wire(); err != nil {
		panic(err)
	}
}

// Go spawns an application process on the pod engine.
func (t *Pod) Go(name string, fn func(p *Proc)) { t.Eng.Go(name, fn) }

// Run executes d of virtual time on every partition of the pod's group and
// returns the clock. A cluster pod's group is the cluster's: this is
// Cluster.Run.
func (t *Pod) Run(d Duration) Duration { return t.group.RunUntil(d) }

// Shutdown unwinds all processes (end of an experiment) on every partition.
// Once the group has more than one partition, call it only from outside the
// simulation, between Run calls.
func (t *Pod) Shutdown() { t.group.Shutdown() }

// Now returns the virtual clock: the engine's while the pod is the group's
// only partition, the committed (barrier) time otherwise.
func (t *Pod) Now() Duration { return t.group.Now() }

// FailNICPort injects the paper's §5.3 failure: the switch port connected
// to the NIC is disabled.
func (t *Pod) FailNICPort(id uint16) {
	if n, ok := t.NICs[id]; ok {
		n.SwPort.SetEnabled(false)
	}
}

// setupRaft builds the allocator's replica group: RaftReplicas nodes on the
// first hosts, RPCs over 64 B message channels, with the allocator's
// decisions proposed to the log before being acted on (§3.5).
func (t *Pod) setupRaft() {
	n := t.cfg.RaftReplicas
	if n < 3 || n%2 == 0 || n > len(t.Hosts) {
		panic(fmt.Sprintf("oasis: RaftReplicas = %d needs an odd count >= 3 and <= hosts", n))
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	trs := make([]*raft.ChannelTransport, n)
	for i := range trs {
		trs[i] = raft.NewChannelTransport(t.Eng, i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := trs[i].ConnectPeer(t.Pool, t.Hosts[i].H, trs[j], t.Hosts[j].H); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < n; i++ {
		cfg := raft.DefaultConfig()
		cfg.Seed = 11
		// Fail proposals fast: the allocator retries them with backoff (see
		// allocator.deferRetry), so a commit stuck behind a mid-election
		// group should return quickly rather than stall the control plane.
		cfg.ProposeLimit = 100 * time.Millisecond
		if i == 0 {
			// The allocator runs on host 0; bias it to win the first
			// election so proposals originate beside the leader.
			cfg.ElectionMin = 10 * time.Millisecond
			cfg.ElectionMax = 15 * time.Millisecond
		} else {
			cfg.ElectionMin = 40 * time.Millisecond
			cfg.ElectionMax = 60 * time.Millisecond
		}
		node := raft.New(t.Eng, i, ids, trs[i], nil, cfg)
		trs[i].Bind(node)
		t.Raft = append(t.Raft, node)
		node.Start()
		node.RegisterObs(t.obs, fmt.Sprintf("%sraft/%d", t.scope, i))
	}
	t.Alloc.Replicate(&multiReplicator{nodes: t.Raft})
}

// multiReplicator adapts the raft group to the allocator's replication
// hook. Unlike a replicator pinned to one node, it proposes through
// whichever live replica currently leads, so allocator decisions survive
// the loss of the original leader (node 0's host crashing): after
// re-election the promoted follower carries the log and proposals resume
// through it.
type multiReplicator struct {
	nodes []*raft.Node
}

// Propose finds a live leader (bounded wait, exponential backoff while an
// election is in flight) and blocks until the command commits. A stopped
// node still claiming leadership is a zombie and is skipped.
func (r *multiReplicator) Propose(p *Proc, cmd []byte) bool {
	deadline := p.Now() + 120*time.Millisecond
	for attempt := 0; ; attempt++ {
		for _, node := range r.nodes {
			if node.IsLeader() && !node.Stopped() {
				return node.Propose(p, cmd)
			}
		}
		if p.Now() >= deadline {
			return false
		}
		p.Sleep(core.Backoff(time.Millisecond, 16*time.Millisecond, attempt))
	}
}

// Obs exposes the pod's metrics registry so applications and tests can
// register their own instruments alongside the built-in ones.
func (t *Pod) Obs() *obs.Registry { return t.obs }

// Stats samples every registered instrument at the current virtual time and
// returns a typed, deterministically ordered snapshot. Instruments are only
// read here — sampling costs no virtual time and never perturbs the run.
func (t *Pod) Stats() obs.Snapshot { return t.obs.Snapshot(t.Eng.Now()) }
