package netengine

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/netstack"
	"oasis/internal/netsw"
	"oasis/internal/sim"
)

// ErrAllocRetryExhausted marks an instance whose allocation-request circuit
// breaker tripped: AllocRetryBudget consecutive resends went unanswered, so
// the frontend fails the placement fast instead of retrying forever. A new
// RequestAllocation re-arms the breaker.
var ErrAllocRetryExhausted = errors.New("netengine: allocation retry budget exhausted")

// Config sizes the network engine. The paper's values (64 MB TX areas, 4 GB
// RX areas, 8192-slot channels) are configurable; defaults are scaled so a
// simulation's free lists stay small while preserving the >packets-in-flight
// property that matters.
type Config struct {
	TxAreaBytes int64 // per-instance TX buffer area (§3.3.1; paper: 64 MB)
	RxAreaBytes int64 // per-NIC RX buffer area (§3.3.1; paper: 4 GB)
	BufSize     int   // I/O buffer size; holds one MTU frame
	Chan        msgchan.Config
	LoopCost    sim.Duration // per poll-loop iteration CPU cost
	// MsgCost is the per-message driver handling cost (decode, per-instance
	// state lookups, WQE/buffer bookkeeping) charged on each send and
	// receive of a datapath message. It models the §5.1 observation that
	// "the frontend and backend driver cores also handle other tasks, which
	// delays message passing" — most of the 4-7 µs end-to-end overhead.
	MsgCost sim.Duration
	// IdleBackoff caps the exponential sleep a driver core applies after
	// consecutive empty poll loops. Real cores busy-poll continuously; the
	// backoff is a simulation-speed device that bounds added latency to one
	// backoff period. Set 0 to busy-poll faithfully (Table 3's idle row).
	IdleBackoff sim.Duration

	LinkCheckEvery sim.Duration // backend link-status poll period
	TelemetryEvery sim.Duration // backend telemetry period (§3.5: 100 ms)
	MigrationGrace sim.Duration // §3.3.4: dual-NIC RX window (5 s)

	// AllocRetryBase is the initial interval after which an unanswered
	// allocation request (RequestAllocation with no CtlAssign yet) is resent
	// to the allocator; subsequent retries back off exponentially up to
	// allocRetryCap. This is what lets instances launched during an
	// allocator outage (leader crash, host failure) eventually place. 0
	// disables retries (a request is sent exactly once).
	AllocRetryBase sim.Duration

	// AllocRetryBudget is the circuit breaker on that retry loop: after
	// this many consecutive unanswered resends the frontend stops
	// retrying and the instance fails fast with ErrAllocRetryExhausted
	// (AllocError) instead of hammering a dead allocator forever. The
	// breaker resets when an assignment finally lands or the instance
	// re-requests. 0 means unlimited retries. The default is generous —
	// with the backoff cap it tolerates allocator outages of ~15 s —
	// because tripping it turns a transient outage into a hard error.
	AllocRetryBudget int
}

// DefaultConfig returns the engine defaults.
func DefaultConfig() Config {
	return Config{
		TxAreaBytes:      4 << 20,
		RxAreaBytes:      16 << 20,
		BufSize:          2048,
		Chan:             msgchan.DefaultConfig(),
		LoopCost:         60 * time.Nanosecond,
		MsgCost:          150 * time.Nanosecond,
		IdleBackoff:      time.Microsecond,
		LinkCheckEvery:   time.Millisecond,
		TelemetryEvery:   100 * time.Millisecond,
		MigrationGrace:   5 * time.Second,
		AllocRetryBase:   10 * time.Millisecond,
		AllocRetryBudget: 32,
	}
}

// burst is the most items a driver loop drains per queue per iteration.
const burst = 32

// allocRetryCap bounds the allocation-request retry backoff.
const allocRetryCap = 500 * time.Millisecond

// driverConfig derives the core runtime pacing from the engine config.
func (c Config) driverConfig() core.DriverConfig {
	return core.DriverConfig{LoopCost: c.LoopCost, IdleBackoff: c.IdleBackoff}
}

// txReq is one packet an instance queued for transmission.
type txReq struct {
	addr int64
	size int
}

// beLink is the frontend's engine-specific peer state for one backend (one
// NIC), carried in the core link's Meta.
type beLink struct {
	nicID uint16
	mac   netsw.MAC
	link  *core.Link
}

// feCmd is deferred work executed on the frontend's core.
type feCmd func(p *sim.Proc)

// Frontend is the per-host frontend driver (§3.3): it owns the host's
// instances' TX buffer areas, forwards packets and completions between
// instances and backends, and applies the allocator's failover/migration
// commands. It is an engine loop on the core runtime — the embedded seat's
// Start gives it a dedicated driver core, Join multiplexes it onto a shared
// one.
type Frontend struct {
	core.Seat
	h    *host.Host
	pool *cxl.Pool
	cfg  Config

	links     *core.LinkSet // by NIC id; Meta holds *beLink
	insts     map[netstack.IP]*InstancePort
	instOrder []netstack.IP
	ctrl      *core.LinkEnd
	cmds      *sim.Queue[feCmd]
	scratch   []byte

	// Stats.
	TxForwarded, RxDelivered int64
	TxChannelFull            int64
	UnknownCompletions       int64
	FailoversApplied         int64
	AllocRetries             int64
	AllocRetryExhausted      int64 // circuit-breaker trips (per instance-request)
}

// NewFrontend creates the frontend driver for a pod host.
func NewFrontend(h *host.Host, pool *cxl.Pool, cfg Config) *Frontend {
	if !h.InPod() {
		panic("netengine: frontend host must be in the CXL pod")
	}
	fe := &Frontend{
		h:       h,
		pool:    pool,
		cfg:     cfg,
		links:   core.NewLinkSet(core.DefaultPendingLimit),
		insts:   make(map[netstack.IP]*InstancePort),
		cmds:    sim.NewQueue[feCmd](h.Eng),
		scratch: make([]byte, cfg.BufSize),
	}
	// One iteration: deferred commands and instance TX queues, backend
	// messages, allocator commands, and the flush of partially-filled
	// message lines.
	fe.Seat = core.NewSeat(h.Name+"/fe", []core.Stage{
		core.WorkStage("queues", fe.queuesIdle, fe.drainQueues),
		core.PollStage("backend messages", fe.links, burst, func(p *sim.Proc, l *core.Link, payload []byte) {
			fe.handleBackendMsg(p, l.Meta.(*beLink), decode(payload))
		}),
		core.ControlStage("allocator commands", &fe.ctrl, burst, fe.handleControlMsg, true),
		core.WorkStage("flush", fe.flushIdle, fe.flush),
	}, h, cfg.driverConfig())
	return fe
}

// Host returns the frontend's host.
func (fe *Frontend) Host() *host.Host { return fe.h }

// ConnectBackend wires this frontend to a backend over its end of a duplex
// link. mac is the backend NIC's address (from the pod directory), which
// instances served by that NIC use as their source MAC.
func (fe *Frontend) ConnectBackend(nicID uint16, mac netsw.MAC, end *core.LinkEnd) {
	l := fe.links.Add(uint32(nicID), end)
	l.Meta = &beLink{nicID: nicID, mac: mac, link: l}
}

// DisconnectBackend forgets the link to a removed NIC's backend: the
// frontend stops polling and flushing it. No instance may still use the NIC.
func (fe *Frontend) DisconnectBackend(nicID uint16) { fe.links.Remove(uint32(nicID)) }

// beLink returns the engine state for a NIC's link, or nil.
func (fe *Frontend) beLink(nicID uint16) *beLink {
	l := fe.links.Get(uint32(nicID))
	if l == nil {
		return nil
	}
	return l.Meta.(*beLink)
}

// SetControlLink attaches the frontend's channel to the pod-wide allocator.
func (fe *Frontend) SetControlLink(end *core.LinkEnd) { fe.ctrl = end }

// InstancePort is one instance's attachment to the frontend: its TX buffer
// area, its queues, and its current NIC assignment. It implements
// netstack.Endpoint.
type InstancePort struct {
	fe   *Frontend
	ip   netstack.IP
	area *core.BufferArea
	txQ  *sim.Queue[txReq]

	stack *netstack.Stack

	primary, backup *beLink
	pendingPrimary  uint16   // NIC id awaiting migration ack (0 = none)
	queued          []uint16 // (primary, backup) of every Assign the frontend's core has yet to apply
	ready           map[uint16]bool
	readySig        *sim.Signal
	curMAC          netsw.MAC

	// Allocation-request retry state (timeout + exponential backoff): set by
	// RequestAllocation, cleared when the allocator's CtlAssign lands.
	// allocTries counts consecutive unanswered resends toward
	// AllocRetryBudget; allocErr holds ErrAllocRetryExhausted once the
	// circuit breaker trips.
	allocWant  bool
	allocNext  sim.Duration
	allocTries int
	allocErr   error

	// Stats.
	TxDropsNoBuffer int64
	TxPackets       int64
	RxPackets       int64
}

// AddInstance creates an instance attachment with its own TX buffer area
// carved from the shared pool.
func (fe *Frontend) AddInstance(ip netstack.IP) (*InstancePort, error) {
	if _, dup := fe.insts[ip]; dup {
		return nil, fmt.Errorf("netengine: instance %v already attached", ip)
	}
	region, err := fe.pool.Alloc(fe.cfg.TxAreaBytes)
	if err != nil {
		return nil, fmt.Errorf("netengine: TX area for %v: %w", ip, err)
	}
	area, err := core.NewBufferArea(region, fe.cfg.BufSize)
	if err != nil {
		return nil, err
	}
	inst := &InstancePort{
		fe:       fe,
		ip:       ip,
		area:     area,
		txQ:      sim.NewQueue[txReq](fe.h.Eng),
		ready:    make(map[uint16]bool),
		readySig: sim.NewSignal(fe.h.Eng),
	}
	fe.insts[ip] = inst
	fe.instOrder = append(fe.instOrder, ip)
	return inst, nil
}

// IP returns the instance's address.
func (ip *InstancePort) IP() netstack.IP { return ip.ip }

// Frontend returns the driver this port is attached to.
func (ip *InstancePort) Frontend() *Frontend { return ip.fe }

// AttachStack binds the instance's network stack (created with
// CurrentMAC as its MAC source and this port as its endpoint).
func (ip *InstancePort) AttachStack(s *netstack.Stack) { ip.stack = s }

// CurrentMAC returns the MAC the instance currently transmits with — the
// primary NIC's address, which survives failover because the backup NIC
// borrows it (§3.3.3) and changes only on graceful migration (§3.3.4).
func (ip *InstancePort) CurrentMAC() netsw.MAC { return ip.curMAC }

// Ready reports whether the primary NIC registration completed.
func (ip *InstancePort) Ready() bool {
	return ip.primary != nil && ip.ready[ip.primary.nicID]
}

// WaitReady blocks the calling process until the instance can transmit.
func (ip *InstancePort) WaitReady(p *sim.Proc, timeout sim.Duration) bool {
	deadline := p.Now() + timeout
	for !ip.Ready() {
		remaining := deadline - p.Now()
		if remaining <= 0 {
			return false
		}
		ip.readySig.WaitTimeout(p, remaining)
	}
	return true
}

// Transmit implements netstack.Endpoint: the instance's stack writes the
// packet into its TX buffer area in shared CXL memory (through the host
// cache — the frontend writes it back later) and signals the frontend over
// local IPC (§3.3.1).
func (ip *InstancePort) Transmit(p *sim.Proc, frame []byte) {
	if len(frame) > ip.area.BufSize() {
		panic(fmt.Sprintf("netengine: frame of %d bytes exceeds buffer size %d", len(frame), ip.area.BufSize()))
	}
	addr, ok := ip.area.Alloc()
	if !ok {
		ip.TxDropsNoBuffer++
		ip.fe.h.Eng.Bufs().Put(frame)
		return
	}
	size := len(frame)
	ip.fe.h.Cache.Write(p, addr, frame, "payload")
	ip.fe.h.Eng.Bufs().Put(frame) // bytes now live in the buffer area
	p.Sleep(ip.fe.h.IPCCost)
	ip.txQ.Push(txReq{addr: addr, size: size})
}

// Assign sets the instance's primary and backup NICs, registering it with
// both backends (§3.3.3: backup registration happens at launch so failover
// is immediate). Pass backup = 0 for no backup.
func (ip *InstancePort) Assign(primary, backup uint16) {
	fe := ip.fe
	ip.queued = append(ip.queued, primary, backup)
	fe.cmds.Push(func(p *sim.Proc) {
		ip.queued = ip.queued[2:]
		pl := fe.beLink(primary)
		if pl == nil {
			panic(fmt.Sprintf("netengine: assign to unknown NIC %d", primary))
		}
		ip.primary = pl
		ip.curMAC = pl.mac
		fe.sendRegister(p, pl, ip.ip)
		if backup != 0 {
			bl := fe.beLink(backup)
			if bl == nil {
				panic(fmt.Sprintf("netengine: backup NIC %d unknown", backup))
			}
			ip.backup = bl
			fe.sendRegister(p, bl, ip.ip)
		}
	})
}

// RequestAllocation asks the pod-wide allocator to pick NICs for this
// instance (§3.5); the allocator answers with an assign command. If no
// answer arrives (the request or reply was lost in an allocator outage),
// the frontend resends under exponential backoff until assigned.
func (ip *InstancePort) RequestAllocation() {
	fe := ip.fe
	fe.cmds.Push(func(p *sim.Proc) {
		if fe.ctrl == nil {
			panic("netengine: RequestAllocation without a control link")
		}
		ip.allocWant = true
		ip.allocNext = p.Now() + fe.cfg.AllocRetryBase
		ip.allocTries = 0
		ip.allocErr = nil
		fe.sendAllocRequest(p, ip)
	})
}

// AllocError returns ErrAllocRetryExhausted once the instance's allocation
// circuit breaker has tripped, nil otherwise (including while retries are
// still in flight).
func (ip *InstancePort) AllocError() error { return ip.allocErr }

// sendAllocRequest emits one allocation request (best effort: a full ring
// is recovered by the retry timer, not a park).
func (fe *Frontend) sendAllocRequest(p *sim.Proc, inst *InstancePort) {
	core.SendControl(p, fe.ctrl, core.ControlMsg{Op: core.CtlAllocRequest, Kind: core.DeviceNIC, IP: inst.ip})
}

// sendRegister emits a registration message (best effort; the channel is
// effectively never full for control traffic).
func (fe *Frontend) sendRegister(p *sim.Proc, l *beLink, ip netstack.IP) {
	var buf [15]byte
	if !l.link.Send(p, msg{op: opRegister, ip: ip}.encode(buf[:])) {
		// Ring full: retry via the command queue.
		fe.cmds.Push(func(p *sim.Proc) { fe.sendRegister(p, l, ip) })
		return
	}
	l.link.Flush(p)
}

// allocRetries reports whether unanswered allocation requests are resent.
func (fe *Frontend) allocRetries() bool { return fe.ctrl != nil && fe.cfg.AllocRetryBase > 0 }

// queuesIdle reports whether drainQueues has nothing to do: no parked
// completion, no deferred command, no allocation request due for a resend,
// no packet queued by a ready instance.
func (fe *Frontend) queuesIdle() bool {
	if fe.links.PendingCount() > 0 || fe.cmds.Len() > 0 {
		return false
	}
	now, retries := fe.h.Eng.Now(), fe.allocRetries()
	for _, ipAddr := range fe.instOrder {
		inst := fe.insts[ipAddr]
		if retries && inst.allocWant && now >= inst.allocNext {
			return false
		}
		if inst.txQ.Len() > 0 && inst.Ready() {
			return false
		}
	}
	return true
}

// drainQueues is the work the frontend's own queues hold: parked completion
// messages, deferred commands, allocation-request resends, instance TX.
func (fe *Frontend) drainQueues(p *sim.Proc) int {
	// Parked completion messages keep the loop hot until delivered.
	progress := fe.links.PendingCount()
	fe.links.DrainPending(p)
	// Deferred commands (assignments, migration steps).
	for i := 0; i < burst; i++ {
		cmd, ok := fe.cmds.TryPop()
		if !ok {
			break
		}
		cmd(p)
		progress++
	}
	// Unanswered allocation requests: resend under exponential backoff,
	// until the per-instance retry budget trips the circuit breaker.
	if fe.allocRetries() {
		for _, ipAddr := range fe.instOrder {
			inst := fe.insts[ipAddr]
			if !inst.allocWant || p.Now() < inst.allocNext {
				continue
			}
			if fe.cfg.AllocRetryBudget > 0 && inst.allocTries >= fe.cfg.AllocRetryBudget {
				inst.allocWant = false
				inst.allocErr = ErrAllocRetryExhausted
				fe.AllocRetryExhausted++
				progress++
				continue
			}
			inst.allocTries++
			inst.allocNext = p.Now() + core.Backoff(fe.cfg.AllocRetryBase, allocRetryCap, inst.allocTries)
			fe.AllocRetries++
			fe.sendAllocRequest(p, inst)
			progress++
		}
	}
	// Instance TX queues -> backends.
	for _, ipAddr := range fe.instOrder {
		inst := fe.insts[ipAddr]
		if !inst.Ready() {
			continue
		}
		for i := 0; i < burst; i++ {
			req, ok := inst.txQ.TryPop()
			if !ok {
				break
			}
			fe.forwardTx(p, inst, req)
			progress++
		}
	}
	return progress
}

func (fe *Frontend) flushIdle() bool { return fe.links.FlushIdle() && !fe.ctrl.Unflushed() }

// flush pushes partial message lines promptly at low rates (§3.2.2).
func (fe *Frontend) flush(p *sim.Proc) int {
	fe.links.FlushAll(p)
	if fe.ctrl != nil {
		fe.ctrl.Flush(p)
	}
	return 0
}

// forwardTx publishes the packet buffer and signals the backend (§3.3.1 TX).
func (fe *Frontend) forwardTx(p *sim.Proc, inst *InstancePort, req txReq) {
	p.Sleep(fe.cfg.MsgCost)
	core.WritebackRange(p, fe.h.Cache, req.addr, req.size, "payload")
	var buf [15]byte
	m := msg{op: opTxPacket, addr: req.addr, size: uint16(req.size), ip: inst.ip}
	if !inst.primary.link.Send(p, m.encode(buf[:])) {
		fe.TxChannelFull++
		inst.txQ.PushFront(req)
		return
	}
	inst.TxPackets++
	fe.TxForwarded++
}

func (fe *Frontend) handleBackendMsg(p *sim.Proc, l *beLink, m msg) {
	p.Sleep(fe.cfg.MsgCost)
	switch m.op {
	case opTxComplete:
		inst, ok := fe.insts[m.ip]
		if !ok || !inst.area.Owns(m.addr) {
			fe.UnknownCompletions++
			return
		}
		inst.area.Free(m.addr)
	case opRxPacket:
		inst, ok := fe.insts[m.ip]
		if !ok {
			fe.UnknownCompletions++
			// Recycle the buffer anyway so the backend does not leak it.
			fe.sendRxComplete(p, l, m.addr)
			return
		}
		fe.deliverRx(p, l, inst, m)
	case opRegisterAck:
		inst, ok := fe.insts[m.ip]
		if !ok {
			return
		}
		inst.ready[m.nic] = true
		inst.readySig.Broadcast()
		if inst.pendingPrimary == m.nic {
			fe.completeMigration(p, inst, m.nic)
		}
	}
}

// deliverRx implements §3.3.1 RX: read the packet from the shared RX
// buffer, copy it into the instance's local memory (isolation, §3.3.2),
// invalidate the buffer lines, notify the instance, and recycle the buffer.
func (fe *Frontend) deliverRx(p *sim.Proc, l *beLink, inst *InstancePort, m msg) {
	n := int(m.size)
	fe.h.Cache.Read(p, m.addr, fe.scratch[:n], "payload")
	local := fe.h.Eng.Bufs().Get(n)
	copy(local, fe.scratch[:n])
	p.Sleep(fe.h.Local.TouchCost(n)) // the isolation copy into instance memory
	core.InvalidateRange(p, fe.h.Cache, m.addr, n, "payload")
	fe.sendRxComplete(p, l, m.addr)
	inst.RxPackets++
	fe.RxDelivered++
	if inst.stack != nil {
		inst.stack.DeliverOwnedFrame(local)
	} else {
		fe.h.Eng.Bufs().Put(local)
	}
}

// sendRxComplete recycles an RX buffer to its backend. The message carries
// buffer ownership, so a full ring parks it on the link's bounded pending
// queue rather than dropping it.
func (fe *Frontend) sendRxComplete(p *sim.Proc, l *beLink, addr int64) {
	var buf [15]byte
	l.link.SendOrQueue(p, msg{op: opRxComplete, addr: addr}.encode(buf[:]))
}

func (fe *Frontend) handleControlMsg(p *sim.Proc, m core.ControlMsg) {
	switch m.Op {
	case core.CtlFailover:
		failed, backup := m.Dev, m.Aux
		bl := fe.beLink(backup)
		if bl == nil {
			return
		}
		for _, ipAddr := range fe.instOrder {
			inst := fe.insts[ipAddr]
			if inst.primary != nil && inst.primary.nicID == failed {
				// TX reroutes immediately: buffers are already in shared CXL
				// memory, so no copy is needed (§3.3.3). The MAC is borrowed,
				// so curMAC stays.
				inst.primary = bl
				if !inst.ready[backup] {
					fe.sendRegister(p, bl, inst.ip)
				}
				fe.FailoversApplied++
			}
		}
	case core.CtlAssign:
		inst, ok := fe.insts[m.IP]
		if !ok {
			return
		}
		inst.allocWant = false
		inst.allocTries = 0
		inst.allocErr = nil // a late assign heals a tripped breaker
		backup := uint16(0)
		if m.Aux != 0 {
			backup = m.Aux
		}
		inst.Assign(m.Dev, backup)
	case core.CtlMigrate:
		inst, ok := fe.insts[m.IP]
		if !ok {
			return
		}
		fe.startMigration(p, inst, m.Dev)
	}
}

// startMigration begins a graceful migration (§3.3.4): register with the
// new NIC; the flip happens when the ack arrives.
func (fe *Frontend) startMigration(p *sim.Proc, inst *InstancePort, newNIC uint16) {
	nl := fe.beLink(newNIC)
	if nl == nil {
		return
	}
	inst.pendingPrimary = newNIC
	if inst.ready[newNIC] {
		fe.completeMigration(p, inst, newNIC)
		return
	}
	fe.sendRegister(p, nl, inst.ip)
}

// completeMigration flips the primary, announces the new MAC via
// gratuitous ARP, and unregisters from the old NIC after the grace period.
func (fe *Frontend) completeMigration(p *sim.Proc, inst *InstancePort, newNIC uint16) {
	old := inst.primary
	inst.primary = fe.beLink(newNIC)
	inst.pendingPrimary = 0
	inst.curMAC = inst.primary.mac
	if inst.stack != nil {
		inst.stack.GratuitousARP()
	}
	if old != nil && old.nicID != newNIC {
		fe.h.Eng.After(fe.cfg.MigrationGrace, func() {
			fe.cmds.Push(func(p *sim.Proc) {
				var buf [15]byte
				if old.link.Send(p, msg{op: opUnregister, ip: inst.ip}.encode(buf[:])) {
					old.link.Flush(p)
					delete(inst.ready, old.nicID)
				}
			})
		})
	}
}

// UsesNIC reports whether the instance is attached to the NIC as primary,
// backup, queued assignment, or pending migration target — the "in use"
// check a topology-level NIC removal must clear first.
func (ip *InstancePort) UsesNIC(id uint16) bool {
	if ip.primary != nil && ip.primary.nicID == id {
		return true
	}
	if ip.backup != nil && ip.backup.nicID == id {
		return true
	}
	return ip.pendingPrimary == id || slices.Contains(ip.queued, id)
}

// RemoveInstance detaches an instance from the frontend (topology removal
// or cross-pod migration). The caller is responsible for quiescing the
// instance's traffic first; the TX buffer area is intentionally not
// returned to the pool, so a straggler TX completion frees into a dead
// area instead of corrupting a reused region (it shows up as an
// UnknownCompletion, which is the honest outcome).
func (fe *Frontend) RemoveInstance(ip netstack.IP) error {
	if _, ok := fe.insts[ip]; !ok {
		return fmt.Errorf("netengine: instance %v not attached", ip)
	}
	delete(fe.insts, ip)
	for i, o := range fe.instOrder {
		if o == ip {
			fe.instOrder = append(fe.instOrder[:i], fe.instOrder[i+1:]...)
			break
		}
	}
	return nil
}

// Stats exports the uniform engine counter block (link traffic,
// backpressure, buffer-area pressure across all instances' TX areas).
func (fe *Frontend) Stats() core.EngineStats {
	s := core.EngineStats{Name: fe.LoopName(), Links: fe.links.Stats()}
	for _, ip := range fe.instOrder {
		s.AccumulateArea(fe.insts[ip].area)
	}
	return s
}
