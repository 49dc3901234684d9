package netengine

import (
	"errors"
	"fmt"
	"time"

	"oasis/internal/cache"
	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/netstack"
	"oasis/internal/netsw"
	"oasis/internal/sim"
)

// ErrAllocRetryExhausted marks an instance whose allocation-request circuit
// breaker tripped: allocRetryBudget consecutive resends went unanswered, so
// the frontend fails the placement fast instead of retrying forever. A new
// RequestAllocation re-arms the breaker.
var ErrAllocRetryExhausted = errors.New("netengine: allocation retry budget exhausted")

// Config tunes the network engine's cores.
type Config struct {
	Chan     msgchan.Config
	LoopCost sim.Duration // per poll-loop iteration CPU cost
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

	TelemetryEvery sim.Duration // backend telemetry period (§3.5: 100 ms)
}

// DefaultConfig returns the engine defaults.
func DefaultConfig() Config {
	return Config{
		Chan:           msgchan.DefaultConfig(),
		LoopCost:       60 * time.Nanosecond,
		MsgCost:        150 * time.Nanosecond,
		IdleBackoff:    time.Microsecond,
		TelemetryEvery: 100 * time.Millisecond,
	}
}

// The buffer areas. The paper's values (64 MB TX areas, 4 GB RX areas) are
// scaled down so a simulation's free lists stay small while preserving the
// >packets-in-flight property that matters.
const (
	txAreaBytes = 4 << 20  // per-instance TX buffer area (§3.3.1; paper: 64 MB)
	rxAreaBytes = 16 << 20 // per-NIC RX buffer area (§3.3.1; paper: 4 GB)
	bufSize     = 2048     // I/O buffer size; holds one MTU frame
)

// The backend's timers.
const (
	linkCheckEvery = time.Millisecond // backend link-status poll period
	migrationGrace = 5 * time.Second  // §3.3.4: dual-NIC RX window
)

// burst is the most items a driver loop drains per queue per iteration.
const burst = 32

// allocRetryBase is the initial interval after which an unanswered
// allocation request (RequestAllocation with no CtlAssign yet) is resent to
// the allocator; subsequent retries back off exponentially up to
// allocRetryCap. This is what lets instances launched during an allocator
// outage (leader crash, host failure) eventually place.
const allocRetryBase = 10 * time.Millisecond

// allocRetryCap bounds the allocation-request retry backoff.
const allocRetryCap = 500 * time.Millisecond

// allocRetryBudget is the circuit breaker on that retry loop: after this
// many consecutive unanswered resends the frontend stops retrying and the
// instance fails fast with ErrAllocRetryExhausted (AllocError) instead of
// hammering a dead allocator forever. The breaker resets when an assignment
// finally lands or the instance re-requests. It is generous — with the
// backoff cap it tolerates allocator outages of ~15 s — because tripping it
// turns a transient outage into a hard error.
const allocRetryBudget = 32

// driverConfig derives the core runtime pacing from the engine config.
func (c Config) driverConfig() core.DriverConfig {
	return core.DriverConfig{LoopCost: c.LoopCost, IdleBackoff: c.IdleBackoff}
}

// txReq is one packet an instance queued for transmission.
type txReq struct {
	addr int64
	size int
}

// feCmd is deferred work executed on the frontend's core.
type feCmd func(p *sim.Proc)

// Frontend is the per-host frontend driver (§3.3): it owns the host's
// instances' TX buffer areas, forwards packets and completions between
// instances and backends, and applies the allocator's failover/migration
// commands. It is an engine loop on the core runtime, polled by its own
// embedded driver core.
type Frontend struct {
	*core.Driver
	h    *host.Host
	pool *cxl.Pool
	cfg  Config

	links     *core.LinkSet        // by NIC id
	nicDir    map[uint16]netsw.MAC // pod directory: NIC id -> MAC
	insts     map[netstack.IP]*InstancePort
	instOrder []netstack.IP
	ctrl      *core.LinkEnd
	cmds      *sim.Queue[feCmd]

	// The datapath's jobs (see port.go).
	queues queuesJob
	beMsg  beMsgJob
	rx     rxCopy

	// Stats.
	TxForwarded, RxDelivered int64
	TxChannelFull            int64
	UnknownCompletions       int64
	FailoversApplied         int64
	AllocRetries             int64
	AllocRetryExhausted      int64 // circuit-breaker trips (per instance-request)
}

// NewFrontend creates the frontend driver for a pod host. nicDir is the
// pod's NIC directory (see NewBackend), where an instance finds the MAC of
// the NIC that serves it.
func NewFrontend(h *host.Host, pool *cxl.Pool, nicDir map[uint16]netsw.MAC, cfg Config) *Frontend {
	if !h.InPod() {
		panic("netengine: frontend host must be in the CXL pod")
	}
	fe := &Frontend{
		h:      h,
		pool:   pool,
		cfg:    cfg,
		links:  core.NewLinkSet(core.DefaultPendingLimit),
		nicDir: nicDir,
		insts:  make(map[netstack.IP]*InstancePort),
		cmds:   sim.NewQueue[feCmd](h.Eng),
		rx:     newRxCopy(h, bufSize),
	}
	fe.queues.fe, fe.beMsg.fe = fe, fe
	// One iteration: deferred commands and instance TX queues, backend
	// messages, allocator commands, and the flush of partially-filled
	// message lines.
	fe.Driver = core.NewDriver(h, h.Name+"/fe", cfg.driverConfig(),
		core.SteppedWorkStage("queues", fe.queuesIdle, &fe.queues),
		core.SteppedPollStage("backend messages", fe.links, burst, &fe.beMsg),
		core.ControlStage("allocator commands", &fe.ctrl, burst, fe.handleControlMsg, true),
		core.SteppedWorkStage("flush", fe.flushIdle, core.NewFlushJob(fe.links, &fe.ctrl)),
	)
	return fe
}

// ConnectBackend wires this frontend to a NIC's backend over its end of a
// duplex link.
func (fe *Frontend) ConnectBackend(nicID uint16, end *core.LinkEnd) {
	fe.links.Add(uint32(nicID), end)
}

// backend returns the link to a NIC's backend, or nil.
func (fe *Frontend) backend(nicID uint16) *core.Link { return fe.links.Get(uint32(nicID)) }

// nicOf is the NIC a backend link leads to.
func nicOf(l *core.Link) uint16 { return uint16(l.Peer) }

// SetControlLink attaches the frontend's channel to the pod-wide allocator.
func (fe *Frontend) SetControlLink(end *core.LinkEnd) { fe.ctrl = end }

// InstancePort is one instance's attachment to the frontend: its TX buffer
// area, its queues, and its current NIC assignment. It implements
// netstack.SteppedEndpoint.
type InstancePort struct {
	port
	fe *Frontend

	primary        *core.Link // to the primary NIC's backend
	pendingPrimary uint16     // NIC id awaiting migration ack (0 = none)
	queued         []uint16   // (primary, backup) of every Assign the frontend's core has yet to apply
	ready          map[uint16]bool
	readySig       *sim.Signal
	curMAC         netsw.MAC

	// Allocation-request retry state (timeout + exponential backoff): set by
	// RequestAllocation, cleared when the allocator's CtlAssign lands.
	// allocTries counts consecutive unanswered resends toward
	// allocRetryBudget; allocErr holds ErrAllocRetryExhausted once the
	// circuit breaker trips.
	allocWant  bool
	allocNext  sim.Duration
	allocTries int
	allocErr   error

	// Stats.
	TxPackets int64
	RxPackets int64
}

// AddInstance creates an instance attachment with its own TX buffer area
// carved from the shared pool.
func (fe *Frontend) AddInstance(ip netstack.IP) (*InstancePort, error) {
	if _, dup := fe.insts[ip]; dup {
		return nil, fmt.Errorf("netengine: instance %v already attached", ip)
	}
	region, err := fe.pool.Alloc(txAreaBytes)
	if err != nil {
		return nil, fmt.Errorf("netengine: TX area for %v: %w", ip, err)
	}
	area, err := core.NewBufferArea(region, bufSize)
	if err != nil {
		return nil, err
	}
	inst := &InstancePort{
		port:     newPort(fe.h, ip, area),
		fe:       fe,
		ready:    make(map[uint16]bool),
		readySig: sim.NewSignal(fe.h.Eng),
	}
	fe.insts[ip] = inst
	fe.instOrder = append(fe.instOrder, ip)
	return inst, nil
}

// CurrentMAC returns the MAC the instance currently transmits with — the
// primary NIC's address, which survives failover because the backup NIC
// borrows it (§3.3.3) and changes only on graceful migration (§3.3.4).
func (ip *InstancePort) CurrentMAC() netsw.MAC { return ip.curMAC }

// Ready reports whether the primary NIC registration completed.
func (ip *InstancePort) Ready() bool {
	return ip.primary != nil && ip.ready[nicOf(ip.primary)]
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

// Assign sets the instance's primary and backup NICs, registering it with
// both backends (§3.3.3: backup registration happens at launch so failover
// is immediate). Pass backup = 0 for no backup.
func (ip *InstancePort) Assign(primary, backup uint16) {
	fe := ip.fe
	ip.queued = append(ip.queued, primary, backup)
	fe.cmds.Push(func(p *sim.Proc) {
		ip.queued = ip.queued[2:]
		pl := fe.backend(primary)
		if pl == nil {
			panic(fmt.Sprintf("netengine: assign to unknown NIC %d", primary))
		}
		ip.primary = pl
		ip.curMAC = fe.nicDir[primary]
		fe.sendRegister(p, pl, ip.ip)
		if backup != 0 {
			bl := fe.backend(backup)
			if bl == nil {
				panic(fmt.Sprintf("netengine: backup NIC %d unknown", backup))
			}
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
		ip.allocNext = p.Now() + allocRetryBase
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
func (fe *Frontend) sendRegister(p *sim.Proc, l *core.Link, ip netstack.IP) {
	var buf [15]byte
	if !l.Send(p, msg{op: opRegister, ip: ip}.encode(buf[:])) {
		// Ring full: retry via the command queue.
		fe.cmds.Push(func(p *sim.Proc) { fe.sendRegister(p, l, ip) })
		return
	}
	l.Flush(p)
}

// queuesIdle reports whether the queues stage has nothing to do: no
// control work is due (controlDue) and no ready instance has queued a packet.
func (fe *Frontend) queuesIdle() bool {
	if fe.controlDue() {
		return false
	}
	for _, ipAddr := range fe.instOrder {
		if inst := fe.insts[ipAddr]; inst.txQ.Len() > 0 && inst.Ready() {
			return false
		}
	}
	return true
}

// controlDue reports whether drainControl has anything to do: a parked
// completion, a deferred command, an allocation request due for a resend.
func (fe *Frontend) controlDue() bool {
	if fe.links.PendingCount() > 0 || fe.cmds.Len() > 0 {
		return true
	}
	if fe.ctrl != nil {
		now := fe.h.Eng.Now()
		for _, ipAddr := range fe.instOrder {
			if inst := fe.insts[ipAddr]; inst.allocWant && now >= inst.allocNext {
				return true
			}
		}
	}
	return false
}

// drainControl is the work the frontend's own queues hold besides instance
// TX, done from the process: parked completion messages, deferred commands,
// allocation-request resends.
func (fe *Frontend) drainControl(p *sim.Proc) int {
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
	if fe.ctrl != nil {
		for _, ipAddr := range fe.instOrder {
			inst := fe.insts[ipAddr]
			if !inst.allocWant || p.Now() < inst.allocNext {
				continue
			}
			if inst.allocTries >= allocRetryBudget {
				inst.allocWant = false
				inst.allocErr = ErrAllocRetryExhausted
				fe.AllocRetryExhausted++
				progress++
				continue
			}
			inst.allocTries++
			inst.allocNext = p.Now() + core.Backoff(allocRetryBase, allocRetryCap, inst.allocTries)
			fe.AllocRetries++
			fe.sendAllocRequest(p, inst)
			progress++
		}
	}
	return progress
}

// queuesJob is the "queues" stage: what drainControl does, from the process
// when anything is due, then every ready instance's TX queue forwarded to
// its primary backend, up to burst packets each, in event context. The
// forwarding publishes the packet buffer and signals the backend (§3.3.1
// TX):
//
//	p.Sleep(MsgCost)
//	h.Cache.WritebackRange(p, req.addr, req.size, "payload")
//	if !inst.primary.Send(p, opTxPacket message) {
//		// ring full: count it, and put the request back at the head
//	}
type queuesJob struct {
	fe       *Frontend
	order    []netstack.IP // the instances as they were when forwarding began
	idx, n   int           // order[idx] is being drained and has n packets out
	inst     *InstancePort
	req      txReq
	link     *core.Link
	wb       cache.RangeOp
	pc       queuesPC
	progress int
	sub
}

// queuesPC says where the queues stage is.
type queuesPC uint8

const (
	queuesControl queuesPC = iota // the process does drainControl
	queuesInst                    // move on to instance order[idx]
	queuesReq                     // take inst's next request
	queuesPaid                    // the per-message cost is paid: write the buffer back
	queuesSend                    // the buffer is written back: signal the backend
	queuesSent                    // the send is over
	queuesDone
)

func (j *queuesJob) Begin() {
	j.progress, j.pc = 0, queuesInst
	if j.fe.controlDue() {
		j.pc = queuesControl
	}
	j.order, j.idx = j.fe.instOrder, 0
}

func (j *queuesJob) Step() (sim.Duration, bool) {
	fe := j.fe
	for {
		if d, more := j.step(); more {
			return d, true
		}
		switch j.pc {
		case queuesInst:
			if j.idx == len(j.order) {
				j.pc = queuesDone
				continue
			}
			j.inst, j.n = fe.insts[j.order[j.idx]], 0
			j.pc = queuesReq
			if !j.inst.Ready() {
				j.idx, j.pc = j.idx+1, queuesInst
			}
		case queuesReq:
			if j.n == burst {
				j.idx, j.pc = j.idx+1, queuesInst
				continue
			}
			req, ok := j.inst.txQ.TryPop()
			if !ok {
				j.idx, j.pc = j.idx+1, queuesInst
				continue
			}
			j.n++
			j.req, j.pc = req, queuesPaid
			return fe.cfg.MsgCost, true
		case queuesPaid:
			j.wb.Begin(fe.h.Cache, false, j.req.addr, j.req.size, "payload")
			j.start(&j.wb)
			j.pc = queuesSend
		case queuesSend:
			var buf [15]byte
			j.link = j.inst.primary
			j.link.BeginSend(msg{op: opTxPacket, addr: j.req.addr, size: uint16(j.req.size), ip: j.inst.ip}.encode(buf[:]))
			j.start(j.link)
			j.pc = queuesSent
		case queuesSent:
			if j.link.Sent() {
				j.inst.TxPackets++
				fe.TxForwarded++
			} else {
				fe.TxChannelFull++
				j.inst.txQ.PushFront(j.req)
			}
			j.progress++
			j.pc = queuesReq
		default:
			return 0, false
		}
	}
}

func (j *queuesJob) Blocked() bool { return j.pc == queuesControl }

func (j *queuesJob) Finish(p *sim.Proc) {
	j.progress += j.fe.drainControl(p)
	j.pc = queuesInst
	j.order = j.fe.instOrder
}

func (j *queuesJob) Progress() int { return j.progress }

func (fe *Frontend) flushIdle() bool { return fe.links.FlushIdle() && !fe.ctrl.Unflushed() }

// beMsgJob is the frontend's handling of one backend message: the
// datapath's — a TX completion, a received packet — in event context after
// the per-message cost, the rest from the process.
type beMsgJob struct {
	fe   *Frontend
	l    *core.Link
	m    msg
	inst *InstancePort
	pc   beMsgPC
	sub
}

// beMsgPC says where the handling of a backend message is.
type beMsgPC uint8

const (
	beMsgStart beMsgPC = iota
	beMsgPaid          // the per-message cost is paid
	beMsgCopy          // the received packet's copy-out is in progress
	beMsgProc          // the process handles the message
	beMsgDone
)

func (j *beMsgJob) Begin(l *core.Link, payload []byte) {
	j.l, j.m, j.pc = l, decode(payload), beMsgStart
}

func (j *beMsgJob) Step() (sim.Duration, bool) {
	fe, m := j.fe, j.m
	for {
		if d, more := j.step(); more {
			return d, true
		}
		switch j.pc {
		case beMsgStart:
			j.pc = beMsgPaid
			return fe.cfg.MsgCost, true
		case beMsgPaid:
			j.pc = beMsgDone
			switch m.op {
			case opTxComplete:
				inst, ok := fe.insts[m.ip]
				if !ok || !inst.area.Owns(m.addr) {
					fe.UnknownCompletions++
					continue
				}
				inst.area.Free(m.addr)
			case opRxPacket:
				inst, ok := fe.insts[m.ip]
				if !ok {
					fe.UnknownCompletions++
					// Recycle the buffer anyway so the backend does not leak it.
					j.sendOrQueue(j.l, msg{op: opRxComplete, addr: m.addr})
					continue
				}
				// §3.3.1 RX: the copy-out, recycling the buffer to its
				// backend; the message carries buffer ownership, so a full
				// ring parks it on the link's pending queue.
				j.inst = inst
				fe.rx.begin(&inst.port, m.addr, int(m.size), j.l, nil)
				j.pc = beMsgCopy
			default:
				j.pc = beMsgProc
				return 0, false
			}
		case beMsgCopy:
			if d, more := fe.rx.Step(); more || fe.rx.Blocked() {
				return d, more
			}
			j.inst.RxPackets++
			fe.RxDelivered++
			j.inst, j.pc = nil, beMsgDone
		default:
			return 0, false
		}
	}
}

func (j *beMsgJob) Blocked() bool {
	return j.pc == beMsgProc || j.pc == beMsgCopy && j.fe.rx.Blocked()
}

func (j *beMsgJob) Finish(p *sim.Proc) {
	if j.pc == beMsgCopy {
		j.fe.rx.Finish(p)
		return
	}
	j.fe.handleRegisterAck(p, j.m)
	j.pc = beMsgDone
}

// handleRegisterAck completes a registration with a backend; any other
// message is ignored.
func (fe *Frontend) handleRegisterAck(p *sim.Proc, m msg) {
	inst, ok := fe.insts[m.ip]
	if m.op != opRegisterAck || !ok {
		return
	}
	inst.ready[m.nic] = true
	inst.readySig.Broadcast()
	if inst.pendingPrimary == m.nic {
		fe.completeMigration(p, inst, m.nic)
	}
}

func (fe *Frontend) handleControlMsg(p *sim.Proc, m core.ControlMsg) {
	switch m.Op {
	case core.CtlFailover:
		failed, backup := m.Dev, m.Aux
		bl := fe.backend(backup)
		if bl == nil {
			return
		}
		for _, ipAddr := range fe.instOrder {
			inst := fe.insts[ipAddr]
			if inst.primary != nil && nicOf(inst.primary) == failed {
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
		inst.Assign(m.Dev, m.Aux)
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
	nl := fe.backend(newNIC)
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
	inst.primary = fe.backend(newNIC)
	inst.pendingPrimary = 0
	inst.curMAC = fe.nicDir[newNIC]
	if inst.stack != nil {
		inst.stack.GratuitousARP()
	}
	if old != nil && nicOf(old) != newNIC {
		fe.h.Eng.After(migrationGrace, func() {
			fe.cmds.Push(func(p *sim.Proc) {
				var buf [15]byte
				if old.Send(p, msg{op: opUnregister, ip: inst.ip}.encode(buf[:])) {
					old.Flush(p)
					delete(inst.ready, nicOf(old))
				}
			})
		})
	}
}

// RemoveInstance detaches an instance from the frontend (cross-pod
// migration's cutover or abort). The caller is responsible for quiescing the
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
