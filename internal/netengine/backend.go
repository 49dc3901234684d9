package netengine

import (
	"fmt"

	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/netstack"
	"oasis/internal/netsw"
	"oasis/internal/nic"
	"oasis/internal/obs"
	"oasis/internal/sim"
)

// registration is one instance served by this backend's NIC.
type registration struct {
	ip   netstack.IP
	tag  uint32
	link *core.Link // to the instance's frontend
}

// txMeta tracks an in-flight WQE so its completion can be routed back.
type txMeta struct {
	addr int64
	ip   netstack.IP
	link *core.Link
}

// Backend is the per-NIC backend driver (§3.3): it forwards TX packets and
// RX packets/completions between frontends and the NIC's queue pairs via
// the NIC's native driver, monitors link status, and reports telemetry. It
// never inspects I/O buffers except on the flow-tag-miss fallback path
// (§3.3.1 footnote), keeping DMA snoop-free (§3.2.1). It is an engine loop
// on the core runtime; messages that hit a full ring park on the core
// link's bounded pending queue (completions carry buffer ownership).
type Backend struct {
	*core.Driver
	nicQueues
	h     *host.Host
	nicID uint16
	pool  *cxl.Pool
	cfg   Config

	links      *core.LinkSet // by frontend host id
	regs       map[netstack.IP]*registration
	tags       map[uint32]*registration
	nextTag    uint32
	cookies    map[uint64]txMeta
	nextCook   uint64
	ctrl       *core.LinkEnd
	nicDir     map[uint16]netsw.MAC // pod directory: NIC id -> MAC (for borrowing)
	lastUp     bool
	timersInit bool
	nextCheck  sim.Duration
	nextTelem  sim.Duration
	loadSnap   int64
	aerSnap    int64
	errsSnap   int64

	suppressBorrow bool

	// events receives link-state transitions when RegisterObs hooked the
	// backend to a pod trace ring (nil-safe otherwise).
	events   *obs.TraceRing
	eventSrc string

	// The datapath's jobs (see port.go).
	feMsg  feMsgJob
	txDone sendJob
	rx     beRxJob
	duties dutiesJob

	// Stats.
	TxPosted, RxForwarded int64
	RxNoRoute             int64
	Inspected             int64 // flow-tag-miss fallback inspections
	LinkDownEvents        int64
	MACBorrows            int64
}

// NewBackend creates the backend driver for a NIC attached to h. nicDir
// maps every pod NIC id to its MAC (stored in shared CXL memory in the
// paper's design; a static directory here).
func NewBackend(h *host.Host, nicID uint16, dev *nic.NIC, pool *cxl.Pool, nicDir map[uint16]netsw.MAC, cfg Config) (*Backend, error) {
	if !h.InPod() {
		return nil, fmt.Errorf("netengine: backend host must be in the CXL pod")
	}
	be := &Backend{
		h:        h,
		nicID:    nicID,
		pool:     pool,
		cfg:      cfg,
		links:    core.NewLinkSet(core.DefaultPendingLimit),
		regs:     make(map[netstack.IP]*registration),
		tags:     make(map[uint32]*registration),
		nextTag:  1,
		cookies:  make(map[uint64]txMeta),
		nextCook: 1,
		nicDir:   nicDir,
		lastUp:   true,
	}
	var err error
	if be.nicQueues, err = newNICQueues(dev, pool, cfg, be); err != nil {
		return nil, fmt.Errorf("netengine: NIC %d: %w", nicID, err)
	}
	be.serve.q = &be.nicQueues
	be.feMsg.be, be.rx.be = be, be
	be.duties = dutiesJob{be: be, flush: core.NewFlushJob(be.links, &be.ctrl)}
	// One iteration: parked completions, frontend messages, NIC completion
	// queues and RX replenishment, and the control plane's commands and
	// timed duties.
	be.Driver = core.NewDriver(h, fmt.Sprintf("%s/be%d", h.Name, nicID), cfg.driverConfig(),
		core.WorkStage("parked completions", be.parkedIdle, be.drainParked),
		core.SteppedPollStage("frontend messages", be.links, burst, &be.feMsg),
		core.SteppedWorkStage("nic queues", be.nicIdle, &be.serve),
		// Draining allocator commands is not progress: a backend acts on
		// them out of band (MAC borrowing) and must still back off.
		core.ControlStage("allocator commands", &be.ctrl, burst, be.handleControlMsg, false),
		core.SteppedWorkStage("duties and flush", be.dutiesIdle, &be.duties),
	)
	return be, nil
}

// nicQueues is the part of driving a NIC that its two drivers — the pooled
// Backend and the baseline LocalDriver — share: the RX buffer area, the
// number of RX descriptors kept posted, and the pass over the completion
// queues that ends by topping the RX ring up. It is their "nic queues" work
// stage (nicIdle, serve); what a completion means is the driver's.
type nicQueues struct {
	dev      *nic.NIC
	rxArea   *core.BufferArea
	rxTarget int // RX descriptors to keep posted
	serve    nicWork
}

// newNICQueues carves dev's RX buffer area out of pool and sets the
// descriptor target: half the area, at most 1024. c is what the driver makes
// of a completion.
func newNICQueues(dev *nic.NIC, pool *cxl.Pool, cfg Config, c completions) (nicQueues, error) {
	region, err := pool.Alloc(rxAreaBytes)
	if err != nil {
		return nicQueues{}, fmt.Errorf("RX area: %w", err)
	}
	area, err := core.NewBufferArea(region, bufSize)
	if err != nil {
		return nicQueues{}, err
	}
	return nicQueues{dev: dev, rxArea: area, rxTarget: min(area.Capacity()/2, 1024), serve: nicWork{c: c}}, nil
}

// nicIdle reports whether serve has nothing to do: both completion queues
// are empty and the RX ring holds its target (below it, even a failed buffer
// allocation is counted).
func (q *nicQueues) nicIdle() bool {
	return !q.dev.CompletionsReady() && q.dev.RxDescCount() >= q.rxTarget
}

// Host returns the backend's host.
func (be *Backend) Host() *host.Host { return be.h }

// NIC returns the device this backend drives.
func (be *Backend) NIC() *nic.NIC { return be.dev }

// NICID returns the pod-wide NIC identifier.
func (be *Backend) NICID() uint16 { return be.nicID }

// ConnectFrontend wires a frontend's link end into this backend.
func (be *Backend) ConnectFrontend(hostID int, end *core.LinkEnd) {
	be.links.Add(uint32(hostID), end)
}

// SetControlLink attaches the backend's channel to the pod-wide allocator.
func (be *Backend) SetControlLink(end *core.LinkEnd) { be.ctrl = end }

func (be *Backend) parkedIdle() bool { return be.timersInit && be.links.PendingCount() == 0 }

func (be *Backend) drainParked(p *sim.Proc) int {
	if !be.timersInit {
		// Telemetry and link-check windows open at first poll, not at
		// construction, so an engine started late doesn't replay old windows.
		be.timersInit = true
		be.nextCheck = p.Now() + linkCheckEvery
		be.nextTelem = p.Now() + be.cfg.TelemetryEvery
	}
	// Parked completions count as progress: the loop must stay hot until
	// they are delivered.
	progress := be.links.PendingCount()
	be.links.DrainPending(p)
	return progress
}

// dutiesIdle reports whether neither timed duty is due and no message line
// is partly filled.
func (be *Backend) dutiesIdle() bool {
	if be.ctrl != nil {
		if now := be.h.Eng.Now(); now >= be.nextCheck || now >= be.nextTelem {
			return false
		}
	}
	return be.links.FlushIdle() && !be.ctrl.Unflushed()
}

// dutiesJob is the "duties and flush" stage: the timed duties — a link check,
// telemetry — from the process when one is due, then the flush of every
// partly filled message line in steps.
type dutiesJob struct {
	be    *Backend
	flush *core.FlushJob
	due   bool
}

func (j *dutiesJob) Begin() {
	be := j.be
	now := be.h.Eng.Now()
	j.due = be.ctrl != nil && (now >= be.nextCheck || now >= be.nextTelem)
	if !j.due {
		j.flush.Begin()
	}
}

func (j *dutiesJob) Step() (sim.Duration, bool) {
	if j.due {
		return 0, false
	}
	return j.flush.Step()
}

func (j *dutiesJob) Blocked() bool { return j.due }

func (j *dutiesJob) Finish(p *sim.Proc) {
	j.be.maybeCheckLink(p)
	j.be.maybeSendTelemetry(p)
	j.due = false
	j.flush.Begin()
}

func (j *dutiesJob) Progress() int { return 0 }

// feMsgJob is the backend's handling of one frontend message: the datapath's
// — a packet to post, an RX buffer to recycle — in event context after the
// per-message cost, registration from the process.
type feMsgJob struct {
	be     *Backend
	l      *core.Link
	m      msg
	cookie uint64
	pc     feMsgPC
	sub
}

// feMsgPC says where the handling of a frontend message is.
type feMsgPC uint8

const (
	feMsgStart    feMsgPC = iota
	feMsgPaid             // the per-message cost is paid
	feMsgDoorbell         // the WQE's doorbell leg is over
	feMsgProc             // the process handles the message
	feMsgDone
)

func (j *feMsgJob) Begin(l *core.Link, payload []byte) {
	j.l, j.m, j.pc = l, decode(payload), feMsgStart
}

func (j *feMsgJob) Step() (sim.Duration, bool) {
	be, m := j.be, j.m
	for {
		if d, more := j.step(); more {
			return d, true
		}
		switch j.pc {
		case feMsgStart:
			j.pc = feMsgPaid
			return be.cfg.MsgCost, true
		case feMsgPaid:
			j.pc = feMsgDone
			switch m.op {
			case opTxPacket:
				j.cookie = be.nextCook
				be.nextCook++
				be.cookies[j.cookie] = txMeta{addr: m.addr, ip: m.ip, link: j.l}
				j.pc = feMsgDoorbell
				return be.dev.DoorbellCost(), true
			case opRxComplete:
				if be.rxArea.Owns(m.addr) {
					be.rxArea.Free(m.addr)
				}
			default:
				j.pc = feMsgProc
				return 0, false
			}
		case feMsgDoorbell:
			j.pc = feMsgDone
			// The backend never touches the packet buffer: it posts the WQE
			// with the shared-memory pointer and lets the NIC DMA it (§3.3.1).
			if !be.dev.PostTxNow(nic.WQE{Addr: m.addr, Len: int(m.size), Cookie: j.cookie}) {
				// NIC ring full: bounce the completion immediately so the
				// frontend frees the buffer (the packet is dropped, as a real
				// full ring would).
				delete(be.cookies, j.cookie)
				j.sendOrQueue(j.l, msg{op: opTxComplete, addr: m.addr, ip: m.ip})
				continue
			}
			be.TxPosted++
		default:
			return 0, false
		}
	}
}

func (j *feMsgJob) Blocked() bool { return j.pc == feMsgProc }

func (j *feMsgJob) Finish(p *sim.Proc) {
	j.be.handleRegistration(p, j.l, j.m)
	j.pc = feMsgDone
}

// handleRegistration handles the control-path frontend messages.
func (be *Backend) handleRegistration(p *sim.Proc, l *core.Link, m msg) {
	switch m.op {
	case opRegister:
		reg, ok := be.regs[m.ip]
		if !ok {
			reg = &registration{ip: m.ip, tag: be.nextTag, link: l}
			be.nextTag++
			be.regs[m.ip] = reg
			be.tags[reg.tag] = reg
			be.dev.AddFlowRule(uint32(m.ip), reg.tag)
		} else {
			reg.link = l
		}
		var buf [15]byte
		l.SendOrQueue(p, msg{op: opRegisterAck, ip: m.ip, nic: be.nicID}.encode(buf[:]))
	case opUnregister:
		if reg, ok := be.regs[m.ip]; ok {
			be.dev.RemoveFlowRule(uint32(m.ip))
			delete(be.regs, m.ip)
			delete(be.tags, reg.tag)
		}
	}
}

// txJob implements completions: a transmitted packet's completion goes back
// to the frontend that sent it.
func (be *Backend) txJob(tc nic.TxCompletion) sim.Job {
	meta, ok := be.cookies[tc.Cookie]
	if !ok {
		return be.txDone.begin(nil, msg{})
	}
	delete(be.cookies, tc.Cookie)
	return be.txDone.begin(meta.link, msg{op: opTxComplete, addr: meta.addr, ip: meta.ip})
}

// rxJob implements completions (see beRxJob).
func (be *Backend) rxJob(rc nic.RxCompletion) sim.Job {
	be.rx.rc, be.rx.reg, be.rx.pc = rc, nil, beRxStart
	return &be.rx
}

// beRxJob forwards a received packet to the frontend of the instance its flow
// tag names, after the per-message cost. A flow-tag miss (§3.3.1 footnote)
// blocks the job: the process inspects the payload to find the target
// instance, then invalidates the buffer from the backend's caches so future
// DMA stays snoop-free.
type beRxJob struct {
	be  *Backend
	rc  nic.RxCompletion
	reg *registration
	pc  beRxPC
	sub
}

// beRxPC says where a received packet's forwarding is.
type beRxPC uint8

const (
	beRxStart   beRxPC = iota
	beRxPaid           // the per-message cost is paid: look the tag up
	beRxInspect        // the process inspects the payload
	beRxRoute          // forward to reg, or drop
	beRxSent           // the message to the frontend is sent
	beRxDone
)

func (j *beRxJob) Step() (sim.Duration, bool) {
	be, rc := j.be, j.rc
	for {
		if d, more := j.step(); more {
			return d, true
		}
		switch j.pc {
		case beRxStart:
			j.pc = beRxPaid
			return be.cfg.MsgCost, true
		case beRxPaid:
			if rc.Matched {
				j.reg = be.tags[rc.Tag]
			}
			j.pc = beRxRoute
			if j.reg == nil {
				j.pc = beRxInspect
				return 0, false
			}
		case beRxRoute:
			if j.reg == nil {
				be.RxNoRoute++
				be.rxArea.Free(rc.Addr) // recycle immediately
				j.pc = beRxDone
				continue
			}
			j.sendOrQueue(j.reg.link, msg{op: opRxPacket, addr: rc.Addr, size: uint16(rc.Len), ip: j.reg.ip})
			j.pc = beRxSent
		case beRxSent:
			be.RxForwarded++
			j.pc = beRxDone
		default:
			return 0, false
		}
	}
}

func (j *beRxJob) Blocked() bool { return j.pc == beRxInspect }

func (j *beRxJob) Finish(p *sim.Proc) {
	j.reg = j.be.inspectAndRoute(p, j.rc)
	j.pc = beRxRoute
}

// inspectAndRoute reads the packet headers through the backend's cache to
// extract the destination IP — the exceptional path that does bring buffer
// lines into the backend's cache, paid for by the invalidations afterward.
func (be *Backend) inspectAndRoute(p *sim.Proc, rc nic.RxCompletion) *registration {
	be.Inspected++
	n := rc.Len
	if n > bufSize {
		n = bufSize
	}
	buf := be.h.Eng.Bufs().Get(n)
	be.h.Cache.Read(p, rc.Addr, buf, "payload")
	be.h.Cache.FlushRange(p, rc.Addr, n, "payload")
	var pk netstack.Packet
	err := pk.Unmarshal(buf)
	be.h.Eng.Bufs().Put(buf)
	if err != nil {
		return nil
	}
	dst, ok := netstack.DstIPOf(&pk)
	if !ok {
		return nil
	}
	return be.regs[dst]
}

// SuppressMACBorrow disables the MAC-borrowing response (failover ablation:
// GARP-only recovery).
func (be *Backend) SuppressMACBorrow() { be.suppressBorrow = true }

func (be *Backend) handleControlMsg(p *sim.Proc, m core.ControlMsg) {
	switch m.Op {
	case core.CtlBorrowMAC:
		if be.suppressBorrow {
			return
		}
		mac, ok := be.nicDir[m.Dev]
		if !ok {
			return
		}
		be.borrowMAC(mac)
	}
}

// borrowMAC announces the failed NIC's MAC from this NIC's switch port so
// the ToR remaps the address (§3.3.3). The frame is a harmless broadcast
// ARP reply for 0.0.0.0 — only its source MAC matters.
func (be *Backend) borrowMAC(mac netsw.MAC) {
	pk := &netstack.Packet{
		SrcMAC:       mac,
		DstMAC:       netsw.Broadcast,
		EtherType:    netstack.EtherTypeARP,
		ARPOp:        netstack.ARPReply,
		ARPSenderMAC: mac,
	}
	be.dev.SendRaw(pk.Marshal())
	be.MACBorrows++
}

// maybeCheckLink polls the NIC's link-status register (§3.3.3) and reports
// transitions to the allocator.
func (be *Backend) maybeCheckLink(p *sim.Proc) {
	if p.Now() < be.nextCheck {
		return
	}
	be.nextCheck = p.Now() + linkCheckEvery
	up := be.dev.LinkUp()
	if up == be.lastUp {
		return
	}
	be.lastUp = up
	op := byte(core.CtlLinkUp)
	if !up {
		op = core.CtlLinkDown
		be.LinkDownEvents++
	}
	state := "up"
	if !up {
		state = "down"
	}
	be.events.Emit(p.Now(), be.eventSrc, fmt.Sprintf("nic%d link %s", be.nicID, state))
	// Best effort: should a full ring drop the report, the next telemetry
	// record carries the link state and the allocator acts on that.
	core.SendControl(p, be.ctrl, core.ControlMsg{Op: op, Kind: core.DeviceNIC, Dev: be.nicID})
}

// maybeSendTelemetry emits the periodic load record (§3.5: every 100 ms).
func (be *Backend) maybeSendTelemetry(p *sim.Proc) {
	if p.Now() < be.nextTelem {
		return
	}
	be.nextTelem = p.Now() + be.cfg.TelemetryEvery
	load := be.dev.TxBytes + be.dev.RxBytes
	delta := load - be.loadSnap
	be.loadSnap = load
	aerDelta := be.dev.AERUncorrectable - be.aerSnap
	be.aerSnap = be.dev.AERUncorrectable
	if aerDelta > 65535 {
		aerDelta = 65535
	}
	// Soft errors — RX drops and TX carrier errors — are the gray-failure
	// signal: a lossy or flaky link racks these up while the link-status
	// register still reads "up". The health scorer judges them peer-relative.
	errs := be.dev.RxLossDropped + be.dev.TxCarrierErrs
	errsDelta := errs - be.errsSnap
	be.errsSnap = errs
	if errsDelta > 255 {
		errsDelta = 255
	}
	qdepth := len(be.cookies)
	if qdepth > 65535 {
		qdepth = 65535
	}
	core.SendControl(p, be.ctrl, core.ControlMsg{
		Op:         core.CtlTelemetry,
		Kind:       core.DeviceNIC,
		Dev:        be.nicID,
		Load:       uint64(delta),
		LinkUp:     be.dev.LinkUp(),
		AER:        uint16(aerDelta),
		Errs:       uint8(errsDelta),
		QueueDepth: uint16(qdepth),
	}) // best effort: a full ring drops the record, the next window's stands in
}
