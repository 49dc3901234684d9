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

// feLink is the backend's engine-specific peer state for one frontend (one
// host), carried in the core link's Meta.
type feLink struct {
	hostID int
	link   *core.Link
}

// registration is one instance served by this backend's NIC.
type registration struct {
	ip   netstack.IP
	tag  uint32
	link *feLink
}

// txMeta tracks an in-flight WQE so its completion can be routed back.
type txMeta struct {
	addr int64
	ip   netstack.IP
	link *feLink
}

// Backend is the per-NIC backend driver (§3.3): it forwards TX packets and
// RX packets/completions between frontends and the NIC's queue pairs via
// the NIC's native driver, monitors link status, and reports telemetry. It
// never inspects I/O buffers except on the flow-tag-miss fallback path
// (§3.3.1 footnote), keeping DMA snoop-free (§3.2.1). It is an engine loop
// on the core runtime; messages that hit a full ring park on the core
// link's bounded pending queue (completions carry buffer ownership).
type Backend struct {
	core.Seat
	nicQueues
	h     *host.Host
	nicID uint16
	pool  *cxl.Pool
	cfg   Config

	links      *core.LinkSet // by frontend host id; Meta holds *feLink
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
	if be.nicQueues, err = newNICQueues(dev, pool, cfg, be.handleTxCompletion, be.handleRxCompletion); err != nil {
		return nil, fmt.Errorf("netengine: NIC %d: %w", nicID, err)
	}
	// One iteration: parked completions, frontend messages, NIC completion
	// queues and RX replenishment, and the control plane's commands and
	// timed duties.
	be.Seat = core.NewSeat(fmt.Sprintf("%s/be%d", h.Name, nicID), []core.Stage{
		core.WorkStage("parked completions", be.parkedIdle, be.drainParked),
		core.PollStage("frontend messages", be.links, burst, func(p *sim.Proc, l *core.Link, payload []byte) {
			be.handleFrontendMsg(p, l.Meta.(*feLink), decode(payload))
		}),
		core.WorkStage("nic queues", be.nicIdle, be.serveNIC),
		// Draining allocator commands is not progress: a backend acts on
		// them out of band (MAC borrowing) and must still back off.
		core.ControlStage("allocator commands", &be.ctrl, burst, be.handleControlMsg, false),
		core.WorkStage("duties and flush", be.dutiesIdle, be.dutiesAndFlush),
	}, h, cfg.driverConfig())
	return be, nil
}

// nicQueues is the part of driving a NIC that its two drivers — the pooled
// Backend and the baseline LocalDriver — share: the RX buffer area, the
// number of RX descriptors kept posted, and the pass over the completion
// queues that ends by topping the RX ring up. It is their "nic queues" work
// stage (nicIdle, serveNIC); what a completion means is the driver's.
type nicQueues struct {
	dev      *nic.NIC
	rxArea   *core.BufferArea
	rxTarget int // RX descriptors to keep posted
	onTx     func(p *sim.Proc, tc nic.TxCompletion)
	onRx     func(p *sim.Proc, rc nic.RxCompletion)
}

// newNICQueues carves dev's RX buffer area out of pool and sets the
// descriptor target: half the area, at most 1024.
func newNICQueues(dev *nic.NIC, pool *cxl.Pool, cfg Config, onTx func(*sim.Proc, nic.TxCompletion), onRx func(*sim.Proc, nic.RxCompletion)) (nicQueues, error) {
	region, err := pool.Alloc(cfg.RxAreaBytes)
	if err != nil {
		return nicQueues{}, fmt.Errorf("RX area: %w", err)
	}
	area, err := core.NewBufferArea(region, cfg.BufSize)
	if err != nil {
		return nicQueues{}, err
	}
	return nicQueues{dev: dev, rxArea: area, rxTarget: min(area.Capacity()/2, 1024), onTx: onTx, onRx: onRx}, nil
}

// nicIdle reports whether serveNIC has nothing to do: both completion queues
// are empty and the RX ring holds its target (below it, even a failed buffer
// allocation is counted).
func (q *nicQueues) nicIdle() bool {
	return !q.dev.CompletionsReady() && q.dev.RxDescCount() >= q.rxTarget
}

// serveNIC hands up to burst TX and up to burst RX completions to the
// driver, then replenishes the RX descriptors; every completion is progress.
func (q *nicQueues) serveNIC(p *sim.Proc) int {
	progress := 0
	for i := 0; i < burst; i++ {
		tc, ok := q.dev.PollTxCompletion()
		if !ok {
			break
		}
		q.onTx(p, tc)
		progress++
	}
	for i := 0; i < burst; i++ {
		rc, ok := q.dev.PollRxCompletion()
		if !ok {
			break
		}
		q.onRx(p, rc)
		progress++
	}
	for q.dev.RxDescCount() < q.rxTarget {
		addr, ok := q.rxArea.Alloc()
		if !ok {
			break
		}
		if !q.dev.PostRx(p, nic.RxDesc{Addr: addr, Cap: q.rxArea.BufSize()}) {
			q.rxArea.Free(addr)
			break
		}
	}
	return progress
}

// Host returns the backend's host.
func (be *Backend) Host() *host.Host { return be.h }

// NIC returns the device this backend drives.
func (be *Backend) NIC() *nic.NIC { return be.dev }

// NICID returns the pod-wide NIC identifier.
func (be *Backend) NICID() uint16 { return be.nicID }

// ConnectFrontend wires a frontend's link end into this backend.
func (be *Backend) ConnectFrontend(hostID int, end *core.LinkEnd) {
	l := be.links.Add(uint32(hostID), end)
	l.Meta = &feLink{hostID: hostID, link: l}
}

// SetControlLink attaches the backend's channel to the pod-wide allocator.
func (be *Backend) SetControlLink(end *core.LinkEnd) { be.ctrl = end }

func (be *Backend) parkedIdle() bool { return be.timersInit && be.links.PendingCount() == 0 }

func (be *Backend) drainParked(p *sim.Proc) int {
	if !be.timersInit {
		// Telemetry and link-check windows open at first poll, not at
		// construction, so an engine started late doesn't replay old windows.
		be.timersInit = true
		be.nextCheck = p.Now() + be.cfg.LinkCheckEvery
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

func (be *Backend) dutiesAndFlush(p *sim.Proc) int {
	if be.ctrl != nil {
		be.maybeCheckLink(p)
		be.maybeSendTelemetry(p)
	}
	be.links.FlushAll(p)
	if be.ctrl != nil {
		be.ctrl.Flush(p)
	}
	return 0
}

func (be *Backend) handleFrontendMsg(p *sim.Proc, l *feLink, m msg) {
	p.Sleep(be.cfg.MsgCost)
	switch m.op {
	case opTxPacket:
		cookie := be.nextCook
		be.nextCook++
		be.cookies[cookie] = txMeta{addr: m.addr, ip: m.ip, link: l}
		// The backend never touches the packet buffer: it posts the WQE
		// with the shared-memory pointer and lets the NIC DMA it (§3.3.1).
		if !be.dev.PostTx(p, nic.WQE{Addr: m.addr, Len: int(m.size), Cookie: cookie}) {
			// NIC ring full: bounce the completion immediately so the
			// frontend frees the buffer (the packet is dropped, as a real
			// full ring would).
			delete(be.cookies, cookie)
			be.sendToFE(p, l, msg{op: opTxComplete, addr: m.addr, ip: m.ip})
			return
		}
		be.TxPosted++
	case opRxComplete:
		if be.rxArea.Owns(m.addr) {
			be.rxArea.Free(m.addr)
		}
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
		be.sendToFE(p, l, msg{op: opRegisterAck, ip: m.ip, nic: be.nicID})
	case opUnregister:
		if reg, ok := be.regs[m.ip]; ok {
			be.dev.RemoveFlowRule(uint32(m.ip))
			delete(be.regs, m.ip)
			delete(be.tags, reg.tag)
		}
	}
}

func (be *Backend) handleTxCompletion(p *sim.Proc, tc nic.TxCompletion) {
	meta, ok := be.cookies[tc.Cookie]
	if !ok {
		return
	}
	delete(be.cookies, tc.Cookie)
	be.sendToFE(p, meta.link, msg{op: opTxComplete, addr: meta.addr, ip: meta.ip})
}

func (be *Backend) handleRxCompletion(p *sim.Proc, rc nic.RxCompletion) {
	p.Sleep(be.cfg.MsgCost)
	var reg *registration
	if rc.Matched {
		reg = be.tags[rc.Tag]
	}
	if reg == nil {
		// Flow-tag miss (§3.3.1 footnote): inspect the payload to find the
		// target instance, then invalidate the buffer from our caches so
		// future DMA stays snoop-free.
		reg = be.inspectAndRoute(p, rc)
	}
	if reg == nil {
		be.RxNoRoute++
		be.rxArea.Free(rc.Addr) // recycle immediately
		return
	}
	be.sendToFE(p, reg.link, msg{op: opRxPacket, addr: rc.Addr, size: uint16(rc.Len), ip: reg.ip})
	be.RxForwarded++
}

// inspectAndRoute reads the packet headers through the backend's cache to
// extract the destination IP — the exceptional path that does bring buffer
// lines into the backend's cache, paid for by the invalidations afterward.
func (be *Backend) inspectAndRoute(p *sim.Proc, rc nic.RxCompletion) *registration {
	be.Inspected++
	n := rc.Len
	if n > be.cfg.BufSize {
		n = be.cfg.BufSize
	}
	buf := make([]byte, n)
	be.h.Cache.Read(p, rc.Addr, buf, "payload")
	core.InvalidateRange(p, be.h.Cache, rc.Addr, n, "payload")
	pk, err := netstack.Unmarshal(buf)
	if err != nil {
		return nil
	}
	dst, ok := netstack.DstIPOf(pk)
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
	frame := pk.Marshal()
	be.dev.SendRaw(&netsw.Frame{Src: mac, Dst: netsw.Broadcast, Bytes: frame})
	be.MACBorrows++
}

// maybeCheckLink polls the NIC's link-status register (§3.3.3) and reports
// transitions to the allocator.
func (be *Backend) maybeCheckLink(p *sim.Proc) {
	if p.Now() < be.nextCheck {
		return
	}
	be.nextCheck = p.Now() + be.cfg.LinkCheckEvery
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

// sendToFE sends a message to a frontend, parking it on the link's bounded
// pending queue if the ring is full (completions must not be lost: they
// carry buffer ownership).
func (be *Backend) sendToFE(p *sim.Proc, l *feLink, m msg) {
	var buf [15]byte
	l.link.SendOrQueue(p, m.encode(buf[:]))
}

// Stats exports the uniform engine counter block.
func (be *Backend) Stats() core.EngineStats {
	s := core.EngineStats{Name: be.LoopName(), Links: be.links.Stats()}
	s.AccumulateArea(be.rxArea)
	return s
}
