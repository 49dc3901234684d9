// Package storengine implements the Oasis storage engine (§3.4): a block
// I/O frontend for instances and an SSD backend driver, connected by the
// datapath's 64-byte message channels whose payloads mirror NVMe commands.
//
// The engine follows the paper's design exactly:
//   - 64 B messages (vs the network engine's 16 B),
//   - I/O buffers in shared CXL memory, DMAed by the SSD, never inspected
//     by the backend (§3.2.1),
//   - redundancy mirrors the network engine's backup mechanism (§3.3.3):
//     a pod may designate a backup drive; writes are mirrored to it, and
//     on a primary failure the allocator re-binds volumes onto the backup
//     with an epoch-fenced failover so a zombie backend's late completions
//     are rejected and no acknowledged write is lost. Without a backup, a
//     drive failure surfaces ErrVolumeLost to the guest (§3.4's error
//     propagation) instead of stalling silently.
//
// Both drivers are instantiations of the core engine runtime (core.Driver +
// core.LinkSet) and the backend reports telemetry to the pod-wide allocator
// over the shared control protocol (§3.5) — the same path NIC backends use.
//
// The paper designs but does not implement this engine; it is implemented
// here to the section's specification.
package storengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"oasis/internal/bufpool"
	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/netstack"
	"oasis/internal/sim"
	"oasis/internal/ssd"
)

// ErrVolumeLost marks a volume whose drive failed with no valid backup
// copy: the data is gone and every pending and future I/O fails. Callers
// detect it with errors.Is; the degraded state is permanent by design —
// the layer above must re-provision. (Before failover existed, this case
// stalled silently.)
var ErrVolumeLost = errors.New("storengine: volume lost")

// ErrMigrating marks writes rejected while a volume is frozen for
// migration. A rejected write was never acknowledged, so failing it breaks
// no durability promise; the guest retries against the destination volume
// after cutover.
var ErrMigrating = errors.New("storengine: volume is migrating")

// chanConfig configures the 64 B channels: storage messages mirror the 64 B
// NVMe command (§3.4).
var chanConfig = func() msgchan.Config {
	ch := msgchan.DefaultConfig()
	ch.MsgSize = 64
	return ch
}()

// The buffers: a per-volume I/O buffer area in shared CXL memory, carved
// into 64 KiB buffers, one per request.
const (
	bufAreaBytes = 8 << 20
	bufSize      = 16 * ssd.BlockSize
)

// MaxBlocksPerRequest is the per-request span bound: one buffer.
const MaxBlocksPerRequest = bufSize / ssd.BlockSize

// Storage driver cores pace themselves: 60 ns per iteration, bursts of 32,
// idle backoff capped at 1 µs — independently of the pod's network engines
// (the chaos and gray-failure campaigns raise those to 200 µs; storage loops
// stay here, and the campaigns' goldens depend on it).
var pacing = core.DriverConfig{LoopCost: 60 * time.Nanosecond, IdleBackoff: time.Microsecond}

const burst = 32

// Request retry policy. maxRetries bounds per-request resubmissions after an
// errored or fenced completion; with the wait before resubmission n (1-based)
// at retryBase doubled per attempt up to retryCap (core.Backoff) the retry
// budget outlasts the allocator's failure-detection window, so a request
// caught by a drive failure lands on the re-bound volume instead of
// erroring.
const (
	maxRetries = 8
	retryBase  = 5 * time.Millisecond
	retryCap   = 100 * time.Millisecond
)

// readyRecheck paces the frontend's re-examination of requests parked on a
// volume whose (re-bound) primary has not acked registration yet.
const readyRecheck = 50 * time.Microsecond

// Message opcodes.
const (
	sOpRead        = 1
	sOpWrite       = 2
	sOpComplete    = 3
	sOpRegister    = 4
	sOpRegisterAck = 5
)

// smsg is the 63-byte payload layout, mirroring an NVMe command (§3.4).
// The epoch field fences completions across failovers: the frontend stamps
// requests with the volume's epoch, the backend echoes it, and completions
// whose epoch does not match the in-flight leg are rejected as stale.
type smsg struct {
	op     byte
	cid    uint16
	lba    uint64
	blocks uint16
	buf    int64
	ip     netstack.IP
	status uint8
	base   uint64 // register ack: assigned base LBA
	size   uint64 // register: requested blocks; ack: granted blocks
	epoch  uint16 // volume epoch (fencing)
}

func (m smsg) encode(buf []byte) []byte {
	buf = buf[:0]
	var b [44]byte
	b[0] = m.op
	binary.LittleEndian.PutUint16(b[1:3], m.cid)
	binary.LittleEndian.PutUint64(b[3:11], m.lba)
	binary.LittleEndian.PutUint16(b[11:13], m.blocks)
	binary.LittleEndian.PutUint64(b[13:21], uint64(m.buf))
	binary.LittleEndian.PutUint32(b[21:25], uint32(m.ip))
	b[25] = m.status
	binary.LittleEndian.PutUint64(b[26:34], m.base)
	binary.LittleEndian.PutUint64(b[34:42], m.size)
	binary.LittleEndian.PutUint16(b[42:44], m.epoch)
	return append(buf, b[:]...)
}

func sdecode(payload []byte) smsg {
	var m smsg
	m.op = payload[0]
	m.cid = binary.LittleEndian.Uint16(payload[1:3])
	m.lba = binary.LittleEndian.Uint64(payload[3:11])
	m.blocks = binary.LittleEndian.Uint16(payload[11:13])
	m.buf = int64(binary.LittleEndian.Uint64(payload[13:21]))
	m.ip = netstack.IP(binary.LittleEndian.Uint32(payload[21:25]))
	m.status = payload[25]
	m.base = binary.LittleEndian.Uint64(payload[26:34])
	m.size = binary.LittleEndian.Uint64(payload[34:42])
	m.epoch = binary.LittleEndian.Uint16(payload[42:44])
	return m
}

// ioReq is one in-flight block request on the frontend. A request fans out
// into one leg per drive (primary, plus the mirror for writes); it settles
// — completes or retries — only when every leg has resolved.
type ioReq struct {
	vol    *Volume
	op     byte
	lba    uint64
	blocks int
	buf    int64 // CXL buffer address; -1 = none (register ops, quarantined)
	data   []byte
	result []byte
	status uint8
	done   bool
	lost   bool // completed with ErrVolumeLost
	sig    *sim.Signal

	regTarget   uint16       // register ops: drive to register on
	outstanding int          // legs in flight
	okOn        []uint16     // drives whose leg completed StatusOK
	attempts    int          // resubmissions so far
	notBefore   sim.Duration // retry backoff gate
}

// pendingLeg tracks one in-flight command on one drive.
type pendingLeg struct {
	req   *ioReq
	ssdID uint16
	epoch uint16
}

// Frontend is the per-host storage frontend driver: it exposes block
// volumes to local instances and forwards requests/completions. It is an
// engine loop on the core runtime, polled by its own embedded driver core.
type Frontend struct {
	*core.Driver
	h    *host.Host
	pool *cxl.Pool

	links     *core.LinkSet // by SSD id
	vols      map[netstack.IP]*Volume
	volOrder  []netstack.IP
	reqQ      *sim.Queue[*ioReq]
	retryQ    []*ioReq // backoff-deferred requests
	pending   map[uint16]*pendingLeg
	nextCID   uint16
	ctrl      *core.LinkEnd // allocator command channel (failover)
	backupSSD uint16

	// Stats.
	Reads, Writes, Errors int64
	MirrorWrites          int64 // write legs fanned out to the backup drive
	Retries               int64 // request resubmissions (error or fence)
	StaleRejected         int64 // completions rejected by cid/epoch fencing
	Rebinds               int64 // volume primary re-bindings (failover)
	VolumesLost           int64 // volumes declared lost (no valid backup)
	FailoversApplied      int64 // SSD failover commands processed
	QuarantinedBufs       int64 // buffers retired to dodge zombie DMA
}

// NewFrontend creates the storage frontend for a pod host.
func NewFrontend(h *host.Host, pool *cxl.Pool) *Frontend {
	if !h.InPod() {
		panic("storengine: frontend host must be in the CXL pod")
	}
	fe := &Frontend{
		h:       h,
		pool:    pool,
		links:   core.NewLinkSet(core.DefaultPendingLimit),
		vols:    make(map[netstack.IP]*Volume),
		reqQ:    sim.NewQueue[*ioReq](h.Eng),
		pending: make(map[uint16]*pendingLeg),
	}
	// One iteration: retry promotions and the request queue, one pass over
	// allocator commands and then backend completions, and the flush.
	fe.Driver = core.NewDriver(h, h.Name+"/storage-fe", pacing,
		core.WorkStage("requests", fe.requestsIdle, fe.forwardRequests),
		core.PollStage("backend messages", fe.links, burst, func(p *sim.Proc, l *core.Link, payload []byte) {
			fe.handleBackendMsg(p, l, sdecode(payload))
		}).Control(&fe.ctrl, fe.handleControlMsg, true),
		core.WorkStage("flush", fe.links.FlushIdle, func(p *sim.Proc) int {
			fe.links.FlushAll(p)
			return 0
		}),
	)
	return fe
}

// ConnectBackend builds a duplex link in the pool between this frontend and
// a storage backend and wires both ends.
func (fe *Frontend) ConnectBackend(be *Backend) error {
	feEnd, beEnd, err := core.NewDuplexLink(fe.pool, fe.h, be.h, chanConfig)
	if err != nil {
		return err
	}
	fe.links.Add(uint32(be.ssdID), feEnd)
	be.links.Add(uint32(fe.h.ID), beEnd)
	return nil
}

// SetControlLink attaches the frontend's channel to the pod-wide allocator,
// which announces SSD failovers (volume re-binding) over it.
func (fe *Frontend) SetControlLink(end *core.LinkEnd) { fe.ctrl = end }

// SetBackupSSD designates the pod's backup drive (§3.3.3's backup-NIC
// mechanism applied to storage): every volume whose primary is a different
// drive registers a mirror there, and writes fan out to both copies so the
// allocator can re-bind volumes onto the backup when a primary fails.
func (fe *Frontend) SetBackupSSD(id uint16) {
	fe.backupSSD = id
	for _, ip := range fe.volOrder {
		v := fe.vols[ip]
		if v.primaryID != id {
			fe.reqQ.Push(&ioReq{vol: v, op: sOpRegister, lba: v.reqBlocks, regTarget: id, buf: -1})
		}
	}
}

// backend returns the link to an SSD's backend, or nil.
func (fe *Frontend) backend(ssdID uint16) *core.Link { return fe.links.Get(uint32(ssdID)) }

// ssdOf is the SSD a backend link leads to.
func ssdOf(l *core.Link) uint16 { return uint16(l.Peer) }

// Volume is an instance's block device: a slice of a pooled SSD reached
// through the storage engine, optionally mirrored onto the pod's backup
// drive.
type Volume struct {
	fe        *Frontend
	ip        netstack.IP // owning instance
	primaryID uint16
	link      *core.Link // to the current primary's backend
	mirror    *core.Link // to the backup drive's backend (nil when unmirrored)
	mirrorOK  bool       // backup copy valid (in sync)
	area      *core.BufferArea
	base      uint64 // assigned by the primary at registration
	blocks    uint64
	reqBlocks uint64          // requested size (re-registration after re-bind)
	ready     map[uint16]bool // per-drive registration acked
	everReady bool
	epoch     uint16 // bumped by each failover; fences stale completions
	lost      bool
	migrating bool // writes frozen for migration (FreezeWrites)
	inflight  int  // submitted requests not yet resolved (Quiesce)
	sig       *sim.Signal
	lent      bufpool.Loans // each reading process's last block data

	// Pre-copy migration support: while tracking is on, the LBA of every
	// acknowledged write is recorded so a migrator can copy the bulk of the
	// volume with writes still flowing and later flush only the remainder.
	tracking bool
	dirty    map[uint64]struct{} // dirty block numbers since StartDirtyTracking

	// Stats.
	IOErrors int64
	Rebinds  int64
}

// AddVolume provisions a volume of the given size on the given SSD for an
// instance, allocating its buffer area and registering with the backend.
func (fe *Frontend) AddVolume(ip netstack.IP, ssdID uint16, blocks uint64) (*Volume, error) {
	if _, dup := fe.vols[ip]; dup {
		return nil, fmt.Errorf("storengine: instance %v already has a volume", ip)
	}
	region, err := fe.pool.Alloc(bufAreaBytes)
	if err != nil {
		return nil, err
	}
	area, err := core.NewBufferArea(region, bufSize)
	if err != nil {
		return nil, err
	}
	// The backend link is resolved when the registration is forwarded, so
	// volumes may be declared before the pod's links are wired.
	v := &Volume{
		fe: fe, ip: ip, primaryID: ssdID, area: area, reqBlocks: blocks,
		ready: make(map[uint16]bool),
		sig:   sim.NewSignal(fe.h.Eng),
	}
	v.lent.Pool = fe.h.Eng.Bufs()
	fe.vols[ip] = v
	fe.volOrder = append(fe.volOrder, ip)
	// Registration rides the request queue so it is sent from the driver
	// core after Start.
	fe.reqQ.Push(&ioReq{vol: v, op: sOpRegister, lba: blocks, regTarget: ssdID, buf: -1})
	if fe.backupSSD != 0 && fe.backupSSD != ssdID {
		fe.reqQ.Push(&ioReq{vol: v, op: sOpRegister, lba: blocks, regTarget: fe.backupSSD, buf: -1})
	}
	return v, nil
}

// Blocks returns the volume's size (0 until registration completes).
func (v *Volume) Blocks() uint64 { return v.blocks }

// Primary returns the drive currently backing the volume.
func (v *Volume) Primary() uint16 { return v.primaryID }

// Epoch returns the volume's fencing epoch (one bump per failover).
func (v *Volume) Epoch() uint16 { return v.epoch }

// Lost reports whether the volume's data is gone (drive failed, no valid
// backup). All I/O on a lost volume fails with ErrVolumeLost.
func (v *Volume) Lost() bool { return v.lost }

// WaitReady blocks until the backend granted the volume (false on timeout
// or if the volume is lost).
func (v *Volume) WaitReady(p *sim.Proc, timeout sim.Duration) bool {
	deadline := p.Now() + timeout
	for !v.ready[v.primaryID] {
		if v.lost {
			return false
		}
		remaining := deadline - p.Now()
		if remaining <= 0 {
			return false
		}
		v.sig.WaitTimeout(p, remaining)
	}
	return true
}

// Read reads nblocks starting at lba, blocking the calling (instance)
// process until completion. Returns the data or an I/O error. The data is a
// pooled buffer lent to p until p's next Read on this volume, which gives it
// back to the engine's buffer pool first; a process that keeps the bytes
// longer copies them.
func (v *Volume) Read(p *sim.Proc, lba uint64, nblocks int) ([]byte, error) {
	v.lent.Return(p)
	req, err := v.submit(p, sOpRead, lba, nblocks, nil)
	if err != nil {
		return nil, err
	}
	if req.lost {
		v.IOErrors++
		return nil, fmt.Errorf("storengine: read on %v: %w", v.ip, ErrVolumeLost)
	}
	if req.status != ssd.StatusOK {
		v.IOErrors++
		return nil, fmt.Errorf("storengine: read failed with NVMe status %#x", req.status)
	}
	v.lent.Lend(p, req.result)
	return req.result, nil
}

// Write writes data (a whole number of blocks) at lba, blocking until
// completion. A nil return means the write is acknowledged durable on the
// volume's current primary (and, when mirrored, its backup).
func (v *Volume) Write(p *sim.Proc, lba uint64, data []byte) error {
	if len(data)%ssd.BlockSize != 0 {
		return fmt.Errorf("storengine: write of %d bytes is not block-aligned", len(data))
	}
	req, err := v.submit(p, sOpWrite, lba, len(data)/ssd.BlockSize, data)
	if err != nil {
		return err
	}
	if req.lost {
		v.IOErrors++
		return fmt.Errorf("storengine: write on %v: %w", v.ip, ErrVolumeLost)
	}
	if req.status != ssd.StatusOK {
		v.IOErrors++
		return fmt.Errorf("storengine: write failed with NVMe status %#x", req.status)
	}
	// Marking at ack time (not submit) means the dirty set is exactly the
	// acked-durable writes a pre-copy migration must not lose: a write
	// submitted before tracking began but acked after is still captured.
	if v.tracking {
		for b := lba; b < lba+uint64(len(data)/ssd.BlockSize); b++ {
			v.dirty[b] = struct{}{}
		}
	}
	return nil
}

// submit runs the instance-side half of a request: buffer allocation, data
// staging (for writes, through the host cache — the frontend core writes it
// back), then blocks on the completion signal.
func (v *Volume) submit(p *sim.Proc, op byte, lba uint64, nblocks int, data []byte) (*ioReq, error) {
	if v.lost {
		return nil, fmt.Errorf("storengine: submit on %v: %w", v.ip, ErrVolumeLost)
	}
	if v.migrating && op == sOpWrite {
		return nil, fmt.Errorf("storengine: write on %v: %w", v.ip, ErrMigrating)
	}
	if !v.everReady {
		return nil, fmt.Errorf("storengine: volume not ready")
	}
	if nblocks <= 0 || nblocks > MaxBlocksPerRequest {
		return nil, fmt.Errorf("storengine: request of %d blocks exceeds limit %d", nblocks, MaxBlocksPerRequest)
	}
	if lba+uint64(nblocks) > v.blocks {
		return nil, fmt.Errorf("storengine: request [%d, %d) outside volume of %d blocks", lba, lba+uint64(nblocks), v.blocks)
	}
	buf, ok := v.area.Alloc()
	if !ok {
		return nil, fmt.Errorf("storengine: volume buffer area exhausted")
	}
	if op == sOpWrite {
		v.fe.h.Cache.Write(p, buf, data, "payload")
	}
	p.Sleep(v.fe.h.IPCCost)
	req := &ioReq{
		vol: v, op: op, lba: lba, blocks: nblocks, buf: buf, data: data,
		sig: sim.NewSignal(v.fe.h.Eng),
	}
	v.inflight++
	v.fe.reqQ.Push(req)
	for !req.done {
		req.sig.Wait(p)
	}
	v.inflight--
	return req, nil
}

// StartDirtyTracking arms pre-copy migration: from this call on, the block
// numbers of acknowledged writes are recorded. The migrator copies the full
// volume concurrently with live writes, then freezes and re-copies only the
// dirty remainder — bounding the write-blackout window by the write rate
// instead of the volume size.
func (v *Volume) StartDirtyTracking() {
	v.tracking = true
	v.dirty = make(map[uint64]struct{})
}

// StopDirtyTracking disarms tracking and discards the dirty set (migration
// finished or aborted).
func (v *Volume) StopDirtyTracking() {
	v.tracking = false
	v.dirty = nil
}

// DirtyCount returns the number of distinct blocks dirtied since tracking
// began.
func (v *Volume) DirtyCount() int { return len(v.dirty) }

// DirtyRange is a run of consecutive dirty blocks.
type DirtyRange struct {
	LBA    uint64
	Blocks uint64
}

// TakeDirty drains the dirty set as sorted, coalesced ranges and resets it,
// so a flush pass can iterate deterministically while tracking continues to
// capture writes racing the pass.
func (v *Volume) TakeDirty() []DirtyRange {
	if len(v.dirty) == 0 {
		return nil
	}
	blocks := make([]uint64, 0, len(v.dirty))
	for b := range v.dirty {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	v.dirty = make(map[uint64]struct{})
	var runs []DirtyRange
	for _, b := range blocks {
		if n := len(runs); n > 0 && runs[n-1].LBA+runs[n-1].Blocks == b {
			runs[n-1].Blocks++
			continue
		}
		runs = append(runs, DirtyRange{LBA: b, Blocks: 1})
	}
	return runs
}

// FreezeWrites begins a migration: new writes on the volume fail fast with
// ErrMigrating (they are never acknowledged, so no durability promise is
// broken), while reads keep serving so the migrator can copy the blocks.
func (v *Volume) FreezeWrites() { v.migrating = true }

// Migrating reports whether writes are frozen (FreezeWrites ran).
func (v *Volume) Migrating() bool { return v.migrating }

// UnfreezeWrites aborts a migration: writes flow again. The epoch bump
// from an intervening Quiesce is harmless — it only widens the fence.
func (v *Volume) UnfreezeWrites() { v.migrating = false }

// Quiesce blocks until every in-flight request on the volume has resolved
// — acked writes are then durable and visible to subsequent reads — and
// bumps the fencing epoch so a straggler completion from a wedged backend
// is rejected as stale (StaleRejected) instead of landing after the
// cutover. Returns false if a leg was still stuck at the timeout; the
// epoch bump fences it regardless.
func (v *Volume) Quiesce(p *sim.Proc, timeout sim.Duration) bool {
	deadline := p.Now() + timeout
	for v.inflight > 0 {
		if p.Now() >= deadline {
			v.epoch++
			return false
		}
		v.sig.WaitTimeout(p, minDuration(100*time.Microsecond, deadline-p.Now()))
	}
	v.epoch++
	return true
}

func minDuration(a, b sim.Duration) sim.Duration {
	if a < b {
		return a
	}
	return b
}

// Volume returns the frontend's volume for an instance (nil if none).
func (fe *Frontend) Volume(ip netstack.IP) *Volume { return fe.vols[ip] }

// RemoveVolume detaches a volume (end of migration or teardown). The
// volume is marked lost so any straggler leg resolves as an error rather
// than re-registering; its buffer area is intentionally not returned to
// the pool, so zombie DMA frees hit a dead area instead of a reused region
// (same quarantine policy the failover path applies).
func (fe *Frontend) RemoveVolume(ip netstack.IP) error {
	v := fe.vols[ip]
	if v == nil {
		return fmt.Errorf("storengine: no volume for %v", ip)
	}
	v.migrating = true
	v.lost = true
	v.sig.Broadcast()
	delete(fe.vols, ip)
	for i, o := range fe.volOrder {
		if o == ip {
			fe.volOrder = append(fe.volOrder[:i], fe.volOrder[i+1:]...)
			break
		}
	}
	return nil
}

// requestsIdle reports whether nothing is queued or waiting out a backoff (a
// waiting request makes the pass prune the retry list, due or not).
func (fe *Frontend) requestsIdle() bool { return len(fe.retryQ) == 0 && fe.reqQ.Len() == 0 }

func (fe *Frontend) forwardRequests(p *sim.Proc) int {
	var buf [63]byte
	progress := 0
	if len(fe.retryQ) > 0 {
		now := p.Now()
		kept := fe.retryQ[:0]
		for _, req := range fe.retryQ {
			if req.done {
				continue
			}
			if req.notBefore <= now {
				fe.reqQ.Push(req)
			} else {
				kept = append(kept, req)
			}
		}
		for i := len(kept); i < len(fe.retryQ); i++ {
			fe.retryQ[i] = nil
		}
		fe.retryQ = kept
	}
	for i := 0; i < burst; i++ {
		req, ok := fe.reqQ.TryPop()
		if !ok {
			break
		}
		fe.forward(p, req, buf[:])
		progress++
	}
	return progress
}

// allocCID hands out the next free command id.
func (fe *Frontend) allocCID() uint16 {
	for {
		cid := fe.nextCID
		fe.nextCID++
		if _, busy := fe.pending[cid]; !busy {
			return cid
		}
	}
}

// forward publishes a request to the backend (§3.4: the frontend performs
// the write-back of staged write data; the backend never touches buffers).
// Writes additionally fan a mirror leg out to the backup drive.
func (fe *Frontend) forward(p *sim.Proc, req *ioReq, buf []byte) {
	if req.op == sOpRegister {
		l := fe.backend(req.regTarget)
		if l == nil {
			fe.reqQ.Push(req) // backend not wired yet; retry
			return
		}
		m := smsg{op: sOpRegister, ip: req.vol.ip, size: req.lba, epoch: req.vol.epoch}
		if !l.Send(p, m.encode(buf)) {
			fe.reqQ.Push(req)
		}
		return
	}
	v := req.vol
	if v.lost {
		fe.completeLost(req)
		return
	}
	now := p.Now()
	if req.notBefore > now {
		fe.retryQ = append(fe.retryQ, req)
		return
	}
	if v.link == nil || ssdOf(v.link) != v.primaryID {
		v.link = fe.backend(v.primaryID)
	}
	if v.link == nil || !v.ready[v.primaryID] {
		// Re-bound primary has not acked registration yet; park briefly.
		req.notBefore = now + readyRecheck
		fe.retryQ = append(fe.retryQ, req)
		return
	}
	if req.buf < 0 {
		// The original buffer was quarantined at a failover; stage afresh.
		b, ok := v.area.Alloc()
		if !ok {
			req.notBefore = now + readyRecheck
			fe.retryQ = append(fe.retryQ, req)
			return
		}
		req.buf = b
		if req.op == sOpWrite {
			fe.h.Cache.Write(p, req.buf, req.data, "payload")
		}
	}
	if req.op == sOpWrite {
		fe.h.Cache.WritebackRange(p, req.buf, len(req.data), "payload")
	}
	cid := fe.allocCID()
	m := smsg{
		op: req.op, cid: cid, lba: req.lba, blocks: uint16(req.blocks),
		buf: req.buf, ip: v.ip, epoch: v.epoch,
	}
	if !v.link.Send(p, m.encode(buf)) {
		fe.reqQ.Push(req)
		return
	}
	fe.pending[cid] = &pendingLeg{req: req, ssdID: v.primaryID, epoch: v.epoch}
	req.outstanding = 1
	if req.attempts == 0 {
		if req.op == sOpRead {
			fe.Reads++
		} else {
			fe.Writes++
		}
	}
	if req.op == sOpWrite && v.mirror != nil && v.mirrorOK &&
		ssdOf(v.mirror) != v.primaryID && v.ready[ssdOf(v.mirror)] {
		mcid := fe.allocCID()
		mm := m
		mm.cid = mcid
		// Mirror legs must not be dropped on a full ring — a write is only
		// acknowledged once both copies resolve — so they take the parked
		// (SendOrQueue) path.
		v.mirror.SendOrQueue(p, mm.encode(buf))
		fe.pending[mcid] = &pendingLeg{req: req, ssdID: ssdOf(v.mirror), epoch: v.epoch}
		req.outstanding++
		fe.MirrorWrites++
	}
}

func (fe *Frontend) handleBackendMsg(p *sim.Proc, l *core.Link, m smsg) {
	switch m.op {
	case sOpRegisterAck:
		v, ok := fe.vols[m.ip]
		if !ok {
			return
		}
		v.ready[ssdOf(l)] = true
		if ssdOf(l) == v.primaryID {
			v.base = m.base
			v.blocks = m.size
			v.everReady = true
			v.sig.Broadcast()
		} else if ssdOf(l) == fe.backupSSD && m.size > 0 {
			v.mirror = l
			v.mirrorOK = true
		}
	case sOpComplete:
		leg, ok := fe.pending[m.cid]
		if !ok || leg.epoch != m.epoch || leg.ssdID != ssdOf(l) {
			// A fenced (pre-failover) command's late completion — the
			// zombie-backend case — or a cid reused across epochs.
			fe.StaleRejected++
			return
		}
		delete(fe.pending, m.cid)
		req := leg.req
		req.outstanding--
		v := req.vol
		if m.status == ssd.StatusOK {
			req.okOn = append(req.okOn, leg.ssdID)
			if req.op == sOpRead && req.result == nil && leg.ssdID == v.primaryID {
				// Pull the data the SSD DMAed into shared CXL memory;
				// invalidate first so a recycled buffer's stale lines
				// cannot leak through.
				n := req.blocks * ssd.BlockSize
				fe.h.Cache.FlushRange(p, req.buf, n, "payload")
				out := fe.h.Eng.Bufs().Get(n)
				fe.h.Cache.Read(p, req.buf, out, "payload")
				p.Sleep(fe.h.TouchCost(n)) // copy into instance memory
				req.result = out
			}
		} else {
			req.status = m.status
			if v.mirror != nil && leg.ssdID == ssdOf(v.mirror) && leg.ssdID != v.primaryID {
				// The backup copy diverged; stop mirroring rather than
				// failing the request.
				v.mirrorOK = false
			}
		}
		if req.outstanding == 0 {
			fe.settle(p, req)
		}
	}
}

// settle decides a request's fate once every leg has resolved: complete if
// the volume's *current* primary acknowledged it, otherwise retry with
// exponential backoff until the allocator's failover re-binds the volume —
// or the budget runs out and the error propagates to the guest (§3.4).
func (fe *Frontend) settle(p *sim.Proc, req *ioReq) {
	v := req.vol
	if v.lost {
		fe.completeLost(req)
		return
	}
	ok := false
	for _, id := range req.okOn {
		if id == v.primaryID {
			ok = true
		}
	}
	if req.op == sOpRead && req.result == nil {
		ok = false
	}
	if ok {
		req.status = ssd.StatusOK
		v.area.Free(req.buf)
		req.buf = -1
		req.done = true
		req.sig.Broadcast()
		return
	}
	if req.attempts < maxRetries {
		req.attempts++
		fe.Retries++
		req.okOn = req.okOn[:0]
		req.status = 0
		req.notBefore = p.Now() + core.Backoff(retryBase, retryCap, req.attempts-1)
		fe.retryQ = append(fe.retryQ, req)
		return
	}
	if req.status == ssd.StatusOK || req.status == 0 {
		req.status = ssd.StatusDeviceFault
	}
	fe.Errors++
	if req.buf >= 0 {
		v.area.Free(req.buf)
		req.buf = -1
	}
	req.done = true
	req.sig.Broadcast()
}

// completeLost fails a request with the volume-lost marker.
func (fe *Frontend) completeLost(req *ioReq) {
	req.lost = true
	req.status = ssd.StatusDeviceFault
	if req.buf >= 0 {
		req.vol.area.Free(req.buf)
		req.buf = -1
	}
	req.done = true
	req.sig.Broadcast()
}

// handleControlMsg applies an allocator SSD-failover command: fence every
// in-flight leg on the failed drive, re-bind affected volumes onto the
// backup (Aux) at the new epoch, and resubmit the fenced requests. Aux 0
// means no valid backup exists — the volumes are lost.
func (fe *Frontend) handleControlMsg(p *sim.Proc, m core.ControlMsg) {
	if m.Op != core.CtlFailover || m.Kind != core.DeviceSSD {
		return
	}
	failed, target := m.Dev, m.Aux
	// Fence first: cancel in-flight legs on the failed drive in
	// deterministic (sorted-cid) order. Their late completions — a zombie
	// backend may still deliver them — now miss the pending table.
	var cids []int
	for cid, leg := range fe.pending {
		if leg.ssdID == failed {
			cids = append(cids, int(cid))
		}
	}
	sort.Ints(cids)
	var settled []*ioReq
	for _, c := range cids {
		leg := fe.pending[uint16(c)]
		delete(fe.pending, uint16(c))
		req := leg.req
		req.outstanding--
		if req.op == sOpRead && req.buf >= 0 {
			// The zombie drive may still DMA into this buffer; retire it
			// rather than recycle — the software analogue of waiting out
			// IOMMU invalidation.
			fe.QuarantinedBufs++
			req.buf = -1
		}
		if req.outstanding == 0 {
			settled = append(settled, req)
		}
	}
	for _, ip := range fe.volOrder {
		v := fe.vols[ip]
		if v.mirror != nil && ssdOf(v.mirror) == failed {
			v.mirror = nil
			v.mirrorOK = false
		}
		if v.primaryID != failed {
			continue
		}
		v.epoch = m.Epoch
		if target == 0 {
			if !v.lost {
				v.lost = true
				fe.VolumesLost++
				v.sig.Broadcast()
			}
			continue
		}
		v.primaryID = target
		v.link = fe.backend(target)
		// The failed drive's copy is stale from here on; there is no
		// fail-back, and the volume runs unmirrored until a new backup
		// is designated.
		if v.mirror != nil && ssdOf(v.mirror) == target {
			v.mirror = nil
		}
		v.mirrorOK = false
		v.Rebinds++
		fe.Rebinds++
		if !v.ready[target] {
			fe.reqQ.Push(&ioReq{vol: v, op: sOpRegister, lba: v.reqBlocks, regTarget: target, buf: -1})
		}
		v.sig.Broadcast()
	}
	// Resubmit fenced requests after the re-bind so their retries land on
	// the new primary. A mirror leg that already acked on the new primary
	// completes the request outright — the write was never lost.
	for _, req := range settled {
		fe.settle(p, req)
	}
	fe.FailoversApplied++
}

// svol is a granted volume on the backend.
type svol struct {
	ip     netstack.IP
	base   uint64
	blocks uint64
	link   *core.Link // to the volume's frontend
}

// pendingIO maps a device CID back to the requesting frontend. The epoch is
// echoed in the completion so the frontend can fence commands that were in
// flight across a failover.
type pendingIO struct {
	feCID     uint16
	epoch     uint16
	link      *core.Link
	submitted sim.Duration // device submit time, for service-latency telemetry
}

// Backend is the per-SSD storage backend driver: it translates channel
// messages to SSD submissions and routes completions back, enforcing
// per-volume LBA bounds (isolation). Like the NIC backends, it reports
// periodic load/queue-depth telemetry to the pod-wide allocator over the
// shared control protocol; completions echo the frontend's fencing epoch so
// a backend that was presumed dead cannot smuggle stale acks past a
// failover.
type Backend struct {
	*core.Driver
	h     *host.Host
	ssdID uint16
	dev   *ssd.SSD

	links      *core.LinkSet // by frontend host id
	vols       map[netstack.IP]*svol
	nextLBA    uint64
	capacity   uint64
	inflight   map[uint16]pendingIO
	nextCID    uint16
	ctrl       *core.LinkEnd
	telemEvery sim.Duration // telemetry period, handed over with ctrl
	timersInit bool
	nextTelem  sim.Duration
	loadSnap   int64
	latSum     sim.Duration // summed service latency of IOs completed this window
	latOps     int64        // IOs completed this window
	msgBuf     [63]byte     // outgoing-message scratch; the core's process is its one user

	// Stats.
	Submitted, Completed int64
	BoundsViolations     int64
	RegistrationsDenied  int64
	ReRegistrations      int64 // idempotent re-acks of an existing grant
	TelemetrySent        int64
}

// NewBackend creates the backend for an SSD whose namespace 1 has the given
// capacity in blocks.
func NewBackend(h *host.Host, ssdID uint16, dev *ssd.SSD, capacityBlocks uint64) *Backend {
	dev.AddNamespace(1, capacityBlocks)
	be := &Backend{
		h:        h,
		ssdID:    ssdID,
		dev:      dev,
		links:    core.NewLinkSet(core.DefaultPendingLimit),
		vols:     make(map[netstack.IP]*svol),
		capacity: capacityBlocks,
		inflight: make(map[uint16]pendingIO),
	}
	// One iteration: parked completions, frontend messages, device
	// completions, and the telemetry window.
	be.Driver = core.NewDriver(h, fmt.Sprintf("%s/storage-be%d", h.Name, ssdID), pacing,
		core.WorkStage("parked completions", be.parkedIdle, be.drainParked),
		core.PollStage("frontend messages", be.links, burst, func(p *sim.Proc, l *core.Link, payload []byte) {
			be.handleFrontendMsg(p, l, sdecode(payload), be.msgBuf[:])
		}),
		core.WorkStage("completions, telemetry and flush", be.deviceIdle, be.serveDevice),
	)
	return be
}

// SetControlLink attaches the backend's channel to the pod-wide allocator
// and the period to report telemetry on, before the backend starts.
func (be *Backend) SetControlLink(end *core.LinkEnd, every sim.Duration) {
	be.ctrl, be.telemEvery = end, every
}

func (be *Backend) parkedIdle() bool { return be.timersInit && be.links.PendingCount() == 0 }

func (be *Backend) drainParked(p *sim.Proc) int {
	if !be.timersInit {
		be.timersInit = true
		be.nextTelem = p.Now() + be.telemEvery
	}
	// Parked completions count as progress: the loop must stay hot until
	// they are delivered.
	progress := be.links.PendingCount()
	be.links.DrainPending(p)
	return progress
}

// deviceIdle reports whether the drive has completed nothing, the telemetry
// window is still open and no message line is partly filled.
func (be *Backend) deviceIdle() bool {
	if be.dev.CompletionsReady() || (be.ctrl != nil && be.h.Eng.Now() >= be.nextTelem) {
		return false
	}
	return be.links.FlushIdle() && !be.ctrl.Unflushed()
}

func (be *Backend) serveDevice(p *sim.Proc) int {
	progress := 0
	for i := 0; i < burst; i++ {
		comp, ok := be.dev.PollCompletion()
		if !ok {
			break
		}
		be.handleCompletion(p, comp, be.msgBuf[:])
		progress++
	}
	if be.ctrl != nil {
		be.maybeSendTelemetry(p)
	}
	be.links.FlushAll(p)
	if be.ctrl != nil {
		be.ctrl.Flush(p)
	}
	return progress
}

// maybeSendTelemetry emits the load record of the period that just closed
// through the same control path NIC backends use, tagged DeviceSSD so the
// allocator tracks drive leases and load alongside NICs.
func (be *Backend) maybeSendTelemetry(p *sim.Proc) {
	if p.Now() < be.nextTelem {
		return
	}
	be.nextTelem = p.Now() + be.telemEvery
	load := be.dev.BytesRead + be.dev.BytesWritten
	delta := load - be.loadSnap
	be.loadSnap = load
	qdepth := len(be.inflight)
	if qdepth > 65535 {
		qdepth = 65535
	}
	// The per-kind health slot for storage is the window's mean request
	// service latency in µs (§3.5): a slow-but-alive drive shows up here
	// long before it fails its link.
	var meanUs uint64
	if be.latOps > 0 {
		meanUs = uint64(be.latSum/time.Microsecond) / uint64(be.latOps)
		if meanUs > 65535 {
			meanUs = 65535
		}
	}
	be.latSum, be.latOps = 0, 0
	core.SendControl(p, be.ctrl, core.ControlMsg{
		Op:         core.CtlTelemetry,
		Kind:       core.DeviceSSD,
		Dev:        be.ssdID,
		Load:       uint64(delta),
		LinkUp:     !be.dev.Failed(),
		AER:        uint16(meanUs),
		QueueDepth: uint16(qdepth),
	}) // best effort: a full ring drops the record, the next window's stands in
	be.TelemetrySent++
}

func (be *Backend) handleFrontendMsg(p *sim.Proc, l *core.Link, m smsg, buf []byte) {
	switch m.op {
	case sOpRegister:
		if v, dup := be.vols[m.ip]; dup {
			// Idempotent re-registration (frontend retry, or a failover
			// re-bind onto a drive that already mirrors the volume):
			// re-ack the existing grant instead of double-allocating.
			be.ReRegistrations++
			v.link = l
			l.SendOrQueue(p, smsg{op: sOpRegisterAck, ip: m.ip, base: v.base, size: v.blocks, epoch: m.epoch}.encode(buf))
			return
		}
		blocks := m.size
		if be.nextLBA+blocks > be.capacity {
			be.RegistrationsDenied++
			l.SendOrQueue(p, smsg{op: sOpRegisterAck, ip: m.ip, base: 0, size: 0, epoch: m.epoch}.encode(buf))
			return
		}
		v := &svol{ip: m.ip, base: be.nextLBA, blocks: blocks, link: l}
		be.nextLBA += blocks
		be.vols[m.ip] = v
		l.SendOrQueue(p, smsg{op: sOpRegisterAck, ip: m.ip, base: v.base, size: v.blocks, epoch: m.epoch}.encode(buf))
	case sOpRead, sOpWrite:
		v, ok := be.vols[m.ip]
		if !ok || uint64(m.lba)+uint64(m.blocks) > v.blocks {
			// Bounds violation: reject without touching the device.
			be.BoundsViolations++
			l.SendOrQueue(p, smsg{op: sOpComplete, cid: m.cid, status: ssd.StatusLBARange, epoch: m.epoch}.encode(buf))
			return
		}
		op := uint8(ssd.OpRead)
		if m.op == sOpWrite {
			op = ssd.OpWrite
		}
		devCID := be.nextCID
		be.nextCID++
		be.inflight[devCID] = pendingIO{feCID: m.cid, epoch: m.epoch, link: l, submitted: p.Now()}
		cmd := ssd.Command{
			Opcode: op, CID: devCID, NSID: 1,
			LBA: v.base + m.lba, Blocks: m.blocks, Buf: m.buf,
		}
		// The backend never inspects the buffer (§3.2.1): the pointer goes
		// straight into the submission queue.
		if !be.dev.Submit(p, cmd) {
			delete(be.inflight, devCID)
			l.SendOrQueue(p, smsg{op: sOpComplete, cid: m.cid, status: ssd.StatusDeviceFault, epoch: m.epoch}.encode(buf))
			return
		}
		be.Submitted++
	}
}

func (be *Backend) handleCompletion(p *sim.Proc, comp ssd.Completion, buf []byte) {
	io, ok := be.inflight[comp.CID]
	if !ok {
		return
	}
	delete(be.inflight, comp.CID)
	be.Completed++
	be.latSum += p.Now() - io.submitted
	be.latOps++
	io.link.SendOrQueue(p, smsg{op: sOpComplete, cid: io.feCID, status: comp.Status, epoch: io.epoch}.encode(buf))
}
