package netengine

import (
	"fmt"

	"oasis/internal/cache"
	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/netstack"
	"oasis/internal/netsw"
	"oasis/internal/nic"
	"oasis/internal/sim"
)

// LocalDriver is the evaluation baseline (§5.1): a Junction-style IOKernel
// serving local instances with a local NIC on ONE polling core — no
// frontend/backend split and no message-channel crossings. Packet buffers
// live in a buffer area whose latency class models either host DDR
// (baseline) or CXL memory (Fig. 11's middle configuration).
//
// The datapath per direction is: instance IPC ring -> driver core -> NIC
// queue pair, exactly one intermediary.
type LocalDriver struct {
	*core.Driver
	nicQueues
	h    *host.Host
	pool *cxl.Pool
	cfg  Config

	insts     map[netstack.IP]*LocalPort
	instOrder []netstack.IP
	cookies   map[uint64]localTxMeta
	nextCook  uint64

	// The datapath's jobs (see port.go).
	tx     localTxJob
	rx     localRxJob
	txDone sendJob

	// Stats.
	TxForwarded, RxDelivered int64
}

type localTxMeta struct {
	addr int64
	inst *LocalPort
}

// NewLocalDriver creates the baseline driver for a host with a local NIC.
func NewLocalDriver(h *host.Host, dev *nic.NIC, pool *cxl.Pool, cfg Config) (*LocalDriver, error) {
	d := &LocalDriver{
		h:        h,
		pool:     pool,
		cfg:      cfg,
		insts:    make(map[netstack.IP]*LocalPort),
		cookies:  make(map[uint64]localTxMeta),
		nextCook: 1,
	}
	var err error
	if d.nicQueues, err = newNICQueues(dev, pool, cfg, d); err != nil {
		return nil, fmt.Errorf("netengine: local NIC: %w", err)
	}
	d.serve.q = &d.nicQueues
	d.tx.d = d
	d.rx = localRxJob{d: d, copy: newRxCopy(h, bufSize)}
	// One iteration: instance TX rings, then NIC completions and RX
	// replenishment — the single-intermediary baseline pass.
	d.Driver = core.NewDriver(h, h.Name+"/iokernel", cfg.driverConfig(),
		core.SteppedWorkStage("instance tx", d.txIdle, &d.tx),
		core.SteppedWorkStage("nic queues", d.nicIdle, &d.serve),
	)
	return d, nil
}

// LocalPort is an instance's attachment to the baseline driver. It
// implements netstack.SteppedEndpoint like InstancePort, but the driver
// serves it directly.
type LocalPort struct {
	port
	drv *LocalDriver
	tag uint32
}

// AddInstance attaches an instance (buffer area + flow rule) to the driver.
func (d *LocalDriver) AddInstance(ip netstack.IP) (*LocalPort, error) {
	if _, dup := d.insts[ip]; dup {
		return nil, fmt.Errorf("netengine: instance %v already attached", ip)
	}
	region, err := d.pool.Alloc(txAreaBytes)
	if err != nil {
		return nil, err
	}
	area, err := core.NewBufferArea(region, bufSize)
	if err != nil {
		return nil, err
	}
	lp := &LocalPort{
		port: newPort(d.h, ip, area),
		drv:  d,
		tag:  uint32(len(d.insts) + 1),
	}
	d.insts[ip] = lp
	d.instOrder = append(d.instOrder, ip)
	d.dev.AddFlowRule(uint32(ip), lp.tag)
	return lp, nil
}

// CurrentMAC returns the local NIC's MAC.
func (lp *LocalPort) CurrentMAC() netsw.MAC { return lp.drv.dev.MAC() }

// txIdle reports whether the instance TX stage has nothing to do: no
// instance has queued a packet.
func (d *LocalDriver) txIdle() bool {
	for _, ip := range d.instOrder {
		if d.insts[ip].txQ.Len() > 0 {
			return false
		}
	}
	return true
}

// localTxJob forwards up to burst queued packets per instance to the NIC:
// it publishes each buffer for DMA, then posts straight to the NIC — the
// single-intermediary baseline path:
//
//	h.Cache.WritebackRange(p, req.addr, req.size, "payload")
//	if !dev.PostTx(p, wqe) { /* ring full: drop, free the buffer */ }
type localTxJob struct {
	sim.NonBlocking
	d        *LocalDriver
	order    []netstack.IP // the instances as they were when the pass began
	idx, n   int           // order[idx] is being drained and has n packets out
	inst     *LocalPort
	req      txReq
	cookie   uint64
	wb       cache.RangeOp
	pc       localTxPC
	progress int
}

// localTxPC says where the instance TX stage is.
type localTxPC uint8

const (
	localTxInst    localTxPC = iota // move on to instance order[idx]
	localTxReq                      // take inst's next request
	localTxWB                       // the buffer's write-back is in progress
	localTxPosting                  // the doorbell leg is over: post the WQE
)

func (j *localTxJob) Begin() {
	j.order, j.idx, j.pc, j.progress = j.d.instOrder, 0, localTxInst, 0
}

func (j *localTxJob) Step() (sim.Duration, bool) {
	d := j.d
	for {
		switch j.pc {
		case localTxInst:
			if j.idx == len(j.order) {
				return 0, false
			}
			j.inst, j.n, j.pc = d.insts[j.order[j.idx]], 0, localTxReq
		case localTxReq:
			if j.n == burst {
				j.idx, j.pc = j.idx+1, localTxInst
				continue
			}
			req, ok := j.inst.txQ.TryPop()
			if !ok {
				j.idx, j.pc = j.idx+1, localTxInst
				continue
			}
			j.n++
			j.req, j.pc = req, localTxWB
			j.wb.Begin(d.h.Cache, false, req.addr, req.size, "payload")
		case localTxWB:
			if dur, more := j.wb.Step(); more {
				return dur, true
			}
			j.cookie = d.nextCook
			d.nextCook++
			d.cookies[j.cookie] = localTxMeta{addr: j.req.addr, inst: j.inst}
			j.pc = localTxPosting
			return d.dev.DoorbellCost(), true
		case localTxPosting:
			j.pc = localTxReq
			if !d.dev.PostTxNow(nic.WQE{Addr: j.req.addr, Len: j.req.size, Cookie: j.cookie}) {
				delete(d.cookies, j.cookie)
				j.inst.area.Free(j.req.addr)
				continue
			}
			d.TxForwarded++
			j.progress++
		}
	}
}

func (j *localTxJob) Progress() int { return j.progress }

// txJob implements completions: a transmitted packet's buffer goes back to
// its instance's area.
func (d *LocalDriver) txJob(tc nic.TxCompletion) sim.Job {
	if meta, hit := d.cookies[tc.Cookie]; hit {
		delete(d.cookies, tc.Cookie)
		meta.inst.area.Free(meta.addr)
	}
	return d.txDone.begin(nil, msg{})
}

// rxJob implements completions (see localRxJob).
func (d *LocalDriver) rxJob(rc nic.RxCompletion) sim.Job {
	d.rx.begin(rc)
	return &d.rx
}

// localRxJob delivers a received packet to the instance its flow tag names:
// the copy-out, recycling the buffer into the RX area. A packet no flow
// rule matched (broadcasts, ARP) blocks the job: the process inspects it to
// find the destination instance, and drops it when there is none.
type localRxJob struct {
	d       *LocalDriver
	rc      nic.RxCompletion
	copy    rxCopy
	inspect bool // the process inspects the packet
	copying bool
}

func (j *localRxJob) begin(rc nic.RxCompletion) {
	d := j.d
	var inst *LocalPort
	if rc.Matched {
		for _, ip := range d.instOrder {
			if d.insts[ip].tag == rc.Tag {
				inst = d.insts[ip]
				break
			}
		}
	}
	j.rc, j.inspect, j.copying = rc, inst == nil, false
	if inst != nil {
		j.deliver(inst)
	}
}

// deliver starts the copy-out to inst.
func (j *localRxJob) deliver(inst *LocalPort) {
	j.copy.begin(&inst.port, j.rc.Addr, j.rc.Len, nil, j.d.rxArea)
	j.copying = true
}

func (j *localRxJob) Step() (sim.Duration, bool) {
	if !j.copying {
		return 0, false
	}
	if d, more := j.copy.Step(); more || j.copy.Blocked() {
		return d, more
	}
	j.d.RxDelivered++
	j.copying = false
	return 0, false
}

func (j *localRxJob) Blocked() bool { return j.inspect || j.copying && j.copy.Blocked() }

func (j *localRxJob) Finish(p *sim.Proc) {
	if !j.inspect {
		j.copy.Finish(p)
		return
	}
	j.inspect = false
	d, rc := j.d, j.rc
	n := rc.Len
	scratch := j.copy.buf(n)
	// Inspect (broadcasts/ARP) to find the destination instance.
	var inst *LocalPort
	d.h.Cache.Read(p, rc.Addr, scratch, "payload")
	var pk netstack.Packet
	if pk.Unmarshal(scratch) == nil {
		if dst, ok := netstack.DstIPOf(&pk); ok {
			inst = d.insts[dst]
		}
	}
	if inst == nil {
		d.h.Cache.FlushRange(p, rc.Addr, n, "payload")
		d.rxArea.Free(rc.Addr)
		return
	}
	j.deliver(inst)
}
