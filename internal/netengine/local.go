package netengine

import (
	"fmt"

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
	core.Seat
	nicQueues
	h    *host.Host
	pool *cxl.Pool
	cfg  Config

	insts     map[netstack.IP]*LocalPort
	instOrder []netstack.IP
	cookies   map[uint64]localTxMeta
	nextCook  uint64
	scratch   []byte

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
		scratch:  make([]byte, cfg.BufSize),
	}
	var err error
	if d.nicQueues, err = newNICQueues(dev, pool, cfg, d.completeTx, d.deliverRx); err != nil {
		return nil, fmt.Errorf("netengine: local NIC: %w", err)
	}
	// One iteration: instance TX rings, then NIC completions and RX
	// replenishment — the single-intermediary baseline pass.
	d.Seat = core.NewSeat(h.Name+"/iokernel", []core.Stage{
		core.WorkStage("instance tx", d.txIdle, d.drainTx),
		core.WorkStage("nic queues", d.nicIdle, d.serveNIC),
	}, h, cfg.driverConfig())
	return d, nil
}

// LocalPort is an instance's attachment to the baseline driver. It
// implements netstack.Endpoint like InstancePort, but the driver serves it
// directly.
type LocalPort struct {
	drv   *LocalDriver
	ip    netstack.IP
	area  *core.BufferArea
	txQ   *sim.Queue[txReq]
	stack *netstack.Stack
	tag   uint32

	TxDropsNoBuffer int64
}

// AddInstance attaches an instance (buffer area + flow rule) to the driver.
func (d *LocalDriver) AddInstance(ip netstack.IP) (*LocalPort, error) {
	if _, dup := d.insts[ip]; dup {
		return nil, fmt.Errorf("netengine: instance %v already attached", ip)
	}
	region, err := d.pool.Alloc(d.cfg.TxAreaBytes)
	if err != nil {
		return nil, err
	}
	area, err := core.NewBufferArea(region, d.cfg.BufSize)
	if err != nil {
		return nil, err
	}
	lp := &LocalPort{
		drv:  d,
		ip:   ip,
		area: area,
		txQ:  sim.NewQueue[txReq](d.h.Eng),
		tag:  uint32(len(d.insts) + 1),
	}
	d.insts[ip] = lp
	d.instOrder = append(d.instOrder, ip)
	d.dev.AddFlowRule(uint32(ip), lp.tag)
	return lp, nil
}

// AttachStack binds the instance's network stack.
func (lp *LocalPort) AttachStack(s *netstack.Stack) { lp.stack = s }

// CurrentMAC returns the local NIC's MAC.
func (lp *LocalPort) CurrentMAC() netsw.MAC { return lp.drv.dev.MAC() }

// Transmit implements netstack.Endpoint: write the frame into the buffer
// area and signal the driver over the IPC ring.
func (lp *LocalPort) Transmit(p *sim.Proc, frame []byte) {
	addr, ok := lp.area.Alloc()
	if !ok {
		lp.TxDropsNoBuffer++
		lp.drv.h.Eng.Bufs().Put(frame)
		return
	}
	size := len(frame)
	lp.drv.h.Cache.Write(p, addr, frame, "payload")
	lp.drv.h.Eng.Bufs().Put(frame) // bytes now live in the buffer area
	p.Sleep(lp.drv.h.IPCCost)
	lp.txQ.Push(txReq{addr: addr, size: size})
}

// txIdle reports whether drainTx has nothing to do: no instance has queued
// a packet.
func (d *LocalDriver) txIdle() bool {
	for _, ip := range d.instOrder {
		if d.insts[ip].txQ.Len() > 0 {
			return false
		}
	}
	return true
}

// drainTx forwards up to burst queued packets per instance to the NIC.
func (d *LocalDriver) drainTx(p *sim.Proc) int {
	progress := 0
	for _, ip := range d.instOrder {
		inst := d.insts[ip]
		for i := 0; i < burst; i++ {
			req, ok := inst.txQ.TryPop()
			if !ok {
				break
			}
			// Publish the buffer for DMA, then post straight to the NIC
			// — the single-intermediary baseline path.
			core.WritebackRange(p, d.h.Cache, req.addr, req.size, "payload")
			cookie := d.nextCook
			d.nextCook++
			d.cookies[cookie] = localTxMeta{addr: req.addr, inst: inst}
			if !d.dev.PostTx(p, nic.WQE{Addr: req.addr, Len: req.size, Cookie: cookie}) {
				delete(d.cookies, cookie)
				inst.area.Free(req.addr)
				continue
			}
			d.TxForwarded++
			progress++
		}
	}
	return progress
}

// completeTx returns a transmitted packet's buffer to its instance's area.
func (d *LocalDriver) completeTx(_ *sim.Proc, tc nic.TxCompletion) {
	if meta, hit := d.cookies[tc.Cookie]; hit {
		delete(d.cookies, tc.Cookie)
		meta.inst.area.Free(meta.addr)
	}
}

func (d *LocalDriver) deliverRx(p *sim.Proc, rc nic.RxCompletion) {
	var inst *LocalPort
	if rc.Matched {
		for _, ip := range d.instOrder {
			if d.insts[ip].tag == rc.Tag {
				inst = d.insts[ip]
				break
			}
		}
	}
	n := rc.Len
	if inst == nil {
		// Inspect (broadcasts/ARP) to find the destination instance.
		d.h.Cache.Read(p, rc.Addr, d.scratch[:n], "payload")
		if pk, err := netstack.Unmarshal(d.scratch[:n]); err == nil {
			if dst, ok := netstack.DstIPOf(pk); ok {
				inst = d.insts[dst]
			}
		}
	}
	if inst == nil {
		core.InvalidateRange(p, d.h.Cache, rc.Addr, n, "payload")
		d.rxArea.Free(rc.Addr)
		return
	}
	d.h.Cache.Read(p, rc.Addr, d.scratch[:n], "payload")
	local := d.h.Eng.Bufs().Get(n)
	copy(local, d.scratch[:n])
	p.Sleep(d.h.Local.TouchCost(n))
	core.InvalidateRange(p, d.h.Cache, rc.Addr, n, "payload")
	d.rxArea.Free(rc.Addr)
	d.RxDelivered++
	if inst.stack != nil {
		inst.stack.DeliverOwnedFrame(local)
	} else {
		d.h.Eng.Bufs().Put(local)
	}
}
