package netengine

import (
	"fmt"

	"oasis/internal/cache"
	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/netstack"
	"oasis/internal/nic"
	"oasis/internal/sim"
)

// The datapath runs in event context: every handler on it is a job (see
// sim.Job) whose steps the driver core chains with its own legs, and a job
// hands back to the core's process only for what cannot go on there.

// port is what an instance's attachment to a driver — the pooled frontend's
// InstancePort or the baseline's LocalPort — holds for its datapath: its TX
// buffer area in pool memory, the queue its driver drains, its stack, and
// the transmit both engines share. It implements netstack.SteppedEndpoint.
type port struct {
	h     *host.Host
	ip    netstack.IP
	area  *core.BufferArea
	txQ   *sim.Queue[txReq]
	stack *netstack.Stack
	tx    transmitJob

	// Stats.
	TxDropsNoBuffer int64
}

func newPort(h *host.Host, ip netstack.IP, area *core.BufferArea) port {
	return port{h: h, ip: ip, area: area, txQ: sim.NewQueue[txReq](h.Eng)}
}

// AttachStack binds the instance's network stack (created with the port's
// CurrentMAC as its MAC source and the port as its endpoint).
func (pt *port) AttachStack(s *netstack.Stack) { pt.stack = s }

// Transmit implements netstack.Endpoint: TransmitJob's job, run from p.
func (pt *port) Transmit(p *sim.Proc, frame []byte) { p.RunJob(pt.TransmitJob(frame)) }

// TransmitJob implements netstack.SteppedEndpoint (see transmitJob).
func (pt *port) TransmitJob(frame []byte) sim.Job {
	pt.tx.begin(pt, frame)
	return &pt.tx
}

// transmitJob is an instance's transmit (§3.3.1): the stack writes the frame
// into the instance's TX buffer area in pool memory, through the host cache
// — the driver writes it back later — and signals the driver over local IPC.
// It is
//
//	addr, ok := area.Alloc()             // none free: the frame is dropped
//	h.Cache.Write(p, addr, frame, "payload")
//	p.Sleep(h.IPCCost)
//	txQ.Push(txReq{addr, len(frame)})
//
// with the write's store into each line in event context: StoreNow, then a
// StoreLatency leg. A line whose fill is in flight blocks the job, and
// Finish writes it and the rest with Cache.Write, which waits for the fill.
type transmitJob struct {
	pt         *port
	frame      []byte
	addr       int64
	size       int
	next, last int64 // the line to store into next; the frame's final line
	pc         xmitPC
}

// xmitPC says where a transmit is.
type xmitPC uint8

const (
	xmitStore   xmitPC = iota // store into line next, or signal the driver
	xmitBlocked               // line next has a fill in flight: Finish writes
	xmitIPC                   // the IPC leg is over: push
	xmitDone
)

func (j *transmitJob) begin(pt *port, frame []byte) {
	if len(frame) > pt.area.BufSize() {
		panic(fmt.Sprintf("netengine: frame of %d bytes exceeds buffer size %d", len(frame), pt.area.BufSize()))
	}
	*j = transmitJob{pt: pt, pc: xmitDone}
	addr, ok := pt.area.Alloc()
	if !ok {
		pt.TxDropsNoBuffer++
		pt.h.Eng.Bufs().Put(frame)
		return
	}
	j.frame, j.addr, j.size, j.pc = frame, addr, len(frame), xmitStore
	j.next, j.last = cxl.LineAddr(addr), cxl.LineAddr(addr+int64(len(frame))-1)
}

func (j *transmitJob) Step() (sim.Duration, bool) {
	h := j.pt.h
	switch j.pc {
	case xmitStore:
		if j.next <= j.last {
			lo, hi := max(j.next, j.addr), min(j.next+cxl.LineSize, j.addr+int64(j.size))
			if !h.Cache.StoreNow(lo, j.frame[lo-j.addr:hi-j.addr]) {
				j.pc = xmitBlocked
				return 0, false
			}
			j.next += cxl.LineSize
			return h.Cache.Params().StoreLatency, true
		}
		h.Eng.Bufs().Put(j.frame) // bytes now live in the buffer area
		j.frame, j.pc = nil, xmitIPC
		return h.IPCCost, true
	case xmitIPC:
		j.pt.txQ.Push(txReq{addr: j.addr, size: j.size})
		j.pc = xmitDone
	}
	return 0, false
}

func (j *transmitJob) Blocked() bool { return j.pc == xmitBlocked }

func (j *transmitJob) Finish(p *sim.Proc) {
	lo := max(j.next, j.addr)
	j.pt.h.Cache.Write(p, lo, j.frame[lo-j.addr:], "payload")
	j.next, j.pc = j.last+cxl.LineSize, xmitStore
}

// sub is the sub-operation a datapath job has in progress — a link's send or
// flush, a range of cache-line operations — stepped from its first Step.
type sub struct{ s sim.Stepper }

func (u *sub) start(s sim.Stepper) { u.s = s }

// sendOrQueue starts SendOrQueue of m on l as the sub-operation.
func (u *sub) sendOrQueue(l *core.Link, m msg) {
	var buf [15]byte
	l.BeginSendOrQueue(m.encode(buf[:]))
	u.start(l)
}

// step runs the sub-operation: its next leg, or false once it is over.
func (u *sub) step() (sim.Duration, bool) {
	if u.s == nil {
		return 0, false
	}
	if d, more := u.s.Step(); more {
		return d, true
	}
	u.s = nil
	return 0, false
}

// sendJob is a job that is one link's send, or nothing.
type sendJob struct {
	sub
	sim.NonBlocking
}

// begin starts SendOrQueue of m on l; a nil l leaves the job empty.
func (j *sendJob) begin(l *core.Link, m msg) sim.Job {
	j.s = nil
	if l != nil {
		j.sendOrQueue(l, m)
	}
	return j
}

func (j *sendJob) Step() (sim.Duration, bool) { return j.step() }

// rxCopy is the copy-out of a received packet to its instance (§3.3.1 RX):
// read it from the shared RX buffer through the host cache, copy it into the
// instance's local memory (isolation, §3.3.2), invalidate the buffer's
// lines, recycle the buffer and hand the copy to the instance's stack. It is
//
//	h.Cache.Read(p, addr, scratch[:n], "payload")
//	local := a copy of scratch[:n]
//	p.Sleep(h.TouchCost(n))
//	h.Cache.FlushRange(p, addr, n, "payload")
//	// recycle: an RX-complete message over the backend's link, or back
//	// into the local driver's RX area
//	stack.DeliverOwnedFrame(local)
//
// with the read a cache.ReadOp — blocked only where a line vanished under
// its fill — and the invalidation a cache.RangeOp.
type rxCopy struct {
	h       *host.Host
	bufSize int
	scratch []byte
	read    cache.ReadOp
	inval   cache.RangeOp
	sub

	pt    *port
	addr  int64
	n     int
	link  *core.Link       // recycle over this link, or
	area  *core.BufferArea // into this area
	local []byte
	pc    rxPC
}

// rxPC says where a copy-out is.
type rxPC uint8

const (
	rxRead    rxPC = iota // the read is in progress
	rxTouched             // the copy's leg is over
	rxRecycle             // the invalidation is in progress; then recycle
	rxDeliver             // the recycling send is in progress; then deliver
	rxDone
)

// newRxCopy returns the copy-out of a driver on h whose packets are at most
// bufSize bytes. Its scratch buffer is made on the first packet.
func newRxCopy(h *host.Host, bufSize int) rxCopy {
	return rxCopy{h: h, bufSize: bufSize, pc: rxDone}
}

// begin starts the copy-out of the n-byte packet at addr to pt.
func (c *rxCopy) begin(pt *port, addr int64, n int, link *core.Link, area *core.BufferArea) {
	c.pt, c.addr, c.n, c.link, c.area, c.pc = pt, addr, n, link, area, rxRead
	c.read.Begin(c.h.Cache, addr, c.buf(n), "payload")
}

// buf returns the first n bytes of the scratch buffer.
func (c *rxCopy) buf(n int) []byte {
	if c.scratch == nil {
		c.scratch = make([]byte, c.bufSize)
	}
	return c.scratch[:n]
}

func (c *rxCopy) Step() (sim.Duration, bool) {
	for {
		if d, more := c.step(); more {
			return d, true
		}
		switch c.pc {
		case rxRead:
			if d, more := c.read.Step(); more || c.read.Blocked() {
				return d, more
			}
			c.local = c.h.Eng.Bufs().Get(c.n)
			copy(c.local, c.scratch[:c.n])
			c.pc = rxTouched
			return c.h.TouchCost(c.n), true
		case rxTouched:
			c.inval.Begin(c.h.Cache, true, c.addr, c.n, "payload")
			c.start(&c.inval)
			c.pc = rxRecycle
		case rxRecycle:
			if c.link != nil {
				c.sendOrQueue(c.link, msg{op: opRxComplete, addr: c.addr})
			} else {
				c.area.Free(c.addr)
			}
			c.pc = rxDeliver
		case rxDeliver:
			if c.pt.stack != nil {
				c.pt.stack.DeliverOwnedFrame(c.local)
			} else {
				c.h.Eng.Bufs().Put(c.local)
			}
			c.local, c.pc = nil, rxDone
		default:
			return 0, false
		}
	}
}

func (c *rxCopy) Blocked() bool      { return c.pc == rxRead && c.read.Blocked() }
func (c *rxCopy) Finish(p *sim.Proc) { c.read.Finish(p) }

// completions is what a NIC's completions mean to its driver: a job for
// each, begun on the completion and stepped from its first Step.
type completions interface {
	txJob(tc nic.TxCompletion) sim.Job
	rxJob(rc nic.RxCompletion) sim.Job
}

// nicWork is the "nic queues" work stage the pooled Backend and the baseline
// LocalDriver share: up to burst TX and up to burst RX completions handed to
// the driver's jobs, then the RX ring topped up, each descriptor a doorbell
// leg; every completion is progress. It is
//
//	for up to burst TX completions { the driver's TX job }
//	for up to burst RX completions { the driver's RX job }
//	for dev.RxDescCount() < rxTarget {
//		addr, ok := rxArea.Alloc()      // none: stop
//		if !dev.PostRx(p, desc(addr)) { rxArea.Free(addr); stop }
//	}
type nicWork struct {
	q        *nicQueues
	c        completions
	job      sim.Job // the completion in progress
	phase    nicPhase
	i        int   // completions taken in this phase
	addr     int64 // the RX buffer being posted
	progress int
}

// nicPhase says where a pass over the NIC's queues is.
type nicPhase uint8

const (
	nicTx      nicPhase = iota // TX completions
	nicRx                      // RX completions
	nicRefill                  // top the RX ring up
	nicPosting                 // addr's doorbell leg is over: post it
	nicDone
)

func (w *nicWork) Begin() { w.job, w.phase, w.i, w.progress = nil, nicTx, 0, 0 }

func (w *nicWork) Step() (sim.Duration, bool) {
	q := w.q
	for {
		if w.job != nil {
			if d, more := w.job.Step(); more || w.job.Blocked() {
				return d, more
			}
			w.job = nil
		}
		switch w.phase {
		case nicTx:
			if w.i < burst {
				if tc, ok := q.dev.PollTxCompletion(); ok {
					w.i++
					w.progress++
					w.job = w.c.txJob(tc)
					continue
				}
			}
			w.phase, w.i = nicRx, 0
		case nicRx:
			if w.i < burst {
				if rc, ok := q.dev.PollRxCompletion(); ok {
					w.i++
					w.progress++
					w.job = w.c.rxJob(rc)
					continue
				}
			}
			w.phase = nicRefill
		case nicRefill:
			w.phase = nicDone
			if q.dev.RxDescCount() < q.rxTarget {
				if addr, ok := q.rxArea.Alloc(); ok {
					w.addr, w.phase = addr, nicPosting
					return q.dev.DoorbellCost(), true
				}
			}
		case nicPosting:
			w.phase = nicRefill
			if !q.dev.PostRxNow(nic.RxDesc{Addr: w.addr, Cap: q.rxArea.BufSize()}) {
				q.rxArea.Free(w.addr)
				w.phase = nicDone
			}
		default:
			return 0, false
		}
	}
}

func (w *nicWork) Blocked() bool      { return w.job != nil && w.job.Blocked() }
func (w *nicWork) Finish(p *sim.Proc) { w.job.Finish(p) }
func (w *nicWork) Progress() int      { return w.progress }
