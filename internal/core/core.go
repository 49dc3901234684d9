// Package core implements Oasis's common datapath over non-coherent shared
// CXL memory (§3.2): I/O buffer areas that CPUs write and devices DMA, the
// coherence discipline that makes that safe without hardware coherence, and
// the duplex message-channel links drivers signal over.
//
// The two rules from §3.2.1, enforced here and relied on everywhere above:
//
//  1. When an I/O buffer passes from a frontend to a backend on another
//     host, every line of it must be written back to CXL memory first
//     (cache.Cache.WritebackRange), and a receiving host must invalidate
//     before — or, for RX buffers, after — reading (cache.Cache.FlushRange).
//  2. The backend driver never brings I/O buffers into its CPU cache, so
//     device DMA never snoops dirty lines and the backend needs no
//     per-buffer coherence work at all.
package core

import (
	"fmt"

	"oasis/internal/cache"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/metrics"
	"oasis/internal/msgchan"
	"oasis/internal/sim"
)

// BufferArea is a pool-resident region divided into fixed-size I/O buffers:
// a per-instance TX buffer area or a per-NIC RX buffer area (§3.3.1).
//
// Buffers are handed out lowest address first and a freed buffer is the
// next one taken (LIFO). No buffer is listed before it is used: buffers never
// handed out are the range [next, n), taken from its bottom, and only freed
// ones are pushed onto the free list — the same order an up-front list of
// all n buffers, lowest on top, would give.
//
// A freed buffer's bytes are dead: Free discards its whole pool pages
// (cxl.Pool.Discard), so the pool's host memory holds the buffers out at
// once, not every packet the area ever carried. One bit per buffer handed
// out says which are out, grown with next, and a second Free of a buffer —
// which would give it two owners and wipe the live one's bytes — panics.
type BufferArea struct {
	region  cxl.Region
	bufSize int
	n       int64    // buffers in the region
	next    int64    // buffers [next, n) were never handed out
	free    []int64  // indices of freed buffers; the top is taken first
	out     []uint64 // bit i: buffer i is handed out; covers [0, next)

	// Stats.
	Allocs, Frees int64
	AllocFails    int64
}

// NewBufferArea divides region into bufSize-byte buffers. bufSize must be a
// positive multiple of the cache line size so buffers never share lines
// (line sharing would let one buffer's writeback clobber another's bytes).
func NewBufferArea(region cxl.Region, bufSize int) (*BufferArea, error) {
	if bufSize <= 0 || bufSize%cxl.LineSize != 0 {
		return nil, fmt.Errorf("core: buffer size %d must be a positive multiple of %d", bufSize, cxl.LineSize)
	}
	n := region.Size / int64(bufSize)
	if n == 0 {
		return nil, fmt.Errorf("core: region of %d bytes holds no %d-byte buffers", region.Size, bufSize)
	}
	return &BufferArea{region: region, bufSize: bufSize, n: n}, nil
}

// BufSize returns the per-buffer capacity.
func (a *BufferArea) BufSize() int { return a.bufSize }

// Capacity returns the total number of buffers.
func (a *BufferArea) Capacity() int { return int(a.n) }

// FreeCount returns the buffers currently available.
func (a *BufferArea) FreeCount() int { return len(a.free) + int(a.n-a.next) }

// Alloc takes a buffer, returning its pool address.
func (a *BufferArea) Alloc() (int64, bool) {
	var i int64
	if k := len(a.free); k > 0 {
		i = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		if a.next == a.n {
			a.AllocFails++
			return 0, false
		}
		i = a.next
		a.next++
		if i%64 == 0 {
			a.out = append(a.out, 0)
		}
	}
	a.out[i/64] |= 1 << (i % 64)
	a.Allocs++
	return a.region.Base + i*int64(a.bufSize), true
}

// Free returns a buffer to the area and discards its bytes. Freeing an
// address the area does not own, or a buffer that is not out, is a driver
// bug and panics.
func (a *BufferArea) Free(addr int64) {
	if !a.Owns(addr) {
		panic(fmt.Sprintf("core: freeing buffer %#x outside area [%#x,%#x)", addr, a.region.Base, a.region.Base+a.region.Size))
	}
	i := (addr - a.region.Base) / int64(a.bufSize)
	if i >= a.next || a.out[i/64]&(1<<(i%64)) == 0 {
		panic(fmt.Sprintf("core: freeing buffer %#x, which is not out (double free)", addr))
	}
	a.out[i/64] &^= 1 << (i % 64)
	a.free = append(a.free, i)
	a.Frees++
	a.region.Pool().Discard(addr, a.bufSize)
}

// Owns reports whether addr is a valid buffer base inside this area.
func (a *BufferArea) Owns(addr int64) bool {
	off := addr - a.region.Base
	return off >= 0 && off < a.region.Size && off%int64(a.bufSize) == 0
}

// ChanLatency measures one channel direction's message delivery latency —
// the Fig. 6 metric: virtual time from a successful TrySend (which includes
// any line-batching delay downstream) to the receiver's Poll that drains the
// message. Rings are FIFO and lossless once a send is accepted, so the
// sender's stamp queue pairs stamps with deliveries in order. The queue drops
// its consumed prefix once that passes half its length, so it holds at most
// twice the messages in flight, even under a standing queue that never
// drains. All samples land in Hist.
type ChanLatency struct {
	stamps []sim.Duration
	head   int
	Hist   metrics.Histogram
}

func (cl *ChanLatency) stamp(at sim.Duration) {
	if cl == nil {
		return
	}
	cl.stamps = append(cl.stamps, at)
}

func (cl *ChanLatency) observe(at sim.Duration) {
	if cl == nil || cl.head >= len(cl.stamps) {
		return
	}
	sent := cl.stamps[cl.head]
	cl.head++
	if 2*cl.head > len(cl.stamps) {
		cl.stamps = cl.stamps[:copy(cl.stamps, cl.stamps[cl.head:])]
		cl.head = 0
	}
	cl.Hist.Record(at - sent)
}

// LinkEnd is one driver's end of a duplex message link: a sender toward the
// peer and a receiver from the peer, plus the latency trackers for both
// directions (shared with the peer end by NewDuplexLink; nil trackers on
// hand-built ends simply record nothing).
type LinkEnd struct {
	Out *msgchan.Sender
	In  *msgchan.Receiver

	outLat *ChanLatency // stamps accepted sends (the peer's inbound direction)
	inLat  *ChanLatency // resolves stamps on Poll (this end's inbound direction)
}

// stampSent records a send accepted now, for the peer's latency tracker.
func (l *LinkEnd) stampSent() {
	if l.outLat != nil {
		l.outLat.stamp(l.Out.Engine().Now())
	}
}

// InLatency returns the histogram of inbound delivery latencies — the
// virtual time messages spent in the channel before this end polled them.
// Nil if the end was built without trackers.
func (l *LinkEnd) InLatency() *metrics.Histogram {
	if l.inLat == nil {
		return nil
	}
	return &l.inLat.Hist
}

// Poll drains one inbound message if available.
func (l *LinkEnd) Poll(p *sim.Proc) ([]byte, bool) {
	payload, ok := l.In.Poll(p)
	if ok {
		l.inLat.observe(p.Now())
	}
	return payload, ok
}

// Send transmits one message, returning false if the ring is full.
func (l *LinkEnd) Send(p *sim.Proc, payload []byte) bool {
	if !l.Out.TrySend(p, payload) {
		return false
	}
	l.outLat.stamp(p.Now())
	return true
}

// Flush pushes any partially-filled sender line.
func (l *LinkEnd) Flush(p *sim.Proc) { l.Out.Flush(p) }

// Unflushed reports whether Flush would push anything. A nil end (a control
// link not made yet) has nothing to push.
func (l *LinkEnd) Unflushed() bool { return l != nil && l.Out.Unflushed() }

// NewDuplexLink allocates a pair of message channels in the pool between
// hosts a and b (§3.2.2: one channel per direction per driver pair) and
// returns each side's end.
func NewDuplexLink(pool *cxl.Pool, a, b *host.Host, cfg msgchan.Config) (aEnd, bEnd *LinkEnd, err error) {
	if a.Cache == nil || b.Cache == nil {
		return nil, nil, fmt.Errorf("core: both link hosts must be in the pod")
	}
	mk := func(tx, rx *host.Host) (*msgchan.Sender, *msgchan.Receiver, error) {
		region, err := pool.AllocClass(msgchan.RegionBytes(cfg), cfg.MemClass)
		if err != nil {
			return nil, nil, err
		}
		ch, err := msgchan.New(region, cfg)
		if err != nil {
			return nil, nil, err
		}
		return msgchan.NewSender(ch, tx.CXLPort, cache.DefaultParams()), msgchan.NewReceiver(ch, rx.Cache), nil
	}
	abS, abR, err := mk(a, b)
	if err != nil {
		return nil, nil, err
	}
	baS, baR, err := mk(b, a)
	if err != nil {
		return nil, nil, err
	}
	abLat, baLat := &ChanLatency{}, &ChanLatency{}
	return &LinkEnd{Out: abS, In: baR, outLat: abLat, inLat: baLat},
		&LinkEnd{Out: baS, In: abR, outLat: baLat, inLat: abLat}, nil
}
