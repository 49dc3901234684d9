package core

import (
	"oasis/internal/metrics"
	"oasis/internal/sim"
)

// CrossEnd is a ChanEnd whose peer lives on another simulation partition.
//
// In partitioned execution a message channel cannot be modeled as the usual
// shared ring — the two drivers execute on different partition goroutines
// and a ring poll would race. Instead each direction is a declared
// sim.CrossLink: a send stamps the message with its delivery time (send
// time + the channel's latency) and the partition barrier merges it into
// the receiver's timeline in canonical order, where a callback appends it
// to a receiver-local queue. All state is single-partition: the outbound
// link is only touched by the sender's partition, the inbound queue only by
// the receiver's, so the end is race-free by construction and the delivered
// traffic is byte-identical regardless of worker interleaving.
//
// Backpressure: Send never reports full — cross-partition flooding is
// bounded (and diagnosed) by the group's inbox cap rather than a modeled
// ring size, since the sender cannot observe receiver-side occupancy
// without breaking partition isolation.
type CrossEnd struct {
	out  *sim.CrossLink
	lat  sim.Duration
	peer *CrossEnd

	// Inbound queue; owned by the receiving partition.
	inq   []crossMsg
	head  int
	inLat metrics.Histogram
}

type crossMsg struct {
	payload []byte
	sentAt  sim.Duration
}

// NewCrossChannel builds a duplex cross-partition channel between
// partitions a and b of group g: every message becomes visible to the
// peer's Poll exactly lat after the send. lat doubles as the declared
// lookahead for both directions, so it must honor the group's latency
// floor. Returns a's end and b's end.
func NewCrossChannel(g *sim.Group, a, b *sim.Engine, lat sim.Duration) (aEnd, bEnd *CrossEnd) {
	aEnd = &CrossEnd{out: g.Link(a, b, lat), lat: lat}
	bEnd = &CrossEnd{out: g.Link(b, a, lat), lat: lat}
	aEnd.peer, bEnd.peer = bEnd, aEnd
	return aEnd, bEnd
}

// Send transmits one message toward the peer partition; it is copied
// immediately so the caller may reuse its buffer. Always succeeds (see the
// type comment on backpressure).
func (c *CrossEnd) Send(p *sim.Proc, payload []byte) bool {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	sentAt := p.Now()
	dst := c.peer
	c.out.Send(sentAt+c.lat, func() {
		dst.inq = append(dst.inq, crossMsg{payload: cp, sentAt: sentAt})
	})
	return true
}

// Poll drains one inbound message if available. Delivery is FIFO per
// direction: cross events merge in (time, source partition, source
// sequence) order and one direction has one source.
func (c *CrossEnd) Poll(p *sim.Proc) ([]byte, bool) {
	if c.head >= len(c.inq) {
		if c.head > 0 {
			c.inq = c.inq[:0]
			c.head = 0
		}
		return nil, false
	}
	m := c.inq[c.head]
	c.inq[c.head] = crossMsg{}
	c.head++
	c.inLat.Record(p.Now() - m.sentAt)
	return m.payload, true
}

// Flush is a no-op: cross sends are not line-batched.
func (c *CrossEnd) Flush(p *sim.Proc) {}

// Unflushed is always false: there is nothing Flush would push.
func (c *CrossEnd) Unflushed() bool { return false }

// InLatency returns the inbound delivery-latency histogram (time from the
// peer's Send to this end's draining Poll).
func (c *CrossEnd) InLatency() *metrics.Histogram { return &c.inLat }

// Pending returns the inbound messages delivered but not yet polled.
func (c *CrossEnd) Pending() int { return len(c.inq) - c.head }

// Latency returns the channel's one-way delivery latency.
func (c *CrossEnd) Latency() sim.Duration { return c.lat }
