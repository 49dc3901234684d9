package core

import (
	"fmt"

	"oasis/internal/sim"
)

// LinkStats counts one link's (or a whole LinkSet's) message traffic and
// backpressure events.
type LinkStats struct {
	Sent     int64 // messages accepted by the ring
	Received int64 // messages polled from the peer
	SendFull int64 // sends that found the ring full
	Deferred int64 // messages parked on the pending queue
	Redrives int64 // pending messages re-sent successfully
	Overflow int64 // deferrals beyond the pending bound (backlogged link)

	PendingPeak int // high-water mark of the pending queue
}

func (s *LinkStats) add(o LinkStats) {
	s.Sent += o.Sent
	s.Received += o.Received
	s.SendFull += o.SendFull
	s.Deferred += o.Deferred
	s.Redrives += o.Redrives
	s.Overflow += o.Overflow
	if o.PendingPeak > s.PendingPeak {
		s.PendingPeak = o.PendingPeak
	}
}

// Link is one registered peer in a LinkSet: the duplex channel end plus the
// bounded pending queue for messages that hit a full ring. Meta carries
// engine-specific peer state (a NIC's MAC, a host id) without the engine
// keeping its own table.
type Link struct {
	Peer uint32 // host or device id, per the owning engine's keying
	End  *LinkEnd
	Meta any

	pending [][]byte
	set     *LinkSet

	Stats LinkStats
}

// Send transmits one message, returning false if the ring is full.
func (l *Link) Send(p *sim.Proc, payload []byte) bool {
	if !l.End.Send(p, payload) {
		l.Stats.SendFull++
		return false
	}
	l.Stats.Sent++
	return true
}

// SendOrQueue transmits one message, parking a copy on the link's pending
// queue if the ring is full. Queued messages must not be dropped (they carry
// buffer ownership and completions); DrainPending redrives them in FIFO
// order before new work. Beyond the set's pending bound the message is still
// queued — losing it would leak a buffer — but the overflow is counted and
// Backlogged turns true so the engine can stop accepting new work.
func (l *Link) SendOrQueue(p *sim.Proc, payload []byte) {
	if len(l.pending) == 0 && l.Send(p, payload) {
		return
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	l.pending = append(l.pending, cp)
	l.Stats.Deferred++
	if len(l.pending) > l.Stats.PendingPeak {
		l.Stats.PendingPeak = len(l.pending)
	}
	if l.set != nil && l.set.pendingLimit > 0 && len(l.pending) > l.set.pendingLimit {
		l.Stats.Overflow++
	}
}

// Backlogged reports whether the pending queue exceeds the set's bound —
// the engine-visible backpressure signal.
func (l *Link) Backlogged() bool {
	return l.set != nil && l.set.pendingLimit > 0 && len(l.pending) > l.set.pendingLimit
}

// PendingLen returns the number of parked messages.
func (l *Link) PendingLen() int { return len(l.pending) }

// Flush pushes any partially-filled sender line.
func (l *Link) Flush(p *sim.Proc) { l.End.Flush(p) }

// LinkSet is a driver's registry of peer links, keyed by host or device id,
// iterated in insertion order for determinism (§3.2: one duplex channel per
// driver pair). It owns the shared pending bound for backpressure
// accounting.
type LinkSet struct {
	byPeer       map[uint32]*Link
	order        []*Link // never shifted in place: a pass in flight holds it (see Remove)
	pendingLimit int
	pass         pollPass // PollEach's position; a set has one poller
}

// DefaultPendingLimit bounds each link's pending queue before the link
// reports backpressure: one ring's worth of messages.
const DefaultPendingLimit = 64

// NewLinkSet creates an empty registry. pendingLimit bounds each link's
// pending queue before Backlogged trips; <= 0 means unbounded (no
// backpressure signal, matching an unbounded park list).
func NewLinkSet(pendingLimit int) *LinkSet {
	return &LinkSet{byPeer: make(map[uint32]*Link), pendingLimit: pendingLimit}
}

// Add registers a peer's link end. Duplicate peers are a wiring bug.
func (s *LinkSet) Add(peer uint32, end *LinkEnd) *Link {
	if _, dup := s.byPeer[peer]; dup {
		panic(fmt.Sprintf("core: duplicate link for peer %d", peer))
	}
	l := &Link{Peer: peer, End: end, set: s}
	s.byPeer[peer] = l
	s.order = append(s.order, l)
	return l
}

// Remove forgets a peer's link (topology removal), keeping the others in
// insertion order; messages parked on it go with it. The survivors go into a
// new order slice, so a PollEach, FlushAll or driver poll stage suspended
// mid-pass (the engine is cooperative) finishes over the links it began with,
// each exactly once — the removed one included if the pass had not reached it,
// which is the owner's to tell apart (Get no longer returns it). Removing an
// unknown peer does nothing.
func (s *LinkSet) Remove(peer uint32) {
	l := s.byPeer[peer]
	if l == nil {
		return
	}
	delete(s.byPeer, peer)
	order := make([]*Link, 0, len(s.order)-1)
	for _, o := range s.order {
		if o != l {
			order = append(order, o)
		}
	}
	s.order = order
}

// Get returns the link for a peer, or nil.
func (s *LinkSet) Get(peer uint32) *Link { return s.byPeer[peer] }

// Len returns the number of registered peers.
func (s *LinkSet) Len() int { return len(s.order) }

// All returns the links in insertion order. The slice is the registry's
// own; callers must not mutate it.
func (s *LinkSet) All() []*Link { return s.order }

// PollEach drains up to burst inbound messages per link, invoking handle
// for each, and returns the number handled. Consecutive empty polls are one
// stepped sleep, so a pass over idle links resumes p at most once.
func (s *LinkSet) PollEach(p *sim.Proc, burst int, handle func(p *sim.Proc, l *Link, payload []byte)) int {
	s.pass.each = handle
	s.pass.begin(s.order, burst)
	n := s.pass.run(p)
	s.pass = pollPass{} // pin neither the handler nor the snapshot
	return n
}

// PendingCount returns the total parked messages across all links — counted
// as loop progress so a driver with undelivered completions never backs off.
func (s *LinkSet) PendingCount() int {
	n := 0
	for _, l := range s.order {
		n += len(l.pending)
	}
	return n
}

// DrainPending redrives parked messages in FIFO order per link, stopping at
// the first full ring, and returns how many were re-sent.
func (s *LinkSet) DrainPending(p *sim.Proc) int {
	drained := 0
	for _, l := range s.order {
		i := 0
		for ; i < len(l.pending); i++ {
			if !l.End.Send(p, l.pending[i]) {
				l.Stats.SendFull++
				break
			}
			l.Stats.Sent++
			l.Stats.Redrives++
			drained++
		}
		if i > 0 {
			l.pending = append(l.pending[:0], l.pending[i:]...)
		}
	}
	return drained
}

// FlushAll pushes every link's partially-filled sender line (§3.2.2: flush
// promptly at low rates so batched counters don't strand messages).
func (s *LinkSet) FlushAll(p *sim.Proc) {
	for _, l := range s.order {
		l.End.Flush(p)
	}
}

// FlushIdle reports whether FlushAll would do nothing: no end has a stored
// message still to push.
func (s *LinkSet) FlushIdle() bool {
	for _, l := range s.order {
		if l.End.Unflushed() {
			return false
		}
	}
	return true
}

// Stats aggregates all links' counters.
func (s *LinkSet) Stats() LinkStats {
	var agg LinkStats
	for _, l := range s.order {
		agg.add(l.Stats)
	}
	return agg
}
