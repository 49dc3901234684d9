package core

import (
	"fmt"

	"oasis/internal/msgchan"
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
// bounded pending queue for messages that hit a full ring. An engine holds
// the *Link itself as its peer and reads the peer's id from Peer; Meta is
// only for peer state the link does not already hold (the allocator's
// device record).
type Link struct {
	Peer uint32 // host or device id, per the owning engine's keying
	op   linkOp // the link's stepped send (see Step)
	End  *LinkEnd
	Meta any

	pending [][]byte
	set     *LinkSet

	Stats LinkStats
}

// linkOp is what a link's stepped send is.
type linkOp uint8

const (
	linkSend  linkOp = iota // Send
	linkSendQ               // SendOrQueue
	linkDone                // nothing left: a message went straight to the pending queue
)

// Send transmits one message, returning false if the ring is full.
func (l *Link) Send(p *sim.Proc, payload []byte) bool {
	l.BeginSend(payload)
	p.Steps(l)
	return l.Sent()
}

// SendOrQueue transmits one message, parking a copy on the link's pending
// queue if the ring is full. Queued messages must not be dropped (they carry
// buffer ownership and completions); DrainPending redrives them in FIFO
// order before new work. Beyond the set's pending bound the message is still
// queued — losing it would leak a buffer — but the overflow is counted.
func (l *Link) SendOrQueue(p *sim.Proc, payload []byte) {
	l.BeginSendOrQueue(payload)
	p.Steps(l)
}

// BeginSend starts Send as a chain of steps, for a caller that sleeps it as
// part of its own: step the link from its first Step; Sent reports the
// outcome once the chain is over.
func (l *Link) BeginSend(payload []byte) {
	l.op = linkSend
	l.End.Out.BeginSend(payload)
}

// BeginSendOrQueue starts SendOrQueue the same way.
func (l *Link) BeginSendOrQueue(payload []byte) {
	if len(l.pending) > 0 {
		l.park(payload)
		l.op = linkDone
		return
	}
	l.op = linkSendQ
	l.End.Out.BeginSend(payload)
}

// Sent reports whether the send that has just ended was accepted.
func (l *Link) Sent() bool { return l.End.Out.Accepted() }

// Step implements sim.Stepper for the send begun last: the sender's legs,
// and then the link's bookkeeping.
func (l *Link) Step() (sim.Duration, bool) {
	if l.op == linkDone {
		return 0, false
	}
	out := l.End.Out
	if d, more := out.Step(); more {
		return d, true
	}
	switch {
	case out.Accepted():
		l.End.stampSent()
		l.Stats.Sent++
	case l.op == linkSendQ:
		l.Stats.SendFull++
		l.park(out.Message())
	default:
		l.Stats.SendFull++
	}
	l.op = linkDone
	return 0, false
}

// park puts a copy of payload on the pending queue.
func (l *Link) park(payload []byte) {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	l.pending = append(l.pending, cp)
	if l.set != nil {
		l.set.parked++
	}
	l.Stats.Deferred++
	if len(l.pending) > l.Stats.PendingPeak {
		l.Stats.PendingPeak = len(l.pending)
	}
	if l.set != nil && l.set.pendingLimit > 0 && len(l.pending) > l.set.pendingLimit {
		l.Stats.Overflow++
	}
}

// PendingLen returns the number of parked messages.
func (l *Link) PendingLen() int { return len(l.pending) }

// Flush pushes any partially-filled sender line.
func (l *Link) Flush(p *sim.Proc) { l.End.Flush(p) }

// LinkSet is a driver's registry of peer links, keyed by host or device id,
// iterated in insertion order for determinism (§3.2: one duplex channel per
// driver pair). It owns the shared pending bound for overflow accounting,
// and keeps what its links hold back — parked messages, stored messages not
// yet pushed — as counts, so that an idle loop's predicates ask it in O(1).
type LinkSet struct {
	byPeer       map[uint32]*Link
	order        []*Link
	pendingLimit int
	parked       int          // messages on the links' pending queues
	unflushed    int          // links whose sender is Unflushed (msgchan.Sender.Tally)
	pass         pollPass     // PollEach's position; a set has one poller
	each         *procHandler // PollEach's handler, made on its first call
}

// DefaultPendingLimit bounds each link's pending queue before parked
// messages count as overflow: one ring's worth of messages.
const DefaultPendingLimit = 64

// NewLinkSet creates an empty registry. pendingLimit bounds each link's
// pending queue before parked messages count as overflow; <= 0 means
// unbounded (no overflow is ever counted, matching an unbounded park list).
func NewLinkSet(pendingLimit int) *LinkSet {
	return &LinkSet{byPeer: make(map[uint32]*Link), pendingLimit: pendingLimit}
}

// Add registers a peer's link end. Duplicate peers are a wiring bug, and so
// is an end in two sets. Add appends, so a pass in flight (which holds the
// order slice it began with) does not see the new link; the next one does.
func (s *LinkSet) Add(peer uint32, end *LinkEnd) *Link {
	if _, dup := s.byPeer[peer]; dup {
		panic(fmt.Sprintf("core: duplicate link for peer %d", peer))
	}
	if end != nil {
		end.Out.Tally(&s.unflushed)
	}
	l := &Link{Peer: peer, End: end, set: s}
	s.byPeer[peer] = l
	s.order = append(s.order, l)
	return l
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
	if s.each == nil {
		s.each = &procHandler{}
	}
	s.each.handle = handle
	s.pass.h = s.each
	s.pass.begin(p.Engine(), nil, s.order, burst)
	n := s.pass.run(p)
	s.pass, s.each.handle = pollPass{}, nil // pin neither the handler nor the snapshot
	return n
}

// PendingCount returns the total parked messages across all links — counted
// as loop progress so a driver with undelivered completions never backs off.
func (s *LinkSet) PendingCount() int {
	if checking {
		n := 0
		for _, l := range s.order {
			n += len(l.pending)
		}
		if n != s.parked {
			panic(fmt.Sprintf("core: link set counts %d parked messages, its links hold %d", s.parked, n))
		}
	}
	return s.parked
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
			s.parked -= i
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
	if checking {
		n := 0
		for _, l := range s.order {
			if l.End.Unflushed() {
				n++
			}
		}
		if n != s.unflushed {
			panic(fmt.Sprintf("core: link set counts %d unflushed links, %d are", s.unflushed, n))
		}
	}
	return s.unflushed == 0
}

// Stats aggregates all links' counters.
func (s *LinkSet) Stats() LinkStats {
	var agg LinkStats
	for _, l := range s.order {
		agg.add(l.Stats)
	}
	return agg
}

// FlushJob is FlushAll over a link set followed by the Flush of an engine's
// control end, if it has one yet, as a Work whose steps push the lines: the
// flush stage of an engine loop. A link with nothing stored is passed over,
// as its Flush would do nothing; the links are the set's as they stand when
// the run begins.
type FlushJob struct {
	sim.NonBlocking
	set   *LinkSet
	ctrl  **LinkEnd
	links []*Link
	i     int
	cur   *msgchan.Sender // the flush in progress
}

// NewFlushJob returns the flush of set and then of *ctrl (ctrl may be nil).
func NewFlushJob(set *LinkSet, ctrl **LinkEnd) *FlushJob { return &FlushJob{set: set, ctrl: ctrl} }

// Begin implements Work.
func (f *FlushJob) Begin() { f.links, f.i, f.cur = f.set.order, 0, nil }

// Step implements sim.Stepper.
func (f *FlushJob) Step() (sim.Duration, bool) {
	for {
		if f.cur != nil {
			if d, more := f.cur.Step(); more {
				return d, true
			}
			f.cur = nil
		}
		switch {
		case f.i < len(f.links):
			f.cur = f.links[f.i].End.Out
		case f.i == len(f.links) && f.ctrl != nil && *f.ctrl != nil:
			f.cur = (*f.ctrl).Out
		default:
			return 0, false
		}
		f.i++
		if !f.cur.Unflushed() {
			f.cur = nil
			continue
		}
		f.cur.BeginFlush()
	}
}

// Progress implements Work: a flush processes no items.
func (f *FlushJob) Progress() int { return 0 }
