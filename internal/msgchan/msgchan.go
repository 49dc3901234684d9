// Package msgchan implements Oasis's message channel over non-coherent
// shared CXL memory (§3.2.2, §4) — the paper's core mechanism for signaling
// I/O requests and completions between frontend and backend drivers on
// different hosts.
//
// A channel is a single-producer single-consumer circular buffer of
// fixed-size slots (16 B for the network engine, 64 B for the storage
// engine) in shared CXL memory. The most significant bit of each slot is an
// epoch bit toggled every wrap, so the receiver can tell a fresh message
// from a stale one without a separate index. An 8 B consumed counter (on
// its own cache line) flows back from receiver to sender so the sender
// never overwrites unread slots; the receiver updates it in large batches
// and the sender caches it (§4).
//
// The receiver comes in the four designs the paper evaluates in Figure 6:
//
//	DesignBypassCache         ①  invalidate + fence before every poll
//	DesignNaivePrefetch       ②  + software prefetch; invalidate current
//	                             line only after an empty poll
//	DesignInvalidateConsumed  ③  + invalidate each line once all its
//	                             messages are consumed (unblocks prefetch)
//	DesignInvalidatePrefetched ④ + after an empty poll, also invalidate the
//	                             previously prefetched (possibly stale) lines
//
// The performance differences between the designs are not coded in — they
// emerge from the cache model's rules (prefetches ignore resident lines;
// resident lines go stale silently).
package msgchan

import (
	"encoding/binary"
	"fmt"

	"oasis/internal/cache"
	"oasis/internal/cxl"
	"oasis/internal/sim"
)

// Design selects the receiver's coherence strategy (Fig. 6).
type Design int

const (
	// DesignBypassCache is the baseline ①: CLFLUSHOPT + MFENCE before every
	// poll, so every poll pays a full CXL fetch.
	DesignBypassCache Design = iota
	// DesignNaivePrefetch is ②: prefetch ahead on successful polls;
	// invalidate the current line only after an empty poll.
	DesignNaivePrefetch
	// DesignInvalidateConsumed is ③: ② plus invalidating each line as soon
	// as all messages in it are consumed, so prefetching can pull in fresh
	// copies.
	DesignInvalidateConsumed
	// DesignInvalidatePrefetched is ④ (the Oasis design): ③ plus, after an
	// empty poll, invalidating the subsequent prefetched lines, which would
	// otherwise sit stale in the cache and stall the next burst.
	DesignInvalidatePrefetched
	// DesignHWCoherent assumes a CXL 3.0 pool with Back Invalidation (§6):
	// the receiver issues no software invalidations at all — remote writes
	// evict its stale lines in hardware. Requires cxl.Params.HWCoherent.
	DesignHWCoherent
)

// String names the design as in the paper's Figure 6 legend.
func (d Design) String() string {
	switch d {
	case DesignBypassCache:
		return "Bypass CPU Caches"
	case DesignNaivePrefetch:
		return "Naive Prefetching"
	case DesignInvalidateConsumed:
		return "+ Invalidate Consumed"
	case DesignInvalidatePrefetched:
		return "+ Invalidate Prefetched"
	case DesignHWCoherent:
		return "HW Coherent (CXL 3.0 BI)"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// Config sizes a channel. The defaults mirror §3.2.2: 8192 slots, 16 B
// messages, 16-line prefetch depth, counter updates every half capacity.
type Config struct {
	Slots         int    // ring capacity in messages
	MsgSize       int    // 16 or 64 bytes; must divide the line size
	PrefetchDepth int    // lines prefetched ahead (designs ②–④)
	CounterBatch  int    // consumed-counter update batch; 0 = Slots/2
	Design        Design // receiver strategy
	Category      string // CXL traffic accounting label; default "message"
	// MemClass overrides the channel region's latency class (e.g. a
	// DDR-class ring for the local-baseline configurations of Fig. 11).
	MemClass cxl.Class
}

// DefaultConfig returns the paper's network-engine channel configuration.
func DefaultConfig() Config {
	return Config{
		Slots:         8192,
		MsgSize:       16,
		PrefetchDepth: 16,
		Design:        DesignInvalidatePrefetched,
		Category:      "message",
	}
}

func (c Config) withDefaults() Config {
	if c.Slots == 0 {
		c.Slots = 8192
	}
	if c.MsgSize == 0 {
		c.MsgSize = 16
	}
	if c.PrefetchDepth == 0 {
		c.PrefetchDepth = 16
	}
	if c.CounterBatch == 0 {
		c.CounterBatch = c.Slots / 2
	}
	if c.Category == "" {
		c.Category = "message"
	}
	return c
}

func (c Config) validate() error {
	if c.MsgSize <= 0 || cxl.LineSize%c.MsgSize != 0 {
		return fmt.Errorf("msgchan: message size %d must divide the %d-byte line", c.MsgSize, cxl.LineSize)
	}
	if c.Slots <= 0 || c.Slots%(cxl.LineSize/c.MsgSize) != 0 {
		return fmt.Errorf("msgchan: %d slots must fill whole lines", c.Slots)
	}
	if c.CounterBatch < 1 || c.CounterBatch > c.Slots {
		return fmt.Errorf("msgchan: counter batch %d out of range", c.CounterBatch)
	}
	if c.PrefetchDepth < 0 {
		return fmt.Errorf("msgchan: negative prefetch depth")
	}
	return nil
}

const epochBit = 0x80

// Channel is the shared layout: one region holding the slot ring followed by
// the consumed counter on its own line.
type Channel struct {
	cfg    Config
	region cxl.Region
	// Derived layout.
	ringBase     int64 // first slot address
	counterAddr  int64 // 8-byte consumed counter, line-aligned
	slotsPerLine int
}

// RegionBytes returns the pool bytes a channel with this config needs.
func RegionBytes(cfg Config) int64 {
	cfg = cfg.withDefaults()
	return int64(cfg.Slots*cfg.MsgSize) + cxl.LineSize
}

// New lays a channel out in the given region. The region must hold
// RegionBytes(cfg).
func New(region cxl.Region, cfg Config) (*Channel, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if region.Size < RegionBytes(cfg) {
		return nil, fmt.Errorf("msgchan: region %d bytes, need %d", region.Size, RegionBytes(cfg))
	}
	if cfg.Design == DesignHWCoherent && !region.Pool().Params().HWCoherent {
		return nil, fmt.Errorf("msgchan: DesignHWCoherent requires a Back-Invalidation (HWCoherent) pool; " +
			"a receiver that never invalidates would poll stale lines forever on CXL 2.0")
	}
	return &Channel{
		cfg:          cfg,
		region:       region,
		ringBase:     region.Base,
		counterAddr:  region.Base + int64(cfg.Slots*cfg.MsgSize),
		slotsPerLine: cxl.LineSize / cfg.MsgSize,
	}, nil
}

// Config returns the channel's effective configuration.
func (ch *Channel) Config() Config { return ch.cfg }

// PayloadSize returns the usable bytes per message (slot minus header byte).
func (ch *Channel) PayloadSize() int { return ch.cfg.MsgSize - 1 }

// slotAddr maps an absolute message index to its slot address.
func (ch *Channel) slotAddr(idx int64) int64 {
	return ch.ringBase + (idx%int64(ch.cfg.Slots))*int64(ch.cfg.MsgSize)
}

// slotEpoch returns the epoch bit value a fresh message at absolute index
// idx carries. Pool memory starts zeroed, so wrap 0 writes epoch 1.
func (ch *Channel) slotEpoch(idx int64) byte {
	if (idx/int64(ch.cfg.Slots))%2 == 0 {
		return epochBit
	}
	return 0
}

// Sender is the producing endpoint. The sender is the ring's only writer, so
// it keeps a private shadow of the ring contents and pushes whole lines to
// the pool with CLWB — after filling a line under load, or explicitly via
// Flush when the send rate is low (§3.2.2). Stores are modelled at
// store-buffer cost: the read-for-ownership of a line the sender itself
// wrote one wrap ago is hidden on real cores and carries no information.
//
// The shadow is a table of shadowChunk-byte chunks, each allocated zeroed on
// the first store into it, so a channel that never carries a message costs
// no ring-sized copy. It stays a full copy of the ring, never a one-line
// buffer refilled from the pool: the previous wrap's posted write of a line
// may still be in flight, and a partial flush over a stale refill would
// publish wrap w−2's bytes, whose epoch bit matches the current wrap's.
type Sender struct {
	ch    *Channel
	port  *cxl.Port
	costs cache.Params

	head           int64 // next absolute index to write
	cachedConsumed int64 // sender's view of the receiver's counter
	flushedThrough int64 // messages pushed to the pool (CLWBed)

	shadow []*[shadowChunk]byte // private copy of ring contents; see shadowAt

	// Stepped-sleep position (see Step): what the leg in progress pays for.
	pc             senderPC
	eng            *sim.Engine // the sleeping process's engine
	wbLine, wbLast int64       // senderWriteback: ring line being CLWBed; final one

	// Stats.
	Sent           int64
	FullStalls     int64 // sends refused because the ring was full
	CounterReads   int64
	LinesWritten   int64
	PartialFlushes int64
}

// shadowChunk is the sender shadow's allocation unit. It holds whole lines,
// so a slot or a line never spans two chunks.
const shadowChunk = 4096

// NewSender returns the sending endpoint. costs supplies the CPU-side
// instruction costs (use cache.DefaultParams()).
func NewSender(ch *Channel, port *cxl.Port, costs cache.Params) *Sender {
	ring := ch.cfg.Slots * ch.cfg.MsgSize
	return &Sender{
		ch:     ch,
		port:   port,
		costs:  costs,
		shadow: make([]*[shadowChunk]byte, (ring+shadowChunk-1)/shadowChunk),
	}
}

// shadowAt returns the n shadow bytes at ring offset off, which lie in one
// chunk; the chunk is allocated zeroed on first use.
func (s *Sender) shadowAt(off, n int) []byte {
	c := s.shadow[off/shadowChunk]
	if c == nil {
		c = new([shadowChunk]byte)
		s.shadow[off/shadowChunk] = c
	}
	off %= shadowChunk
	return c[off : off+n]
}

// Free returns how many slots the sender believes are available. It does not
// re-read the consumed counter.
func (s *Sender) Free() int { return s.ch.cfg.Slots - int(s.head-s.cachedConsumed) }

// refreshConsumed re-reads the consumed counter from the pool: CLFLUSHOPT +
// MFENCE + a CXL fetch (§4), as one stepped sleep.
func (s *Sender) refreshConsumed(p *sim.Proc) {
	s.pc, s.eng = senderFetch, p.Engine()
	p.SleepSteps(s.costs.FlushIssue+s.costs.FenceLatency, s)
}

// senderPC says what the leg a Sender is sleeping pays for.
type senderPC uint8

const (
	senderFetch     senderPC = iota // counter invalidated and fenced: fetch it
	senderCollect                   // counter line arriving
	senderWriteback                 // CLWB of ring line wbLine issued
)

// Step implements sim.Stepper for the sender's two multi-leg operations. A
// sender has one user, so it is its own stepper.
func (s *Sender) Step() (sim.Duration, bool) {
	switch s.pc {
	case senderFetch:
		arrival := s.port.FetchLine(s.ch.counterAddr, s.ch.cfg.Category)
		if wait := arrival - s.eng.Now(); wait > 0 {
			s.pc = senderCollect
			return wait, true
		}
		fallthrough
	case senderCollect:
		var line [cxl.LineSize]byte
		s.port.CollectLine(s.ch.counterAddr, line[:])
		s.cachedConsumed = int64(binary.LittleEndian.Uint64(line[:8]))
		s.CounterReads++
	case senderWriteback:
		idx := s.wbLine * int64(s.ch.slotsPerLine) // first slot of the line
		addr := cxl.LineAddr(s.ch.slotAddr(idx))
		off := int(idx%int64(s.ch.cfg.Slots)) * s.ch.cfg.MsgSize
		s.port.WriteLine(addr, s.shadowAt(off, cxl.LineSize), s.ch.cfg.Category)
		s.LinesWritten++
		if s.wbLine < s.wbLast {
			s.wbLine++
			return s.costs.WritebackIssue, true
		}
	}
	return 0, false
}

// TrySend writes one message. payload must be at most PayloadSize bytes.
// It returns false (after refreshing the consumed counter) when the ring is
// full; the caller decides whether to retry, back off, or drop.
func (s *Sender) TrySend(p *sim.Proc, payload []byte) bool {
	if len(payload) > s.ch.PayloadSize() {
		panic(fmt.Sprintf("msgchan: payload %d bytes exceeds slot payload %d", len(payload), s.ch.PayloadSize()))
	}
	if int(s.head-s.cachedConsumed) >= s.ch.cfg.Slots {
		s.refreshConsumed(p)
		if int(s.head-s.cachedConsumed) >= s.ch.cfg.Slots {
			s.FullStalls++
			return false
		}
	}
	// Store the message into the shadow ring.
	off := int(s.head%int64(s.ch.cfg.Slots)) * s.ch.cfg.MsgSize
	slot := s.shadowAt(off, s.ch.cfg.MsgSize)
	for i := range slot {
		slot[i] = 0
	}
	slot[0] = s.ch.slotEpoch(s.head)
	copy(slot[1:], payload)
	p.Sleep(s.costs.StoreLatency)
	s.head++
	s.Sent++
	// Filled the last slot of a line: CLWB it.
	if s.head%int64(s.ch.slotsPerLine) == 0 {
		s.writebackThrough(p, s.head)
	}
	return true
}

// Flush pushes any partially-filled line to the pool (CLWB). Drivers call it
// when their send queue drains, which makes messages visible promptly at low
// rates without paying a per-message CLWB under load.
func (s *Sender) Flush(p *sim.Proc) {
	if s.Unflushed() {
		s.PartialFlushes++
		s.writebackThrough(p, s.head)
	}
}

// Unflushed reports whether Flush would push anything: messages have been
// stored since the last line went to the pool.
func (s *Sender) Unflushed() bool { return s.flushedThrough < s.head }

// writebackThrough CLWBs every line containing messages in
// [flushedThrough, through), as one stepped sleep.
func (s *Sender) writebackThrough(p *sim.Proc, through int64) {
	spl := int64(s.ch.slotsPerLine)
	s.wbLine, s.wbLast = s.flushedThrough/spl, (through-1)/spl
	if s.wbLine <= s.wbLast {
		s.pc = senderWriteback
		p.SleepSteps(s.costs.WritebackIssue, s)
	}
	s.flushedThrough = through
}

// Receiver is the consuming endpoint, reading through its host's cache with
// the configured design's coherence strategy.
type Receiver struct {
	ch      *Channel
	cache   *cache.Cache
	costs   cache.Params
	slotBuf []byte

	tail              int64 // next absolute index to read
	pendingConsumed   int   // messages consumed since last counter update
	highestPrefetched int64 // highest absolute line index prefetch was issued for

	// Poll's position in its stepped sleep (see Step). A receiver has one
	// consumer, so it is its own stepper.
	pc       recvPC
	fresh    bool    // the slot read held a fresh message
	ctr      [8]byte // consumed counter being stored
	nextLine int64   // recvFlush / recvPrefetch: absolute ring line the leg pays for
	lastLine int64   // final line of that run

	// Stats.
	Received       int64
	EmptyPolls     int64
	CounterUpdates int64
}

// NewReceiver returns the consuming endpoint reading through c.
func NewReceiver(ch *Channel, c *cache.Cache) *Receiver {
	return &Receiver{ch: ch, cache: c, costs: c.Params(), slotBuf: make([]byte, ch.cfg.MsgSize), highestPrefetched: -1}
}

// absLine returns the absolute line index of absolute message index idx.
func (r *Receiver) absLine(idx int64) int64 { return idx / int64(r.ch.slotsPerLine) }

// lineAddrOf returns the pool address of the line holding message idx.
func (r *Receiver) lineAddrOf(idx int64) int64 {
	return cxl.LineAddr(r.ch.slotAddr(idx))
}

// Poll attempts to consume one message, advancing p's time per the design's
// cost model. On success it returns the payload (PayloadSize bytes, valid
// until the next Poll).
//
// A poll is one stepped sleep: every cache operation's cost is a leg and its
// effect runs in Step, so an empty poll of design ④ — read miss, CLFLUSHOPT,
// MFENCE — resumes p once, not three times. Poll is Begin, then Step and
// SleepSteps until Finish says the poll is over; a caller that chains several
// receivers' polls into one sleep (core.LinkSet) makes the same calls itself.
func (r *Receiver) Poll(p *sim.Proc) ([]byte, bool) {
	r.Begin()
	for {
		if d, more := r.Step(); more {
			p.SleepSteps(d, r)
		}
		if payload, fresh, done := r.Finish(p); done {
			return payload, fresh
		}
	}
}

// Begin starts a poll: the next Step is its first.
func (r *Receiver) Begin() { r.pc = recvStart }

// Empty reports, once Step has returned more == false, that the poll is over
// and found no message: nothing is left for a process to do.
func (r *Receiver) Empty() bool {
	return r.pc != recvRefill && r.pc != recvCounterBlocked && !r.fresh
}

// Finish takes over where Step returned more == false. If the poll is over
// it reports done and the result. Otherwise the poll stopped at one of the
// two things a Step cannot do — refetching a slot line that vanished under
// its fill, storing to a counter line that has a fill in flight — and Finish
// does it, blocking p; the poll then goes on with Step.
func (r *Receiver) Finish(p *sim.Proc) (payload []byte, fresh, done bool) {
	switch r.pc {
	case recvRefill:
		r.cache.ReadRefill(p, r.ch.slotAddr(r.tail), r.slotBuf, r.ch.cfg.Category)
		r.pc = recvCheck
		return nil, false, false
	case recvCounterBlocked:
		r.cache.Write(p, r.ch.counterAddr, r.ctr[:], r.ch.cfg.Category)
		r.cache.WritebackLine(p, r.ch.counterAddr, r.ch.cfg.Category)
		r.pc = recvCounterDone
		return nil, false, false
	}
	if r.fresh {
		return r.slotBuf[1:], true, true
	}
	return nil, false, true
}

// recvPC says what Step does next. Where a leg is in progress, that is the
// effect the leg pays for.
type recvPC uint8

const (
	recvStart          recvPC = iota // nothing yet
	recvBypassFlush                  // ① CLFLUSHOPT of the slot line issued
	recvIssue                        // issue the slot read
	recvCollect                      // fill landing, or hit being served
	recvCheck                        // slot bytes are in slotBuf: test the epoch bit
	recvCounter                      // store the consumed counter
	recvCounterStored                // store retiring: CLWB comes next
	recvCounterWB                    // CLWB of the counter line issued
	recvCounterDone                  // counter published
	recvActions                      // plan the design's coherence actions
	recvFlush                        // empty poll: CLFLUSHOPT of ring line nextLine issued
	recvPrefetch                     // fresh: PREFETCHT0 of ring line nextLine issued
	recvPrefetched                   // prefetch window topped up
	recvConsumedFlush                // ③④ CLFLUSHOPT of the fully consumed line issued
	recvDone                         // last leg in progress, or nothing left
	recvRefill                       // Finish must refetch the slot line (blocking)
	recvCounterBlocked               // Finish must store the counter (blocking)
)

// Step implements sim.Stepper: it runs the poll forward from r.pc to the
// start of its next leg. Effects and legs come in exactly the order the
// blocking cache methods would produce them.
func (r *Receiver) Step() (sim.Duration, bool) {
	c, cfg := r.cache, &r.ch.cfg
	spl := int64(r.ch.slotsPerLine)
	for {
		switch r.pc {
		case recvStart:
			r.pc = recvIssue
			if cfg.Design == DesignBypassCache {
				// ①: invalidate + fence before every poll, then read (always a miss).
				r.pc = recvBypassFlush
				return r.costs.FlushIssue, true
			}
		case recvBypassFlush:
			c.FlushLineNow(r.lineAddrOf(r.tail), cfg.Category)
			r.pc = recvIssue
			return r.costs.FenceLatency, true
		case recvIssue:
			r.pc = recvCollect
			if wait, hit := c.ReadIssue(r.ch.slotAddr(r.tail), cfg.Category); hit || wait > 0 {
				return wait, true
			}
		case recvCollect:
			r.pc = recvCheck
			if !c.ReadCollect(r.ch.slotAddr(r.tail), r.slotBuf) {
				r.pc = recvRefill
				return 0, false
			}
		case recvCheck:
			r.fresh = r.slotBuf[0]&epochBit == r.ch.slotEpoch(r.tail)
			owed := false
			if r.fresh {
				r.tail++
				r.Received++
				r.pendingConsumed++
				owed = r.pendingConsumed >= cfg.CounterBatch
			} else {
				r.EmptyPolls++
				// Push the consumed counter when going idle so the sender cannot
				// stay blocked on a stale counter forever (the batched update
				// alone could deadlock a ring that drains below one batch).
				owed = r.pendingConsumed > 0
			}
			r.pc = recvActions
			if owed {
				r.pc = recvCounter
			}
		case recvCounter:
			// Publish the consumed count: store + CLWB on the counter's
			// dedicated line (§4).
			binary.LittleEndian.PutUint64(r.ctr[:], uint64(r.tail))
			if !c.StoreNow(r.ch.counterAddr, r.ctr[:]) {
				r.pc = recvCounterBlocked
				return 0, false
			}
			r.pc = recvCounterStored
			return r.costs.StoreLatency, true
		case recvCounterStored:
			r.pc = recvCounterWB
			return r.costs.WritebackIssue, true
		case recvCounterWB:
			c.WritebackLineNow(r.ch.counterAddr, cfg.Category)
			r.pc = recvCounterDone
		case recvCounterDone:
			r.pendingConsumed = 0
			r.CounterUpdates++
			r.pc = recvActions
		case recvActions:
			cur := r.absLine(r.tail)
			if r.fresh {
				if cfg.Design == DesignBypassCache {
					return 0, false
				}
				// ②③④ and HW: keep a rolling window of PrefetchDepth lines in
				// flight beyond the current line.
				r.nextLine, r.lastLine = r.highestPrefetched+1, cur+int64(cfg.PrefetchDepth)
				if r.nextLine < cur+1 {
					r.nextLine = cur + 1
				}
				r.pc = recvPrefetched
				if r.nextLine <= r.lastLine {
					r.pc = recvPrefetch
					return r.costs.PrefetchIssue, true
				}
				continue
			}
			switch cfg.Design {
			case DesignBypassCache, DesignHWCoherent:
				// ① already invalidated before the read; HW coherence needs nothing.
				return 0, false
			case DesignNaivePrefetch, DesignInvalidateConsumed:
				// ②③: invalidate the current line so the next poll refetches.
				r.nextLine, r.lastLine = cur, cur
			case DesignInvalidatePrefetched:
				// ④: additionally invalidate the previously prefetched lines,
				// which may hold stale contents that would block prefetching
				// during the next burst.
				r.nextLine, r.lastLine = cur, r.highestPrefetched
			}
			r.pc = recvFlush
			return r.costs.FlushIssue, true
		case recvFlush:
			c.FlushLineNow(r.lineAddrOf(r.nextLine*spl), cfg.Category)
			if r.nextLine < r.lastLine {
				r.nextLine++
				return r.costs.FlushIssue, true
			}
			if cfg.Design == DesignInvalidatePrefetched {
				r.highestPrefetched = r.absLine(r.tail)
			}
			r.pc = recvDone
			return r.costs.FenceLatency, true
		case recvPrefetch:
			c.PrefetchNow(r.ch.slotAddr(r.nextLine*spl), cfg.Category)
			if r.nextLine < r.lastLine {
				r.nextLine++
				return r.costs.PrefetchIssue, true
			}
			r.pc = recvPrefetched
		case recvPrefetched:
			if r.lastLine > r.highestPrefetched {
				r.highestPrefetched = r.lastLine
			}
			r.pc = recvDone
			// ③④: drop the line once all its messages are consumed so a future
			// prefetch can bring in the next wrap's contents.
			if (cfg.Design == DesignInvalidateConsumed || cfg.Design == DesignInvalidatePrefetched) && r.tail%spl == 0 {
				r.pc = recvConsumedFlush
				return r.costs.FlushIssue, true
			}
		case recvConsumedFlush:
			c.FlushLineNow(r.lineAddrOf(r.tail-1), cfg.Category)
			r.pc = recvDone
		default: // recvDone, and the states Finish handles
			return 0, false
		}
	}
}
