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
	"math/bits"

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
//
// What a poll of an idle ring reads comes first, so that it shares lines.
type Channel struct {
	ringBase  int64        // first slot address
	lineShift uint         // log2(slotsPerLine): MsgSize divides the line, so it is a power of two
	load      sim.Duration // the region's load latency (cxl.Region.LoadLatency)
	pool      *cxl.Pool    // the region's
	cfg       Config
	// Derived layout.
	counterAddr  int64 // 8-byte consumed counter, line-aligned
	slotsPerLine int
	ringLines    int64 // lines in the ring

	landed sim.Duration // when the last line the sender has written lands
	watch  *Watch       // the watch the ring reports its writes to, or nil
}

// Watch counts the lines written to the rings that report to it
// (Receiver.Watch), each when its write is issued, so that none can land
// unseen: a poll pass that found every ring empty, with no write in flight,
// and has seen the count stand still since knows that every ring is still
// empty (see core's pollPass). The watch is read by the engine it is bound
// to, so a sender on another engine panics rather than race it.
type Watch struct {
	eng   *sim.Engine
	count uint64
}

// Bind makes w a watch read on eng.
func (w *Watch) Bind(eng *sim.Engine) { w.eng = eng }

// Count returns the lines counted so far.
func (w *Watch) Count() uint64 { return w.count }

// wrote records a line s has written to its ring that lands at land.
func (s *Sender) wrote(land sim.Duration) {
	ch := s.ch
	ch.landed = max(ch.landed, land)
	if w := ch.watch; w != nil {
		if w.eng != s.Engine() {
			panic("msgchan: a ring's sender writes on another engine than its watch is read on")
		}
		w.count++
	}
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
	// Every line the ring is fetched at lies in the region: in range, so a
	// batched fetch needs no range check of its own (cxl.FetchRun).
	if !region.InPool() {
		return nil, fmt.Errorf("msgchan: region [%d, %d) outside its pool", region.Base, region.Base+region.Size)
	}
	if cfg.Design == DesignHWCoherent && !region.Pool().Params().HWCoherent {
		return nil, fmt.Errorf("msgchan: DesignHWCoherent requires a Back-Invalidation (HWCoherent) pool; " +
			"a receiver that never invalidates would poll stale lines forever on CXL 2.0")
	}
	return &Channel{
		cfg:          cfg,
		ringBase:     region.Base,
		counterAddr:  region.Base + int64(cfg.Slots*cfg.MsgSize),
		slotsPerLine: cxl.LineSize / cfg.MsgSize,
		lineShift:    uint(bits.TrailingZeros(uint(cxl.LineSize / cfg.MsgSize))),
		ringLines:    int64(cfg.Slots / (cxl.LineSize / cfg.MsgSize)),
		load:         region.LoadLatency(),
		pool:         region.Pool(),
	}, nil
}

// PayloadSize returns the usable bytes per message (slot minus header byte).
func (ch *Channel) PayloadSize() int { return ch.cfg.MsgSize - 1 }

// position is an endpoint's place in the ring, advanced one message at a
// time so that no slot address or epoch needs a division by the (runtime)
// ring size: the slot that absolute message index idx maps to, idx mod
// Slots, and the epoch bit a fresh message there carries. Pool memory starts
// zeroed, so wrap 0 writes epoch 1.
type position struct {
	slot  int
	epoch byte
}

func startPosition() position { return position{epoch: epochBit} }

// advance moves to the next message index.
func (ps *position) advance(slots int) {
	ps.slot++
	if ps.slot == slots {
		ps.slot, ps.epoch = 0, ps.epoch^epochBit
	}
}

// addr returns the pool address of the position's slot.
func (ch *Channel) addr(ps position) int64 {
	return ch.ringBase + int64(ps.slot*ch.cfg.MsgSize)
}

// ringLine returns the ring line (0 ≤ i < ringLines) that absolute line l
// maps to, given that absolute line ref maps to ring line refLine. The lines
// an endpoint touches lie within a prefetch window of its own position, so
// this is a subtraction or two rather than a division.
func (ch *Channel) ringLine(l, ref int64, refLine int) int64 {
	i := int64(refLine) + l - ref
	for i < 0 {
		i += ch.ringLines
	}
	for i >= ch.ringLines {
		i -= ch.ringLines
	}
	return i
}

// Sender is the producing endpoint. The sender is the ring's only writer, so
// it keeps a private shadow of the ring contents and pushes whole lines to
// the pool with CLWB — after filling a line under load, or explicitly via
// Flush when the send rate is low (§3.2.2). Stores are modelled at
// store-buffer cost: the read-for-ownership of a line the sender itself
// wrote one wrap ago is hidden on real cores and carries no information.
//
// The shadow is a table of shadowChunk-byte chunks, each allocated zeroed on
// the first store into it, and the table itself is made on the sender's
// first store, so a channel that never carries a message costs neither a
// ring-sized copy nor the table. It stays a full copy of the ring, never a
// one-line buffer refilled from the pool: the previous wrap's posted write
// of a line may still be in flight, and a partial flush over a stale refill
// would publish wrap w−2's bytes, whose epoch bit matches the current
// wrap's.
type Sender struct {
	ch   *Channel
	port *cxl.Port
	// The CPU-side costs a sender charges: a store, a CLWB, and the
	// CLFLUSHOPT + MFENCE before a counter refresh.
	storeLat, wbIssue, refreshIssue sim.Duration

	head           int64    // next absolute index to write
	headPos        position // head's slot and epoch
	cachedConsumed int64    // sender's view of the receiver's counter
	flushedThrough int64    // messages pushed to the pool (CLWBed)

	shadow []*[shadowChunk]byte // private copy of ring contents, nil until the first store; see shadowAt
	dirty  *int                 // counts the sender while it is Unflushed, if set (see Tally)

	// The position of a send or flush in progress (see Step): what the leg in
	// progress pays for.
	pc     senderPC
	ok     bool   // the last send was accepted
	msg    []byte // a copy of the message being sent, made on the first send
	wbLine int64  // senderWriteback: ring line being CLWBed

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
	return &Sender{
		ch:           ch,
		port:         port,
		storeLat:     costs.StoreLatency,
		wbIssue:      costs.WritebackIssue,
		refreshIssue: costs.FlushIssue + costs.FenceLatency,
		headPos:      startPosition(),
	}
}

// shadowAt returns the n shadow bytes at ring offset off, which lie in one
// chunk; the table and the chunk are allocated zeroed on first use.
func (s *Sender) shadowAt(off, n int) []byte {
	if s.shadow == nil {
		ring := s.ch.cfg.Slots * s.ch.cfg.MsgSize
		s.shadow = make([]*[shadowChunk]byte, (ring+shadowChunk-1)/shadowChunk)
	}
	c := s.shadow[off/shadowChunk]
	if c == nil {
		c = new([shadowChunk]byte)
		s.shadow[off/shadowChunk] = c
	}
	off %= shadowChunk
	return c[off : off+n]
}

// senderPC says where a send or flush is: what comes next, or what the leg
// in progress pays for.
type senderPC uint8

const (
	senderSend      senderPC = iota // BeginSend: check for room
	senderFetch                     // counter invalidated and fenced: fetch it
	senderCollect                   // counter line arriving
	senderStore                     // room: store the message
	senderStored                    // the store retiring
	senderFlush                     // BeginFlush: push the partial line, if any
	senderWriteback                 // CLWB of ring line wbLine issued
	senderDone                      // over
)

// BeginSend starts a send of payload, at most PayloadSize bytes, to be
// stepped from its first Step (see Step); Accepted then reports the outcome.
// It copies payload, so the caller's buffer stays its own (and on its stack).
func (s *Sender) BeginSend(payload []byte) {
	if len(payload) > s.ch.PayloadSize() {
		panic(fmt.Sprintf("msgchan: payload %d bytes exceeds slot payload %d", len(payload), s.ch.PayloadSize()))
	}
	if s.msg == nil {
		s.msg = make([]byte, 0, s.ch.PayloadSize())
	}
	s.msg, s.pc = append(s.msg[:0], payload...), senderSend
}

// BeginFlush starts a Flush, to be stepped from its first Step.
func (s *Sender) BeginFlush() { s.pc = senderFlush }

// Accepted reports whether the send that has just ended was accepted.
func (s *Sender) Accepted() bool { return s.ok }

// Message returns the payload of the send begun last.
func (s *Sender) Message() []byte { return s.msg }

// Engine returns the engine the sender's pool runs on.
func (s *Sender) Engine() *sim.Engine { return s.port.Pool().Engine() }

// Step implements sim.Stepper for a send or flush begun by BeginSend or
// BeginFlush: it runs it from where it is to the start of its next leg, in
// the order TrySend and Flush have always made their effects and sleeps:
// when the ring looks full, refresh the consumed counter (CLFLUSHOPT +
// MFENCE, then a CXL fetch, §4) and give up if it still is; store the
// message into the shadow ring and pay the store; when that filled a line,
// or on a flush, CLWB the lines not yet pushed. A sender has one user, so it
// is its own stepper.
func (s *Sender) Step() (sim.Duration, bool) {
	for {
		switch s.pc {
		case senderSend:
			s.pc = senderStore
			if int(s.head-s.cachedConsumed) >= s.ch.cfg.Slots {
				s.pc = senderFetch
				return s.refreshIssue, true
			}
		case senderFetch:
			arrival := s.port.FetchLine(s.ch.counterAddr, s.ch.cfg.Category)
			s.pc = senderCollect
			if wait := arrival - s.Engine().Now(); wait > 0 {
				return wait, true
			}
		case senderCollect:
			var line [cxl.LineSize]byte
			s.port.CollectLine(s.ch.counterAddr, line[:])
			s.cachedConsumed = int64(binary.LittleEndian.Uint64(line[:8]))
			s.CounterReads++
			s.pc = senderStore
			if int(s.head-s.cachedConsumed) >= s.ch.cfg.Slots {
				s.FullStalls++
				s.ok, s.pc = false, senderDone
			}
		case senderStore:
			slot := s.shadowAt(s.headPos.slot*s.ch.cfg.MsgSize, s.ch.cfg.MsgSize)
			clear(slot)
			slot[0] = s.headPos.epoch
			copy(slot[1:], s.msg)
			s.pc = senderStored
			return s.storeLat, true
		case senderStored:
			if s.dirty != nil && s.flushedThrough == s.head {
				*s.dirty++
			}
			s.head++
			s.headPos.advance(s.ch.cfg.Slots)
			s.Sent++
			s.ok, s.pc = true, senderDone
			// Filled the last slot of a line: CLWB it.
			if s.headPos.slot&(s.ch.slotsPerLine-1) == 0 {
				if d, more := s.writebackHead(); more {
					return d, true
				}
			}
		case senderFlush:
			s.pc = senderDone
			if s.Unflushed() {
				s.PartialFlushes++
				if d, more := s.writebackHead(); more {
					return d, true
				}
			}
		case senderWriteback:
			off := int(s.ch.ringLine(s.wbLine, s.lastLine(), s.lastLineRing())) * cxl.LineSize
			s.wrote(s.port.WriteLine(s.ch.ringBase+int64(off), s.shadowAt(off, cxl.LineSize), s.ch.cfg.Category))
			s.LinesWritten++
			// head stands still while its lines are pushed: one user.
			if s.wbLine < s.lastLine() {
				s.wbLine++
				return s.wbIssue, true
			}
			s.flushed()
			s.pc = senderDone
		default:
			return 0, false
		}
	}
}

// TrySend writes one message. payload must be at most PayloadSize bytes.
// It returns false (after refreshing the consumed counter) when the ring is
// full; the caller decides whether to retry, back off, or drop.
func (s *Sender) TrySend(p *sim.Proc, payload []byte) bool {
	s.BeginSend(payload)
	p.Steps(s)
	return s.ok
}

// Flush pushes any partially-filled line to the pool (CLWB). Drivers call it
// when their send queue drains, which makes messages visible promptly at low
// rates without paying a per-message CLWB under load.
func (s *Sender) Flush(p *sim.Proc) {
	if s.Unflushed() {
		s.BeginFlush()
		p.Steps(s)
	}
}

// Unflushed reports whether Flush would push anything: messages have been
// stored since the last line went to the pool.
func (s *Sender) Unflushed() bool { return s.flushedThrough < s.head }

// Tally makes *n count the sender while it is Unflushed, from now on: one is
// added when a store makes it so and taken away when its lines are pushed,
// at the instants Unflushed changes, and one at once if it is. A sender
// counts toward one tally; a second panics.
func (s *Sender) Tally(n *int) {
	if s.dirty != nil {
		panic("msgchan: a sender already counts toward a tally")
	}
	if s.dirty = n; s.Unflushed() {
		*n++
	}
}

// flushed marks every message stored so far pushed.
func (s *Sender) flushed() {
	if s.dirty != nil && s.Unflushed() {
		*s.dirty--
	}
	s.flushedThrough = s.head
}

// lastLine returns the absolute line of the last message stored, head-1.
func (s *Sender) lastLine() int64 { return (s.head - 1) >> s.ch.lineShift }

// lastLineRing returns the ring line of the last message stored.
func (s *Sender) lastLineRing() int {
	slot := s.headPos.slot - 1
	if slot < 0 {
		slot += s.ch.cfg.Slots
	}
	return slot >> s.ch.lineShift
}

// writebackHead starts the CLWB of every line containing messages in
// [flushedThrough, head) and returns its first leg; with no such line it
// marks them pushed at once.
func (s *Sender) writebackHead() (sim.Duration, bool) {
	s.wbLine = s.flushedThrough >> s.ch.lineShift
	if s.wbLine > s.lastLine() {
		s.flushed()
		return 0, false
	}
	s.pc = senderWriteback
	return s.wbIssue, true
}

// Receiver is the consuming endpoint, reading through its host's cache with
// the configured design's coherence strategy.
//
// The fields are ordered so that those an idle ring's batched fetch and poll
// touch (LoadAheadIn, PollFetched) come first and share lines.
type Receiver struct {
	ch    *Channel
	cache *cache.Cache

	tail              int64    // next absolute index to read
	tailPos           position // tail's slot and epoch
	pendingConsumed   int      // messages consumed since last counter update
	highestPrefetched int64    // highest absolute line index prefetch was issued for

	// How a poll is loaded ahead and closed (see LoadAhead and DeferredCost).
	aheadAt   sim.Duration // when the load ahead lands
	ahead     aheadLoad    // how the next poll's slot line was loaded ahead
	fetchable bool         // LoadAhead may fetch an idle tail line without caching it
	uncached  bool         // the last poll was such a fetch and found nothing: no line to drop
	deferred  bool         // an empty poll left lines nextLine..lastLine to invalidate

	// Poll's position in its stepped sleep (see Step). A receiver has one
	// consumer, so it is its own stepper.
	pc    recvPC
	fresh bool // the slot read held a fresh message

	// Stats.
	Received       int64
	EmptyPolls     int64
	CounterUpdates int64
	Fetched        int64 // empty polls answered from a pass's batched fetch (PollFetched), of EmptyPolls

	// The rest of Step's position.
	ctr      [8]byte // consumed counter being stored
	nextLine int64   // recvPrefetch: absolute ring line the leg pays for; an empty poll: the run's first line
	lastLine int64   // final line of that run

	costs   cache.Params
	slotBuf []byte
}

// aheadLoad says how LoadAhead loaded the slot line the next poll reads.
type aheadLoad uint8

const (
	aheadNone    aheadLoad = iota // not at all: the poll issues its own read
	aheadLoaded                   // a cache fill, collected by the poll
	aheadFetched                  // a port fetch, the line kept only if it holds a message
)

// NewReceiver returns the consuming endpoint reading through c.
func NewReceiver(ch *Channel, c *cache.Cache) *Receiver {
	return &Receiver{ch: ch, cache: c, costs: c.Params(), slotBuf: make([]byte, ch.cfg.MsgSize),
		tailPos: startPosition(), highestPrefetched: -1,
		// The shortcut must end as the cached path would: with no line left
		// once the pass's flush run has passed, and with no line for a Back
		// Invalidation to cancel. OASIS_SIMCHECK=1 takes the cached path,
		// so the digests check the one against the other.
		fetchable: ch.cfg.Design == DesignInvalidatePrefetched && !c.Port().Pool().Params().HWCoherent && !sim.Checking()}
}

// slotAddr returns the pool address of the tail's slot.
func (r *Receiver) slotAddr() int64 { return r.ch.addr(r.tailPos) }

// tailLine returns the absolute line index of the tail.
func (r *Receiver) tailLine() int64 { return r.tail >> r.ch.lineShift }

// lineAddr returns the pool address of absolute line l, at or near the
// tail's line.
func (r *Receiver) lineAddr(l int64) int64 {
	i := r.ch.ringLine(l, r.tailLine(), r.tailPos.slot>>r.ch.lineShift)
	return r.ch.ringBase + i*cxl.LineSize
}

// Poll attempts to consume one message, advancing p's time per the design's
// cost model. On success it returns the payload (PayloadSize bytes, valid
// until the next Poll).
//
// Poll is a pass over this one receiver (see Lone), one stepped sleep whose
// first step p makes, as a pass's: an empty poll of design ④ — read miss,
// then the CLFLUSHOPT run and the MFENCE as one closing leg — resumes p once.
func (r *Receiver) Poll(p *sim.Proc) ([]byte, bool) {
	j := r.Lone()
	for {
		if d, more := j.Step(); more {
			p.SleepSteps(d, j)
		}
		if !r.Blocked() {
			break
		}
		r.Finish(p)
	}
	payload := r.Payload()
	return payload, payload != nil
}

// Engine returns the engine the receiver's cache runs on.
func (r *Receiver) Engine() *sim.Engine { return r.cache.Port().Pool().Engine() }

// Begin starts a poll: the next Step is its first. An empty poll of designs
// ②–④ leaves its CLFLUSHOPT run and the fence to the caller (DeferredCost,
// FlushDeferred): a core polling N rings issues every run and fences once.
func (r *Receiver) Begin() { r.pc = recvStart }

// Lone begins a poll of r by itself: its steps, then the closing leg a pass
// over r alone would take — the CLFLUSHOPT run its empty poll left and the
// MFENCE, at whose end the lines are dropped. Where the steps stop short,
// r's Blocked and Finish take over, and Payload reads the result.
func (r *Receiver) Lone() sim.Stepper {
	r.Begin()
	return (*lonePoll)(r)
}

// lonePoll is a receiver polled by itself (see Lone).
type lonePoll Receiver

func (j *lonePoll) Step() (sim.Duration, bool) {
	r := (*Receiver)(j)
	if r.pc == recvClose {
		r.FlushDeferred()
		r.pc = recvDone
		return 0, false
	}
	if d, more := r.Step(); more || r.Blocked() {
		return d, more
	}
	if run := r.DeferredCost(); run > 0 {
		r.pc = recvClose
		return run + r.costs.FenceLatency, true
	}
	return 0, false
}

// LoadAhead starts the load of the tail's slot line ahead of the next poll,
// for a caller that polls several receivers in a row: their loads are
// independent, so a core issues them all before it waits on any. It returns
// when the line lands, or 0 when it loads nothing. The load is a miss now
// (cache.Cache.LoadAhead) and the poll collects it without a second count,
// waiting only for what is left of its fill. Design ① invalidates the line
// before every read, so it loads nothing ahead.
//
// An idle design-④ ring — tail line absent, no line prefetched past it —
// almost always finds nothing, and its empty poll would drop the line again,
// so the line is fetched through the port without being cached
// (cache.Cache.FetchAhead) and installed only if the slot holds a message.
func (r *Receiver) LoadAhead() sim.Duration { return r.loadAhead(nil) }

// LoadAheadIn is LoadAhead for a pass that books its idle rings' fetches as
// one run: the fetch of an idle design-④ ring goes on f (cache.FetchRun)
// and leaves the receiver as LoadAhead's would; any other ring ends f, so
// that its own load books the port after the run's lines, and loads as
// LoadAhead does. The caller ends f.
func (r *Receiver) LoadAheadIn(f *cache.FetchRun) sim.Duration { return r.loadAhead(f) }

// loadAhead is LoadAhead, booking an idle ring's fetch on f if there is one.
// Only design ④ is fetchable, so the fetch is decided before the design's
// own test.
func (r *Receiver) loadAhead(f *cache.FetchRun) sim.Duration {
	c, cfg := r.cache, &r.ch.cfg
	if r.fetchable && r.highestPrefetched <= r.tailLine() && !c.Contains(r.slotAddr()) {
		if f != nil {
			if !f.Joins(c, r.ch.load, cfg.Category) {
				f.Begin(c, r.ch.load, cfg.Category)
			}
			r.aheadAt = f.Fetch()
		} else {
			r.aheadAt = c.FetchAhead(r.slotAddr(), cfg.Category)
		}
		r.ahead = aheadFetched
		return r.aheadAt
	}
	if cfg.Design == DesignBypassCache {
		return 0
	}
	if f != nil {
		f.End() // the load below may book the port: the run's lines go first
	}
	addr := r.slotAddr()
	if at, ok := c.LoadAhead(addr, cfg.Category); ok {
		r.ahead, r.aheadAt = aheadLoaded, at
		return at
	}
	return 0
}

// PollFetched is a poll, begun and over, of a ring whose tail line was
// fetched ahead without being cached, when that poll is empty and owes no
// counter update: it reads only the slot's epoch byte. Where that says
// stale, it makes the poll's effects and its share of the closing run's —
// EmptyPolls, and FlushDeferred's, which for an uncached fetch drops no line
// and leaves no line prefetched past the tail — and returns the CLFLUSHOPT
// the run owes the ring, with ok. Nothing reads the fields FlushDeferred
// would set before the run is over but the ring's next poll, so setting them
// now is the same. Otherwise it changes nothing, and the ring is polled as
// any other (Begin, Step), from the state LoadAhead left. (A ring fetched
// uncached has had an empty poll since its last message, which published
// its counter; the test of pendingConsumed keeps that precondition here.)
func (r *Receiver) PollFetched() (run sim.Duration, ok bool) {
	if r.ahead != aheadFetched || r.pendingConsumed != 0 || r.ch.pool.PeekByte(r.slotAddr())&epochBit == r.tailPos.epoch {
		return 0, false
	}
	r.ahead, r.pc, r.fresh = aheadNone, recvDone, false
	r.EmptyPolls++
	r.Fetched++
	r.highestPrefetched = r.tailLine()
	return r.costs.FlushIssue, true
}

// Watch makes the ring report to w from now on (see Watch), and reports
// whether every line its sender has written so far has landed before now.
// A ring reports to one watch: one that reported to another counts there
// once more, so that whatever relied on that one sees a change.
func (r *Receiver) Watch(w *Watch) (landed bool) {
	if old := r.ch.watch; old != w {
		if old != nil {
			old.count++
		}
		r.ch.watch = w
	}
	return r.ch.landed < r.Engine().Now()
}

// State renders what a later poll, pass or caller reads of the receiver
// between polls: its position, how its next poll was loaded ahead, the run
// its last empty poll left, and its counters but Fetched, which says only
// which path answered the empty polls. A reference that polls by other
// paths compares it.
func (r *Receiver) State() string {
	b := fmt.Sprintf("tail %d slot %d epoch %d pending %d prefetched %d pc %d fresh %v uncached %v ahead %d",
		r.tail, r.tailPos.slot, r.tailPos.epoch, r.pendingConsumed, r.highestPrefetched, r.pc, r.fresh, r.uncached, r.ahead)
	if r.ahead != aheadNone {
		b += fmt.Sprintf("@%d", r.aheadAt)
	}
	if r.deferred {
		b += fmt.Sprintf(" deferred %d..%d", r.nextLine, r.lastLine)
	}
	return b + fmt.Sprintf(" rx %d empty %d counter %d", r.Received, r.EmptyPolls, r.CounterUpdates)
}

// Refetched leaves the receiver as LoadAheadIn leaves an idle design-④ ring
// whose fetch arrives at at: for a caller that booked the ring's line on a
// run of its own (cache.Rerun) and now polls it.
func (r *Receiver) Refetched(at sim.Duration) { r.ahead, r.aheadAt = aheadFetched, at }

// AddFetched counts n empty polls answered from a batched fetch that were
// made without PollFetched: a caller that repeated such polls of an
// unchanged ring.
func (r *Receiver) AddFetched(n int64) {
	r.EmptyPolls += n
	r.Fetched += n
}

// DeferredCost returns the CLFLUSHOPT issue time of the lines the last poll
// left to invalidate: FlushIssue a line, 0 when it left none.
func (r *Receiver) DeferredCost() sim.Duration {
	if !r.deferred {
		return 0
	}
	return r.costs.FlushIssue * sim.Duration(r.lastLine-r.nextLine+1)
}

// FenceLatency returns the MFENCE that orders a deferred run: a pass owes
// one for all its receivers' runs, a lone poll one for its own.
func (r *Receiver) FenceLatency() sim.Duration { return r.costs.FenceLatency }

// FlushDeferred invalidates the lines DeferredCost charged for, once the
// caller has slept their CLFLUSHOPTs and the fence. After an empty poll of
// an uncached fetch the run is the absent tail line alone, and there is
// nothing to drop.
func (r *Receiver) FlushDeferred() {
	if !r.deferred {
		return
	}
	r.deferred = false
	if r.uncached {
		r.uncached, r.nextLine = false, r.lastLine+1
	}
	for ; r.nextLine <= r.lastLine; r.nextLine++ {
		r.cache.FlushLineNow(r.lineAddr(r.nextLine), r.ch.cfg.Category)
	}
	if r.ch.cfg.Design == DesignInvalidatePrefetched {
		r.highestPrefetched = r.tailLine()
	}
}

// Blocked implements sim.Job: once Step has returned more == false, it
// reports that the poll stopped at one of the two things a Step cannot do —
// refetching a slot line that vanished under its fill, storing to a counter
// line that has a fill in flight.
func (r *Receiver) Blocked() bool { return r.pc == recvRefill || r.pc == recvCounterBlocked }

// Payload returns, once the poll is over, the message it found (PayloadSize
// bytes, valid until the next poll), or nil when it found none.
func (r *Receiver) Payload() []byte {
	if r.Blocked() || !r.fresh {
		return nil
	}
	return r.slotBuf[1:]
}

// Finish implements sim.Job: it does what the poll stopped at, blocking p;
// the poll then goes on with Step.
func (r *Receiver) Finish(p *sim.Proc) {
	switch r.pc {
	case recvRefill:
		r.cache.ReadRefill(p, r.slotAddr(), r.slotBuf, r.ch.cfg.Category)
		r.pc = recvCheck
	case recvCounterBlocked:
		r.cache.Write(p, r.ch.counterAddr, r.ctr[:], r.ch.cfg.Category)
		r.cache.WritebackLine(p, r.ch.counterAddr, r.ch.cfg.Category)
		r.pc = recvCounterDone
	}
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
	recvPrefetch                     // fresh: PREFETCHT0 of ring line nextLine issued
	recvPrefetched                   // prefetch window topped up
	recvConsumedFlush                // ③④ CLFLUSHOPT of the fully consumed line issued
	recvDone                         // last leg in progress, or nothing left
	recvClose                        // a lone poll's closing leg in progress (see Lone)
	recvRefill                       // Finish must refetch the slot line (blocking)
	recvCounterBlocked               // Finish must store the counter (blocking)
)

// Step implements sim.Stepper: it runs the poll forward from r.pc to the
// start of its next leg. Effects and legs come in exactly the order the
// blocking cache methods would produce them.
func (r *Receiver) Step() (sim.Duration, bool) {
	c, cfg := r.cache, &r.ch.cfg
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
			c.FlushLineNow(cxl.LineAddr(r.slotAddr()), cfg.Category)
			r.pc = recvIssue
			return r.costs.FenceLatency, true
		case recvIssue:
			r.pc = recvCollect
			if r.ahead == aheadLoaded && !c.Contains(r.slotAddr()) {
				r.ahead = aheadNone // the fill went away: the poll reads anew
			}
			if r.ahead != aheadNone {
				// Loaded ahead, and counted then: wait for the rest of the fill.
				if wait := r.aheadAt - r.Engine().Now(); wait > 0 {
					return wait, true
				}
				continue
			}
			if wait, hit := c.ReadIssue(r.slotAddr(), cfg.Category); hit || wait > 0 {
				return wait, true
			}
		case recvCollect:
			r.pc = recvCheck
			if r.ahead == aheadFetched {
				c.CollectFetched(r.slotAddr(), r.slotBuf)
				continue
			}
			if !c.ReadCollect(r.slotAddr(), r.slotBuf) {
				r.pc = recvRefill
				return 0, false
			}
		case recvCheck:
			r.fresh = r.slotBuf[0]&epochBit == r.tailPos.epoch
			if r.ahead == aheadFetched {
				if r.uncached = !r.fresh; r.fresh {
					c.KeepFetched(r.slotAddr())
				}
			}
			r.ahead = aheadNone
			owed := false
			if r.fresh {
				r.tail++
				r.tailPos.advance(cfg.Slots)
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
			cur := r.tailLine()
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
				// during the next burst. The tail line goes even when no
				// prefetch has reached it yet.
				r.nextLine, r.lastLine = cur, max(cur, r.highestPrefetched)
			}
			// The run and its fence are the caller's closing leg.
			r.pc, r.deferred = recvDone, true
			return 0, false
		case recvPrefetch:
			c.PrefetchNow(r.lineAddr(r.nextLine), cfg.Category)
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
			if (cfg.Design == DesignInvalidateConsumed || cfg.Design == DesignInvalidatePrefetched) && r.tailPos.slot&(r.ch.slotsPerLine-1) == 0 {
				r.pc = recvConsumedFlush
				return r.costs.FlushIssue, true
			}
		case recvConsumedFlush:
			c.FlushLineNow(r.lineAddr(r.tailLine()-1), cfg.Category)
			r.pc = recvDone
		default: // recvDone, recvClose and the states Finish handles
			return 0, false
		}
	}
}
