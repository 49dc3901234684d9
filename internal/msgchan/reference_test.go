package msgchan

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"time"

	"oasis/internal/cache"
	"oasis/internal/cxl"
	"oasis/internal/sim"
)

// The endpoints' stepped sleeps must be the blocking cache calls they
// replaced, instruction for instruction. These are those calls, kept as the
// reference the steppers are compared against: one p.Sleep per instruction,
// through the blocking cache methods.

// The division formulas the endpoints' tracked positions replaced; the
// references below and TestPositionMatchesDivision use them.

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

// absLine returns the absolute line index of absolute message index idx.
func (r *Receiver) absLine(idx int64) int64 { return idx / int64(r.ch.slotsPerLine) }

// lineAddrOf returns the pool address of the line holding message idx.
func (r *Receiver) lineAddrOf(idx int64) int64 {
	return cxl.LineAddr(r.ch.slotAddr(idx))
}

func refPoll(r *Receiver, p *sim.Proc) ([]byte, bool) {
	cfg := r.ch.cfg
	if cfg.Design == DesignBypassCache {
		r.cache.FlushLine(p, r.lineAddrOf(r.tail), cfg.Category)
		r.cache.Fence(p)
	}
	slot := r.slotBuf
	r.cache.Read(p, r.ch.slotAddr(r.tail), slot, cfg.Category)
	if slot[0]&epochBit != r.ch.slotEpoch(r.tail) {
		r.EmptyPolls++
		if r.pendingConsumed > 0 {
			refUpdateCounter(r, p)
		}
		// The flush run and the fence are one closing leg, FlushIssue per
		// line — CLFLUSHOPTs are unordered until the fence — plus one MFENCE,
		// that drops its lines when it ends.
		var run []int64
		switch cfg.Design {
		case DesignNaivePrefetch, DesignInvalidateConsumed:
			run = []int64{r.lineAddrOf(r.tail)}
		case DesignInvalidatePrefetched:
			run = []int64{r.lineAddrOf(r.tail)}
			for l := r.absLine(r.tail) + 1; l <= r.highestPrefetched; l++ {
				run = append(run, r.lineAddrOf(l*int64(r.ch.slotsPerLine)))
			}
		}
		if len(run) > 0 {
			p.Sleep(r.costs.FlushIssue*sim.Duration(len(run)) + r.costs.FenceLatency)
			for _, a := range run {
				r.cache.FlushLineNow(a, cfg.Category)
			}
			if cfg.Design == DesignInvalidatePrefetched {
				r.highestPrefetched = r.absLine(r.tail)
			}
		}
		return nil, false
	}
	msgIdx := r.tail
	r.tail++
	r.Received++
	r.pendingConsumed++
	if r.pendingConsumed >= cfg.CounterBatch {
		refUpdateCounter(r, p)
	}
	if cfg.Design != DesignBypassCache {
		cur := r.absLine(r.tail)
		from := r.highestPrefetched + 1
		if from < cur+1 {
			from = cur + 1
		}
		to := cur + int64(cfg.PrefetchDepth)
		for l := from; l <= to; l++ {
			r.cache.Prefetch(p, r.ch.slotAddr(l*int64(r.ch.slotsPerLine)), cfg.Category)
		}
		if to > r.highestPrefetched {
			r.highestPrefetched = to
		}
	}
	if (cfg.Design == DesignInvalidateConsumed || cfg.Design == DesignInvalidatePrefetched) &&
		r.tail%int64(r.ch.slotsPerLine) == 0 {
		r.cache.FlushLine(p, r.lineAddrOf(msgIdx), cfg.Category)
	}
	return slot[1:], true
}

func refUpdateCounter(r *Receiver, p *sim.Proc) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(r.tail))
	r.cache.Write(p, r.ch.counterAddr, buf[:], r.ch.cfg.Category)
	r.cache.WritebackLine(p, r.ch.counterAddr, r.ch.cfg.Category)
	r.pendingConsumed = 0
	r.CounterUpdates++
}

func refRefreshConsumed(s *Sender, p *sim.Proc) {
	p.Sleep(s.refreshIssue)
	arrival := s.port.FetchLine(s.ch.counterAddr, s.ch.cfg.Category)
	if wait := arrival - p.Now(); wait > 0 {
		p.Sleep(wait)
	}
	var line [cxl.LineSize]byte
	s.port.CollectLine(s.ch.counterAddr, line[:])
	s.cachedConsumed = int64(binary.LittleEndian.Uint64(line[:8]))
	s.CounterReads++
}

// refSender drives a Sender through the reference calls. It stores
// messages into a flat copy of the whole ring of its own, so the sender's
// chunked shadow is checked against the plain array it stands for.
type refSender struct {
	*Sender
	ring []byte
}

func newRefSender(s *Sender) *refSender {
	return &refSender{Sender: s, ring: make([]byte, s.ch.cfg.Slots*s.ch.cfg.MsgSize)}
}

func refWritebackThrough(s *refSender, p *sim.Proc, through int64) {
	spl := int64(s.ch.slotsPerLine)
	for l := s.flushedThrough / spl; l <= (through-1)/spl; l++ {
		idx := l * spl
		off := int(idx%int64(s.ch.cfg.Slots)) * s.ch.cfg.MsgSize
		p.Sleep(s.wbIssue)
		s.port.WriteLine(cxl.LineAddr(s.ch.slotAddr(idx)), s.ring[off:off+cxl.LineSize], s.ch.cfg.Category)
		s.LinesWritten++
	}
	s.flushedThrough = through
}

func refTrySend(s *refSender, p *sim.Proc, payload []byte) bool {
	if int(s.head-s.cachedConsumed) >= s.ch.cfg.Slots {
		refRefreshConsumed(s.Sender, p)
		if int(s.head-s.cachedConsumed) >= s.ch.cfg.Slots {
			s.FullStalls++
			return false
		}
	}
	off := int(s.head%int64(s.ch.cfg.Slots)) * s.ch.cfg.MsgSize
	slot := s.ring[off : off+s.ch.cfg.MsgSize]
	for i := range slot {
		slot[i] = 0
	}
	slot[0] = s.ch.slotEpoch(s.head)
	copy(slot[1:], payload)
	p.Sleep(s.storeLat)
	s.head++
	s.Sent++
	if s.head%int64(s.ch.slotsPerLine) == 0 {
		refWritebackThrough(s, p, s.head)
	}
	return true
}

func refFlush(s *refSender, p *sim.Proc) {
	if s.flushedThrough < s.head {
		s.PartialFlushes++
		refWritebackThrough(s, p, s.head)
	}
}

// runChannelProgram drives one seeded program over a channel — a bursty
// sender, a polling receiver, and a disturber that keeps knocking the
// receiver's lines out from under it — through the endpoints' own methods or
// through the reference calls, and returns everything observable: each
// poll's time and result, each send's time, the final counters, and the
// channel region's pool bytes: hashed at every burst end, whole at the end.
func runChannelProgram(t *testing.T, row channelRow, design Design, seed int64, reference bool) string {
	t.Helper()
	cfg := row.cfg
	cfg.Design = design
	eng := sim.New()
	pp := cxl.DefaultParams()
	pp.HWCoherent = design == DesignHWCoherent
	pool := cxl.NewPool(eng, 1<<20, pp)
	region, err := pool.Alloc(RegionBytes(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(region, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rxCache := cache.New(eng, pool.AttachPort("receiver"), cache.DefaultParams())
	tx := NewSender(ch, pool.AttachPort("sender"), cache.DefaultParams())
	ref := newRefSender(tx)
	rx := NewReceiver(ch, rxCache)

	var log strings.Builder
	total := row.total
	// The channel region's bytes as the receiver would find them now: the
	// receiver usually lags a whole line behind the sender, so a stale slot
	// published by a partial flush must show here, not only in the poll log.
	mem := make([]byte, region.Size)
	logPool := func(at sim.Duration) {
		pool.Peek(region.Base, mem)
		h := fnv.New64a()
		h.Write(mem)
		fmt.Fprintf(&log, "%d pool %x\n", at, h.Sum64())
	}
	eng.Go("tx", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, ch.PayloadSize())
		p.Sleep(row.txDelay)
		for i := 0; i < total; {
			// 8 to PayloadSize bytes: a short message must leave the rest
			// of a slot that held a longer one zeroed.
			payload := buf[:8+i%(len(buf)-7)]
			binary.LittleEndian.PutUint64(payload, uint64(i))
			for k := 8; k < len(payload); k++ {
				payload[k] = byte(i + k)
			}
			ok := false
			if reference {
				ok = refTrySend(ref, p, payload)
			} else {
				ok = tx.TrySend(p, payload)
			}
			fmt.Fprintf(&log, "%d send %d %v\n", p.Now(), i, ok)
			if !ok {
				p.Sleep(150 * time.Nanosecond)
				continue
			}
			i++
			if rng.Intn(6) == 0 { // end of a burst
				if reference {
					refFlush(ref, p)
				} else {
					tx.Flush(p)
				}
				p.Sleep(sim.Duration(rng.Intn(1500)) * time.Nanosecond)
				logPool(p.Now())
			}
		}
		if reference {
			refFlush(ref, p)
		} else {
			tx.Flush(p)
		}
	})
	received := 0
	eng.Go("rx", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(seed + 1))
		for received < total {
			var payload []byte
			var ok bool
			behind := rx.highestPrefetched < rx.tailLine()
			if reference {
				payload, ok = refPoll(rx, p)
			} else {
				payload, ok = rx.Poll(p)
			}
			fmt.Fprintf(&log, "%d poll %v %x\n", p.Now(), ok, payload)
			if row.txDelay > 0 && rx.Received+rx.EmptyPolls == 1 && (ok || !behind) {
				t.Fatalf("%s: the first poll found a message or a prefetch at the tail line", row.name)
			}
			if ok {
				if got := binary.LittleEndian.Uint64(payload); got != uint64(received) {
					t.Errorf("message %d carries %d", received, got)
				}
				received++
			}
			if rng.Intn(4) == 0 {
				p.Sleep(sim.Duration(rng.Intn(300)) * time.Nanosecond)
			}
		}
	})
	// The disturber plays every part that can take a line away mid-poll: a
	// device snoop or an eviction of the slot line under its fill, a fill in
	// flight on the counter line, a wholesale invalidation.
	rng := rand.New(rand.NewSource(seed + 2))
	var disturb func()
	disturb = func() {
		if received >= total {
			return
		}
		switch rng.Intn(5) {
		case 0, 1:
			rxCache.Snoop(ch.slotAddr(rx.tail), cfg.MsgSize, "snoop")
		case 2:
			rxCache.PrefetchNow(ch.counterAddr, cfg.Category)
		case 3:
			rxCache.FlushLineNow(ch.counterAddr, cfg.Category)
		case 4:
			rxCache.InvalidateAll()
		}
		eng.After(sim.Duration(20+rng.Intn(400))*time.Nanosecond, disturb)
	}
	eng.After(50*time.Nanosecond, disturb)
	eng.RunUntil(5 * time.Millisecond)
	eng.Shutdown()
	if received != total {
		t.Fatalf("design %v seed %d reference=%v: received %d of %d", design, seed, reference, received, total)
	}
	fmt.Fprintf(&log, "end %d rx %d/%d/%d tx %d/%d/%d/%d/%d cache %+v\n", eng.Now(),
		rx.Received, rx.EmptyPolls, rx.CounterUpdates,
		tx.Sent, tx.FullStalls, tx.CounterReads, tx.LinesWritten, tx.PartialFlushes, rxCache.Stats())
	// A 64 B message fills its line, so only smaller slots flush partially.
	if wraps := tx.Sent / int64(cfg.Slots); wraps < row.wraps || (tx.PartialFlushes == 0) != (cfg.MsgSize == cxl.LineSize) {
		t.Fatalf("%s: %d wraps, %d partial flushes; want at least %d wraps", row.name, wraps, tx.PartialFlushes, row.wraps)
	}
	pool.Peek(region.Base, mem)
	fmt.Fprintf(&log, "pool %x\n", mem)
	return log.String()
}

// channelRow is one channel shape the stepped endpoints are checked on.
type channelRow struct {
	name    string
	cfg     Config
	total   int          // messages sent
	wraps   int64        // ring wraps the program must reach
	txDelay sim.Duration // the sender's first send waits this long
}

var channelRows = []channelRow{
	{"16B", Config{Slots: 64, MsgSize: 16, PrefetchDepth: 4, CounterBatch: 8, Category: "message"}, 600, 9, 0},
	// 64 B × 256 and 32 B × 512 slots each span four 4 KiB chunks of the
	// sender's shadow; the 32 B ring also flushes partial lines, the last
	// one included (an odd total leaves the final line half new).
	{"64Bx4chunks", Config{Slots: 256, MsgSize: 64, PrefetchDepth: 4, CounterBatch: 32, Category: "message"}, 1000, 3, 0},
	{"32Bx4chunks", Config{Slots: 512, MsgSize: 32, PrefetchDepth: 4, CounterBatch: 64, Category: "message"}, 1801, 3, 0},
	// Three lines: a ring whose line count is no power of two, and a prefetch
	// window deeper than the ring.
	{"16Bx3lines", Config{Slots: 12, MsgSize: 16, PrefetchDepth: 4, CounterBatch: 4, Category: "message"}, 301, 9, 0},
	// The receiver starts polling an empty ring: its first empty poll has no
	// prefetch at or past the tail line, and must still flush that line.
	{"16BidleFirst", Config{Slots: 64, MsgSize: 16, PrefetchDepth: 4, CounterBatch: 8, Category: "message"}, 300, 4, 2 * time.Microsecond},
}

// Both endpoints against their references, for all five designs: same polls
// at the same virtual times with the same results, same sends, same final
// counters and pool bytes — including the polls whose slot line was snooped
// or evicted under its fill (ReadRefill) and the counter stores that met a
// fill in flight. The reference sender stores into a flat ring, so the rows
// also check the chunked shadow across wraps and partial flushes.
func TestSteppedEndpointsMatchBlockingReference(t *testing.T) {
	for d := DesignBypassCache; d <= DesignHWCoherent; d++ {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			for _, row := range channelRows {
				for seed := int64(1); seed <= 6; seed++ {
					want := runChannelProgram(t, row, d, seed, true)
					got := runChannelProgram(t, row, d, seed, false)
					if got != want {
						w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
						for i := range w {
							if i >= len(g) || w[i] != g[i] {
								t.Fatalf("%s seed %d: diverged at line %d of %d\nreference: %.300s\nstepped:   %.300s",
									row.name, seed, i, len(w), w[i], strings.Join(g[i:min(i+1, len(g))], ""))
							}
						}
						t.Fatalf("%s seed %d: stepped log is longer than the reference's", row.name, seed)
					}
				}
			}
		})
	}
}
