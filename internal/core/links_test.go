package core

import (
	"testing"
	"time"

	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/sim"
)

// tinyChan returns a 4-slot channel config: one cache line of 16 B slots,
// small enough to fill without a cooperating receiver.
func tinyChan() msgchan.Config {
	cfg := msgchan.DefaultConfig()
	cfg.Slots = 4
	return cfg
}

func TestLinkSetInsertionOrderAndDuplicates(t *testing.T) {
	s := NewLinkSet(DefaultPendingLimit)
	for _, peer := range []uint32{5, 1, 9} {
		s.Add(peer, nil)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	for i, want := range []uint32{5, 1, 9} {
		if s.All()[i].Peer != want {
			t.Fatalf("order[%d] = %d, want %d (insertion order)", i, s.All()[i].Peer, want)
		}
	}
	if s.Get(1).Peer != 1 || s.Get(7) != nil {
		t.Fatal("Get lookup broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate peer accepted")
		}
	}()
	s.Add(5, nil)
}

func TestSendOrQueueBackpressureAccounting(t *testing.T) {
	eng, pool := testPool()
	hA := host.New(eng, 0, "A", pool, host.DefaultConfig())
	hB := host.New(eng, 1, "B", pool, host.DefaultConfig())
	aEnd, bEnd, err := NewDuplexLink(pool, hA, hB, tinyChan())
	if err != nil {
		t.Fatal(err)
	}
	s := NewLinkSet(2) // backlogged beyond 2 parked messages
	l := s.Add(1, aEnd)
	eng.Go("test", func(p *sim.Proc) {
		// The 4-slot ring takes 4 messages; everything after parks.
		for i := byte(0); i < 8; i++ {
			l.SendOrQueue(p, []byte{i})
		}
		if l.Stats.Sent != 4 || l.Stats.SendFull == 0 {
			t.Errorf("sent=%d sendfull=%d, want 4 sent and >0 full", l.Stats.Sent, l.Stats.SendFull)
		}
		if l.PendingLen() != 4 || l.Stats.Deferred != 4 {
			t.Errorf("pending=%d deferred=%d, want 4/4", l.PendingLen(), l.Stats.Deferred)
		}
		if s.PendingCount() != 4 {
			t.Errorf("set pending count = %d", s.PendingCount())
		}
		// 4 parked > limit 2: backpressure is visible but nothing was dropped.
		if !l.Backlogged() || l.Stats.Overflow != 2 {
			t.Errorf("backlogged=%v overflow=%d, want true/2", l.Backlogged(), l.Stats.Overflow)
		}
		if l.Stats.PendingPeak != 4 {
			t.Errorf("pending peak = %d", l.Stats.PendingPeak)
		}
		// A full ring means DrainPending makes no progress and loses nothing.
		if n := s.DrainPending(p); n != 0 {
			t.Errorf("drained %d from a full ring", n)
		}
		// Peer drains the ring; the redrive then goes through in FIFO order.
		for i := byte(0); i < 4; i++ {
			msg, ok := bEnd.Poll(p)
			if !ok || msg[0] != i {
				t.Fatalf("ring msg %d: ok=%v got=%v", i, ok, msg[:1])
			}
		}
		if n := s.DrainPending(p); n != 4 {
			t.Errorf("redrove %d, want 4", n)
		}
		s.FlushAll(p)
		for i := byte(4); i < 8; i++ {
			msg, ok := bEnd.Poll(p)
			if !ok || msg[0] != i {
				t.Fatalf("redriven msg %d: ok=%v got=%v", i, ok, msg[:1])
			}
		}
		if l.PendingLen() != 0 || l.Backlogged() {
			t.Error("pending queue not empty after drain")
		}
		if l.Stats.Redrives != 4 || l.Stats.Sent != 8 {
			t.Errorf("redrives=%d sent=%d, want 4/8", l.Stats.Redrives, l.Stats.Sent)
		}
	})
	eng.Run()
}

func TestPollEachBurstAndStats(t *testing.T) {
	eng, pool := testPool()
	hA := host.New(eng, 0, "A", pool, host.DefaultConfig())
	hB := host.New(eng, 1, "B", pool, host.DefaultConfig())
	aEnd, bEnd, err := NewDuplexLink(pool, hA, hB, msgchan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewLinkSet(DefaultPendingLimit)
	l := s.Add(7, bEnd)
	eng.Go("test", func(p *sim.Proc) {
		for i := byte(0); i < 6; i++ {
			if !aEnd.Send(p, []byte{i}) {
				t.Fatalf("send %d failed", i)
			}
		}
		aEnd.Flush(p)
		var got []byte
		// Burst of 4 caps the first pass; a second pass drains the rest.
		n := s.PollEach(p, 4, func(_ *sim.Proc, pl *Link, payload []byte) {
			if pl != l {
				t.Error("handler got wrong link")
			}
			got = append(got, payload[0])
		})
		if n != 4 {
			t.Fatalf("first burst handled %d, want 4", n)
		}
		n = s.PollEach(p, 4, func(_ *sim.Proc, _ *Link, payload []byte) {
			got = append(got, payload[0])
		})
		if n != 2 {
			t.Fatalf("second burst handled %d, want 2", n)
		}
		for i, b := range got {
			if b != byte(i) {
				t.Fatalf("out of order: got %v", got)
			}
		}
		if l.Stats.Received != 6 {
			t.Errorf("received = %d", l.Stats.Received)
		}
		agg := s.Stats()
		if agg.Received != 6 {
			t.Errorf("aggregate received = %d", agg.Received)
		}
	})
	eng.Run()
}

func TestLinkSetRemove(t *testing.T) {
	eng, pool := testPool()
	hA := host.New(eng, 0, "A", pool, host.DefaultConfig())
	hB := host.New(eng, 1, "B", pool, host.DefaultConfig())
	s := NewLinkSet(DefaultPendingLimit)
	peerEnds := map[uint32]*LinkEnd{}
	for _, peer := range []uint32{5, 1, 9} {
		aEnd, bEnd, err := NewDuplexLink(pool, hA, hB, tinyChan())
		if err != nil {
			t.Fatal(err)
		}
		s.Add(peer, aEnd)
		peerEnds[peer] = bEnd
	}
	eng.Go("test", func(p *sim.Proc) {
		// Park messages on the middle link (4 fill its ring, 2 park) and one
		// on the last, then remove the middle.
		for i := byte(0); i < 6; i++ {
			s.Get(1).SendOrQueue(p, []byte{i})
		}
		for i := byte(0); i < 5; i++ {
			s.Get(9).SendOrQueue(p, []byte{i})
		}
		if s.PendingCount() != 3 {
			t.Fatalf("pending before remove = %d, want 3", s.PendingCount())
		}
		s.Remove(1)
		s.Remove(7) // unknown peer: no-op

		if s.Len() != 2 || s.Get(1) != nil {
			t.Fatalf("after remove: len=%d get(1)=%v", s.Len(), s.Get(1))
		}
		for i, want := range []uint32{5, 9} {
			if s.All()[i].Peer != want {
				t.Fatalf("order[%d] = %d, want %d (survivors keep insertion order)", i, s.All()[i].Peer, want)
			}
		}
		if s.PendingCount() != 1 {
			t.Errorf("pending after remove = %d, want 1 (the removed link's parked messages go with it)", s.PendingCount())
		}
		// PollEach and FlushAll walk the survivors, in order, and never the
		// removed link.
		for _, peer := range []uint32{5, 1, 9} {
			peerEnds[peer].Send(p, []byte{byte(peer)})
			peerEnds[peer].Flush(p)
		}
		var polled []uint32
		s.PollEach(p, 4, func(_ *sim.Proc, l *Link, payload []byte) {
			if uint32(payload[0]) != l.Peer {
				t.Errorf("link %d delivered peer %d's message", l.Peer, payload[0])
			}
			polled = append(polled, l.Peer)
		})
		if len(polled) != 2 || polled[0] != 5 || polled[1] != 9 {
			t.Errorf("polled %v, want [5 9]", polled)
		}
		s.Get(5).Send(p, []byte{42})
		s.FlushAll(p)
		if msg, ok := peerEnds[5].Poll(p); !ok || msg[0] != 42 {
			t.Errorf("survivor's message not flushed: ok=%v", ok)
		}
		// The peer id is free again.
		aEnd, _, err := NewDuplexLink(pool, hA, hB, tinyChan())
		if err != nil {
			t.Fatal(err)
		}
		if l := s.Add(1, aEnd); s.All()[2] != l {
			t.Error("re-added peer is not last in order")
		}
	})
	eng.Run()
}

// Remove while a pass over the set is suspended — the poll or flush of link 0
// sleeping — must leave the pass on the links it began with, each exactly
// once. Shifting the order slice in place made the pass skip link 1 and
// visit link 2 twice. The same holds for all three ways of making a pass:
// PollEach and FlushAll from a process, and a driver's poll stage in event
// context.
func TestLinkSetRemoveDuringPass(t *testing.T) {
	type rig struct {
		eng  *sim.Engine
		host *host.Host
		set  *LinkSet
		ends []*LinkEnd
	}
	build := func(t *testing.T) *rig {
		eng, pool := testPool()
		hA := host.New(eng, 0, "A", pool, host.DefaultConfig())
		hB := host.New(eng, 1, "B", pool, host.DefaultConfig())
		r := &rig{eng: eng, host: hA, set: NewLinkSet(DefaultPendingLimit)}
		for peer := uint32(0); peer < 3; peer++ {
			aEnd, _, err := NewDuplexLink(pool, hA, hB, msgchan.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			r.set.Add(peer, aEnd)
			r.ends = append(r.ends, aEnd)
		}
		return r
	}
	// removeSoon lands inside the first leg of whatever sleeps next.
	removeSoon := func(r *rig) { r.eng.After(time.Nanosecond, func() { r.set.Remove(0) }) }
	emptyPolls := func(r *rig) [3]int64 {
		return [3]int64{r.ends[0].In.EmptyPolls, r.ends[1].In.EmptyPolls, r.ends[2].In.EmptyPolls}
	}
	once := [3]int64{1, 1, 1}

	t.Run("PollEach", func(t *testing.T) {
		r := build(t)
		r.eng.Go("poller", func(p *sim.Proc) {
			removeSoon(r)
			r.set.PollEach(p, 4, func(*sim.Proc, *Link, []byte) {})
			if got := emptyPolls(r); got != once {
				t.Errorf("empty polls per link %v, want %v", got, once)
			}
			if r.set.Len() != 2 || r.set.Get(0) != nil {
				t.Errorf("link 0 not removed: len=%d", r.set.Len())
			}
			// The next pass is over the survivors only.
			r.set.PollEach(p, 4, func(*sim.Proc, *Link, []byte) {})
			if got, want := emptyPolls(r), [3]int64{1, 2, 2}; got != want {
				t.Errorf("after a second pass: empty polls per link %v, want %v", got, want)
			}
		})
		r.eng.Run()
	})
	t.Run("FlushAll", func(t *testing.T) {
		r := build(t)
		r.eng.Go("flusher", func(p *sim.Proc) {
			for _, l := range r.set.All() {
				l.Send(p, []byte{1})
			}
			removeSoon(r)
			r.set.FlushAll(p)
			for i, end := range r.ends {
				if end.Out.PartialFlushes != 1 {
					t.Errorf("link %d flushed %d times, want 1", i, end.Out.PartialFlushes)
				}
			}
		})
		r.eng.Run()
	})
	t.Run("poll stage", func(t *testing.T) {
		r := build(t)
		loop := &pollLoop{links: r.set}
		d := NewDriver(r.host, "driver", DriverConfig{LoopCost: 100 * time.Nanosecond})
		d.attach(loop.LoopName(), loop.stages())
		d.Start()
		removeSoon(r)
		for d.Iterations == 0 {
			r.eng.RunUntil(r.eng.Now() + 100*time.Nanosecond)
		}
		if got := emptyPolls(r); got != once {
			t.Errorf("empty polls per link after one iteration %v, want %v", got, once)
		}
		r.eng.Shutdown()
	})
}
