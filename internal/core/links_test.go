package core

import (
	"testing"

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
	s := NewLinkSet(2) // overflowing beyond 2 parked messages
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
		// 4 parked > limit 2: the overflow is counted but nothing was dropped.
		if l.Stats.Overflow != 2 {
			t.Errorf("overflow=%d, want 2", l.Stats.Overflow)
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
		if l.PendingLen() != 0 {
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
