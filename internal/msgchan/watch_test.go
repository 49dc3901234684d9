package msgchan

import (
	"strings"
	"testing"

	"oasis/internal/cache"
	"oasis/internal/cxl"
	"oasis/internal/sim"
)

// A watch is read on the engine it is bound to; a ring's sender on another
// engine would race its reader, so the first line it writes to a watched
// ring panics, and a sender on the watch's own engine counts its lines.
func TestWatchRefusesSenderOnAnotherEngine(t *testing.T) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<20, cxl.DefaultParams())
	region, err := pool.Alloc(RegionBytes(DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(region, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSender(ch, pool.AttachPort("tx"), cache.DefaultParams())
	r := NewReceiver(ch, cache.New(eng, pool.AttachPort("rx"), cache.DefaultParams()))
	send := func() (panicked any) {
		defer func() { panicked = recover() }()
		s.BeginSend([]byte{1})
		for {
			if _, more := s.Step(); !more {
				break
			}
		}
		s.BeginFlush()
		for {
			if _, more := s.Step(); !more {
				break
			}
		}
		return nil
	}

	var w Watch
	w.Bind(eng)
	r.Watch(&w)
	if p := send(); p != nil || w.Count() != 1 {
		t.Fatalf("a sender on the watch's engine: panic %v, count %d; want none and 1", p, w.Count())
	}
	var other Watch
	other.Bind(sim.New())
	r.Watch(&other)
	if w.Count() != 2 {
		t.Fatalf("the ring left its watch for another and the first counted %d, want 2", w.Count())
	}
	p := send()
	if msg, _ := p.(string); !strings.Contains(msg, "another engine") {
		t.Fatalf("a sender writing to a ring watched on another engine: panic %v, want one naming the engines", p)
	}
}
