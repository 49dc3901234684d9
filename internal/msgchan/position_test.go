package msgchan

import (
	"testing"

	"oasis/internal/cache"
	"oasis/internal/cxl"
	"oasis/internal/sim"
)

// TestPositionMatchesDivision advances the endpoints' tracked positions one
// message at a time over three wraps and requires, at every index, the slot,
// slot address and epoch bit the division formulas give, and the same ring
// line for every line a sender writes back or a receiver prefetches or
// flushes around that index — for rings of 1 to 2048 lines, some of them not
// a power of two lines or slots long.
func TestPositionMatchesDivision(t *testing.T) {
	for _, cfg := range []Config{
		{Slots: 4, MsgSize: 16, PrefetchDepth: 4},   // one line, prefetch wraps over it
		{Slots: 12, MsgSize: 16, PrefetchDepth: 4},  // three lines
		{Slots: 48, MsgSize: 8, PrefetchDepth: 16},  // six lines, 48 slots
		{Slots: 80, MsgSize: 64, PrefetchDepth: 16}, // one slot per line
		{Slots: 8192, MsgSize: 16, PrefetchDepth: 16},
	} {
		eng := sim.New()
		pool := cxl.NewPool(eng, 1<<20, cxl.DefaultParams())
		region, err := pool.Alloc(RegionBytes(cfg) + 7*cxl.LineSize)
		if err != nil {
			t.Fatal(err)
		}
		region.Base += 7 * cxl.LineSize // a ring that does not start at pool address 0
		region.Size -= 7 * cxl.LineSize
		ch, err := New(region, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSender(ch, pool.AttachPort("tx"), cache.DefaultParams())
		r := NewReceiver(ch, cache.New(eng, pool.AttachPort("rx"), cache.DefaultParams()))
		spl := int64(ch.slotsPerLine)
		lineAt := func(l int64) int64 { return cxl.LineAddr(ch.slotAddr(l * spl)) }
		for idx := int64(0); idx <= 3*int64(cfg.Slots); idx++ {
			if r.tail != idx || s.head != idx {
				t.Fatalf("%+v: tail %d head %d, want %d", cfg, r.tail, s.head, idx)
			}
			for _, pos := range []position{r.tailPos, s.headPos} {
				if pos.slot != int(idx%int64(cfg.Slots)) || ch.addr(pos) != ch.slotAddr(idx) || pos.epoch != ch.slotEpoch(idx) {
					t.Fatalf("%+v idx %d: slot %d addr %#x epoch %#x; division gives %d, %#x, %#x", cfg, idx,
						pos.slot, ch.addr(pos), pos.epoch, idx%int64(cfg.Slots), ch.slotAddr(idx), ch.slotEpoch(idx))
				}
			}
			cur := r.tailLine()
			if cur != r.absLine(idx) {
				t.Fatalf("%+v idx %d: tail line %d, division gives %d", cfg, idx, cur, r.absLine(idx))
			}
			// The receiver flushes the line before its own (a consumed
			// line) through its prefetch window.
			for l := max(cur-1, 0); l <= cur+int64(cfg.PrefetchDepth); l++ {
				if got := r.lineAddr(l); got != lineAt(l) {
					t.Fatalf("%+v idx %d: line %d at %#x, division gives %#x", cfg, idx, l, got, lineAt(l))
				}
			}
			if idx > 0 {
				// The sender writes back lines from the one holding its
				// oldest unflushed message through the one holding head-1.
				last := s.lastLine()
				if last != (idx-1)/spl {
					t.Fatalf("%+v idx %d: sender's last line %d, division gives %d", cfg, idx, last, (idx-1)/spl)
				}
				for l := max(last-2, 0); l <= last; l++ {
					if got := ch.ringBase + ch.ringLine(l, last, s.lastLineRing())*cxl.LineSize; got != lineAt(l) {
						t.Fatalf("%+v idx %d: sender line %d at %#x, division gives %#x", cfg, idx, l, got, lineAt(l))
					}
				}
			}
			r.tail++
			r.tailPos.advance(cfg.Slots)
			s.head++
			s.headPos.advance(cfg.Slots)
		}
	}
}
