package cache

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"oasis/internal/cxl"
	"oasis/internal/sim"
)

// rig bundles an engine, pool, and two host caches (the classic two-host
// non-coherence setup from §3.2).
type rig struct {
	eng  *sim.Engine
	pool *cxl.Pool
	a, b *Cache
}

func newRig() *rig {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<22, cxl.DefaultParams())
	return &rig{
		eng:  eng,
		pool: pool,
		a:    New(eng, pool.AttachPort("hostA"), DefaultParams()),
		b:    New(eng, pool.AttachPort("hostB"), DefaultParams()),
	}
}

// run executes fn as a process and runs the simulation to completion.
func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.eng.Go("test", fn)
	r.eng.Run()
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig()
	r.pool.Poke(0, []byte{42})
	r.run(t, func(p *sim.Proc) {
		buf := make([]byte, 1)
		start := p.Now()
		r.a.Read(p, 0, buf, "m")
		missTime := p.Now() - start
		if buf[0] != 42 {
			t.Errorf("read %d, want 42", buf[0])
		}
		if missTime < 200*time.Nanosecond {
			t.Errorf("miss took %v, want >= load-to-use latency", missTime)
		}
		start = p.Now()
		r.a.Read(p, 0, buf, "m")
		hitTime := p.Now() - start
		if hitTime > 10*time.Nanosecond {
			t.Errorf("hit took %v, want ~2ns", hitTime)
		}
	})
	st := r.a.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStalenessAcrossHosts(t *testing.T) {
	// The defining non-coherence behaviour: A caches a line; B overwrites
	// the pool; A still reads the stale value until it flushes.
	r := newRig()
	r.pool.Poke(0, []byte{1})
	r.run(t, func(p *sim.Proc) {
		buf := make([]byte, 1)
		r.a.Read(p, 0, buf, "m") // A caches the line (value 1)

		r.b.Write(p, 0, []byte{2}, "m") // B writes 2...
		r.b.WritebackLine(p, 0, "m")    // ...and pushes it to the pool

		r.a.Read(p, 0, buf, "m")
		if buf[0] != 1 {
			t.Errorf("A read %d; want STALE 1 (no cross-host coherence)", buf[0])
		}

		r.a.FlushLine(p, 0, "m")
		r.a.Fence(p)
		r.a.Read(p, 0, buf, "m")
		if buf[0] != 2 {
			t.Errorf("after invalidate, A read %d, want 2", buf[0])
		}
	})
}

func TestWriteInvisibleUntilWriteback(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc) {
		r.a.Write(p, 0, []byte{7}, "m")
		got := make([]byte, 1)
		r.pool.Peek(0, got)
		if got[0] != 0 {
			t.Error("write-back cache leaked a store to the pool before CLWB")
		}
		r.a.WritebackLine(p, 0, "m")
		p.Sleep(time.Microsecond) // CLWB is posted; wait for propagation
		r.pool.Peek(0, got)
		if got[0] != 7 {
			t.Error("CLWB did not push the dirty line")
		}
		// CLWB keeps the line cached clean: next read must be a hit.
		h0 := r.a.Stats().Hits
		buf := make([]byte, 1)
		r.a.Read(p, 0, buf, "m")
		if r.a.Stats().Hits != h0+1 {
			t.Error("line not retained clean after CLWB")
		}
	})
}

func TestFlushWritesBackDirtyAndDrops(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc) {
		r.a.Write(p, 0, []byte{9}, "m")
		r.a.FlushLine(p, 0, "m")
		p.Sleep(time.Microsecond) // flush writeback is posted
		got := make([]byte, 1)
		r.pool.Peek(0, got)
		if got[0] != 9 {
			t.Error("CLFLUSHOPT must write back dirty data")
		}
		if r.a.Contains(0) {
			t.Error("CLFLUSHOPT must drop the line")
		}
	})
}

func TestPrefetchIgnoredWhenPresent(t *testing.T) {
	// The root cause of Fig. 6's design-② ceiling: prefetching cannot
	// replace a stale resident line.
	r := newRig()
	r.pool.Poke(0, []byte{1})
	r.run(t, func(p *sim.Proc) {
		buf := make([]byte, 1)
		r.a.Read(p, 0, buf, "m") // line resident

		r.b.Write(p, 0, []byte{2}, "m")
		r.b.WritebackLine(p, 0, "m")

		r.a.Prefetch(p, 0, "m") // must be ignored: line (stale) is present
		p.Sleep(time.Microsecond)
		r.a.Read(p, 0, buf, "m")
		if buf[0] != 1 {
			t.Errorf("prefetch replaced a resident line: got %d", buf[0])
		}
	})
	st := r.a.Stats()
	if st.PrefetchIgnored != 1 || st.PrefetchIssued != 0 {
		t.Fatalf("prefetch stats = %+v", st)
	}
}

func TestPrefetchOverlapsLatency(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc) {
		r.a.Prefetch(p, 0, "m")
		p.Sleep(300 * time.Nanosecond) // longer than load-to-use
		start := p.Now()
		buf := make([]byte, 1)
		r.a.Read(p, 0, buf, "m")
		if d := p.Now() - start; d > 10*time.Nanosecond {
			t.Errorf("read after completed prefetch took %v, want a hit", d)
		}
	})
}

func TestReadWaitsForInflightFill(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc) {
		r.a.Prefetch(p, 0, "m")
		start := p.Now()
		buf := make([]byte, 1)
		r.a.Read(p, 0, buf, "m") // fill still in flight: must wait, not double-fetch
		waited := p.Now() - start
		if waited < 150*time.Nanosecond {
			t.Errorf("read returned in %v; should have waited for the fill", waited)
		}
	})
	st := r.a.Stats()
	if st.FillWaits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvalidateCancelsInflightFill(t *testing.T) {
	r := newRig()
	r.pool.Poke(0, []byte{5})
	r.run(t, func(p *sim.Proc) {
		r.a.Prefetch(p, 0, "m")
		r.a.FlushLine(p, 0, "m") // drop while in flight
		if r.a.Contains(0) {
			t.Error("flushed line still resident")
		}
		p.Sleep(time.Microsecond) // fill completion must not resurrect it
		if r.a.Contains(0) {
			t.Error("cancelled fill landed anyway")
		}
	})
}

func TestBulkReadOverlapsFills(t *testing.T) {
	// A 1500 B read spanning 24 lines must take ~latency + serialization,
	// not 24 × latency.
	r := newRig()
	payload := make([]byte, 1500)
	for i := range payload {
		payload[i] = byte(i)
	}
	r.pool.Poke(0, payload)
	r.run(t, func(p *sim.Proc) {
		buf := make([]byte, 1500)
		start := p.Now()
		r.a.Read(p, 0, buf, "payload")
		elapsed := p.Now() - start
		if !bytes.Equal(buf, payload) {
			t.Error("bulk read data mismatch")
		}
		// 24 lines × 64 B at 32 GB/s = 48 ns serialization + 205 ns latency
		// + per-line hit costs. Must be well under 2 × latency.
		if elapsed > 400*time.Nanosecond {
			t.Errorf("bulk read took %v; fills did not overlap", elapsed)
		}
	})
}

func TestBulkWriteReadRoundTrip(t *testing.T) {
	r := newRig()
	payload := make([]byte, 777) // deliberately not line-aligned
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	r.run(t, func(p *sim.Proc) {
		const addr = 100 // unaligned start
		r.a.Write(p, addr, payload, "payload")
		// Write back all touched lines.
		for a := cxl.LineAddr(addr); a <= cxl.LineAddr(addr+776); a += cxl.LineSize {
			r.a.WritebackLine(p, a, "payload")
		}
		buf := make([]byte, len(payload))
		r.b.Read(p, addr, buf, "payload")
		if !bytes.Equal(buf, payload) {
			t.Error("cross-host buffer round trip mismatch")
		}
	})
}

func TestPartialLineWritePreservesNeighbours(t *testing.T) {
	r := newRig()
	r.pool.Poke(0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	r.run(t, func(p *sim.Proc) {
		r.a.Write(p, 2, []byte{99}, "m") // absent line, partial write
		r.a.WritebackLine(p, 0, "m")
		p.Sleep(time.Microsecond)
		got := make([]byte, 8)
		r.pool.Peek(0, got)
		want := []byte{1, 2, 99, 4, 5, 6, 7, 8}
		if !bytes.Equal(got, want) {
			t.Errorf("pool = %v, want %v (merge-fill must preserve bytes)", got, want)
		}
	})
}

func TestLRUEvictionWritesBackDirty(t *testing.T) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<20, cxl.DefaultParams())
	params := DefaultParams()
	params.CapacityLines = 4
	c := New(eng, pool.AttachPort("h"), params)
	eng.Go("t", func(p *sim.Proc) {
		c.Write(p, 0, []byte{11}, "m") // dirty line 0
		for i := int64(1); i <= 4; i++ {
			buf := make([]byte, 1)
			c.Read(p, i*cxl.LineSize, buf, "m")
		}
		if c.Contains(0) {
			t.Error("LRU line not evicted")
		}
		p.Sleep(time.Microsecond) // eviction writeback is posted
		got := make([]byte, 1)
		pool.Peek(0, got)
		if got[0] != 11 {
			t.Error("evicted dirty line not written back")
		}
	})
	eng.Run()
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
	if c.Len() != 4 {
		t.Fatalf("resident = %d, want 4", c.Len())
	}
}

func TestSnoopCosts(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc) {
		// Clean resident line + dirty resident line in A's cache.
		buf := make([]byte, 1)
		r.a.Read(p, 0, buf, "m")         // clean
		r.a.Write(p, 64, []byte{5}, "m") // dirty
		if d := r.a.Snoop(0, 128, "dma"); d != snoopDropCost+snoopWritebackCost {
			t.Errorf("snoop delay = %v", d)
		}
		if r.a.Contains(0) || r.a.Contains(64) {
			t.Error("snooped lines must be dropped")
		}
		p.Sleep(time.Microsecond) // snoop writeback is posted
		got := make([]byte, 1)
		r.pool.Peek(64, got)
		if got[0] != 5 {
			t.Error("snooped dirty line must reach the pool")
		}
		// Second snoop misses everything: free, as §3.2.1 requires.
		if d := r.a.Snoop(0, 128, "dma"); d != 0 {
			t.Errorf("snoop on absent lines cost %v, want 0", d)
		}
	})
	st := r.a.Stats()
	if st.SnoopWritebacks != 1 || st.SnoopDrops != 1 {
		t.Fatalf("snoop stats = %+v", st)
	}
}

func TestWritebackOfCleanLineIsNoop(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc) {
		buf := make([]byte, 1)
		r.a.Read(p, 0, buf, "m")
		wb0 := r.a.Stats().Writebacks
		r.a.WritebackLine(p, 0, "m")
		if r.a.Stats().Writebacks != wb0 {
			t.Error("CLWB of a clean line must not write")
		}
	})
}

func TestInvalidateAll(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc) {
		r.a.Write(p, 0, []byte{1}, "m")
		r.a.Write(p, 64, []byte{2}, "m")
		r.a.InvalidateAll()
		if r.a.Len() != 0 {
			t.Error("InvalidateAll left lines resident")
		}
		p.Sleep(time.Microsecond)
		got := make([]byte, 1)
		r.pool.Peek(64, got)
		if got[0] != 2 {
			t.Error("InvalidateAll must write back dirty lines")
		}
	})
}

// InvalidateAll's write-backs each reserve the port, so their order is
// simulation-visible: it is the LRU list's (least recently used first), not
// the line map's.
func TestInvalidateAllWritesBackInLRUOrder(t *testing.T) {
	r := newRig()
	const n = 8
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.a.Write(p, int64(i)*cxl.LineSize, []byte{byte(i + 1)}, "m")
		}
		r.a.Read(p, 2*cxl.LineSize, make([]byte, 1), "m") // line 2 becomes the most recent
		r.a.InvalidateAll()
		var landed []int
		seen := make([]bool, n)
		for step := 0; step < 5000 && len(landed) < n; step++ {
			p.Sleep(time.Nanosecond)
			for i := 0; i < n; i++ {
				got := make([]byte, 1)
				if r.pool.Peek(int64(i)*cxl.LineSize, got); got[0] != 0 && !seen[i] {
					seen[i] = true
					landed = append(landed, i)
				}
			}
		}
		if want := []int{0, 1, 3, 4, 5, 6, 7, 2}; !slices.Equal(landed, want) {
			t.Errorf("write-backs landed in order %v, want the LRU order %v", landed, want)
		}
	})
}

func TestBackInvalidationCoherence(t *testing.T) {
	// With a HWCoherent pool (CXL 3.0 BI, §6 ablation), a remote write
	// invalidates every cache's copy — no software flush needed.
	eng := sim.New()
	params := cxl.DefaultParams()
	params.HWCoherent = true
	pool := cxl.NewPool(eng, 1<<20, params)
	a := New(eng, pool.AttachPort("hostA"), DefaultParams())
	bPort := pool.AttachPort("hostB")
	eng.Go("t", func(p *sim.Proc) {
		pool.Poke(0, []byte{1})
		buf := make([]byte, 1)
		a.Read(p, 0, buf, "m") // A caches value 1
		var lineBuf [cxl.LineSize]byte
		lineBuf[0] = 2
		bPort.WriteLine(0, lineBuf[:], "m") // remote write triggers BI
		p.Sleep(time.Microsecond)
		if a.Contains(0) {
			t.Error("BI did not drop A's line")
		}
		a.Read(p, 0, buf, "m")
		if buf[0] != 2 {
			t.Errorf("A read %d after BI, want fresh 2 without any flush", buf[0])
		}
	})
	eng.Run()
	if a.Stats().BackInvalidations != 1 {
		t.Fatalf("BI count = %d", a.Stats().BackInvalidations)
	}
}

func TestNoBackInvalidationWhenCXL2(t *testing.T) {
	r := newRig() // default params: HWCoherent off
	r.pool.Poke(0, []byte{1})
	r.run(t, func(p *sim.Proc) {
		buf := make([]byte, 1)
		r.a.Read(p, 0, buf, "m")
		r.b.Write(p, 0, []byte{2}, "m")
		r.b.WritebackLine(p, 0, "m")
		p.Sleep(time.Microsecond)
		if !r.a.Contains(0) {
			t.Error("CXL 2.0 pool must NOT back-invalidate")
		}
	})
	if r.a.Stats().BackInvalidations != 0 {
		t.Fatal("BI fired on a non-coherent pool")
	}
}

// chainOf runs fn as every Step of a stepped sleep.
type chainOf func() (sim.Duration, bool)

func (f chainOf) Step() (sim.Duration, bool) { return f() }

// A read stepped as ReadIssue → leg → ReadCollect must be the blocking Read
// of the same line: same data, same virtual time, same counters — on a miss,
// on a hit and on a fill already in flight. Its demand fill needs no
// completion timer, and with no timer in the way a lone process's wait is a
// fast-path sleep: two events fewer per demand miss.
func TestSteppedReadMatchesRead(t *testing.T) {
	run := func(stepped bool) (log string, events uint64) {
		r := newRig()
		for i := 0; i < 8; i++ {
			r.pool.Poke(int64(i)*cxl.LineSize+3, []byte{byte(40 + i)})
		}
		r.run(t, func(p *sim.Proc) {
			buf := make([]byte, 5)
			read := func(addr int64) {
				if !stepped {
					r.a.Read(p, addr, buf, "test")
					return
				}
				wait, hit := r.a.ReadIssue(addr, "test")
				collect := chainOf(func() (sim.Duration, bool) {
					if !r.a.ReadCollect(addr, buf) {
						t.Errorf("line %#x vanished with nothing to take it", addr)
					}
					return 0, false
				})
				if hit || wait > 0 {
					p.SleepSteps(wait, collect)
				} else {
					collect()
				}
			}
			for i := int64(0); i < 8; i++ {
				if i%2 == 1 {
					r.a.Prefetch(p, i*cxl.LineSize, "test") // in flight when read
				}
				read(i*cxl.LineSize + 3) // miss, or join the prefetch
				log += fmt.Sprintf("%d %v|", p.Now(), buf)
				read(i*cxl.LineSize + 3) // hit
				log += fmt.Sprintf("%d %v|", p.Now(), buf)
			}
		})
		return log + fmt.Sprintf("%+v", r.a.Stats()), r.eng.Counters().Events
	}
	want, wantEvents := run(false)
	got, gotEvents := run(true)
	if got != want {
		t.Fatalf("stepped read diverged from Read:\n read: %s\nsteps: %s", want, got)
	}
	if gotEvents != wantEvents-2*4 {
		t.Fatalf("stepped reads dispatched %d events, Read %d; want two fewer for each of the 4 demand misses", gotEvents, wantEvents)
	}
}

// A line dropped under a stepped read's fill is reported by ReadCollect and
// fetched again by ReadRefill, as Read does.
func TestSteppedReadRefillsVanishedLine(t *testing.T) {
	r := newRig()
	r.pool.Poke(128, []byte{7})
	r.run(t, func(p *sim.Proc) {
		wait, hit := r.a.ReadIssue(128, "test")
		if hit || wait <= 0 {
			t.Fatalf("first touch: wait %v hit %v, want a miss", wait, hit)
		}
		r.eng.After(wait/2, func() { r.a.Snoop(128, 1, "dma") })
		p.Sleep(wait)
		buf := []byte{0}
		if r.a.ReadCollect(128, buf) {
			t.Fatal("ReadCollect succeeded on a line snooped away mid-fill")
		}
		r.a.ReadRefill(p, 128, buf, "test")
		if buf[0] != 7 {
			t.Fatalf("refill read %d, want 7", buf[0])
		}
	})
	if s := r.a.Stats(); s.Misses != 2 || s.SnoopDrops != 1 {
		t.Fatalf("stats %+v, want two misses around one snoop drop", s)
	}
}

// StoreNow is Write's effect, except that it refuses a line with a fill in
// flight — that store has to wait, which a Step cannot.
func TestStoreNowRefusesInflightLine(t *testing.T) {
	r := newRig()
	r.run(t, func(p *sim.Proc) {
		if !r.a.StoreNow(64+8, []byte{1, 2}) {
			t.Fatal("StoreNow refused an absent line")
		}
		r.a.Prefetch(p, 256, "test")
		if r.a.StoreNow(256, []byte{9}) {
			t.Fatal("StoreNow stored into a line whose fill is in flight")
		}
		r.a.Write(p, 256, []byte{9}, "test") // waits for the fill
		r.a.WritebackLine(p, 64, "test")
		r.a.WritebackLine(p, 256, "test")
		p.Sleep(time.Microsecond)
	})
	got := make([]byte, 3)
	r.pool.Peek(64+8, got[:2])
	r.pool.Peek(256, got[2:])
	if !bytes.Equal(got, []byte{1, 2, 9}) {
		t.Fatalf("pool holds %v, want [1 2 9]", got)
	}
}

// The range operations are FlushLine/WritebackLine per line plus a Fence, in
// virtual time, effects and counters — also when two processes run ranges on
// one cache at once, as a driver and an instance on one host do.
func TestRangeOpsMatchPerLineCalls(t *testing.T) {
	const lines = 9
	run := func(ranged bool) string {
		r := newRig()
		var log string
		for _, base := range []int64{0, 1 << 16} {
			base := base
			r.eng.Go(fmt.Sprintf("proc%d", base), func(p *sim.Proc) {
				p.Sleep(sim.Duration(base>>16) * 7 * time.Nanosecond) // interleave the two
				r.a.Write(p, base, bytes.Repeat([]byte{byte(1 + base>>16)}, lines*cxl.LineSize), "test")
				if ranged {
					r.a.WritebackRange(p, base+5, lines*cxl.LineSize-5, "test")
					r.a.FlushRange(p, base+5, lines*cxl.LineSize-5, "test")
					r.a.FlushRange(p, base, 0, "test") // empty: no fence either
				} else {
					for a := base; a < base+lines*cxl.LineSize; a += cxl.LineSize {
						r.a.WritebackLine(p, a, "test")
					}
					r.a.Fence(p)
					for a := base; a < base+lines*cxl.LineSize; a += cxl.LineSize {
						r.a.FlushLine(p, a, "test")
					}
					r.a.Fence(p)
				}
				log += fmt.Sprintf("%d done at %d|", base, p.Now())
			})
		}
		r.eng.Run()
		return log + fmt.Sprintf("%+v len %d dirty %d", r.a.Stats(), r.a.Len(), r.a.DirtyLines())
	}
	if want, got := run(false), run(true); got != want {
		t.Fatalf("range ops diverged from per-line calls:\nlines: %s\nrange: %s", want, got)
	}
}
