package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/sim"
)

func testPool() (*sim.Engine, *cxl.Pool) {
	eng := sim.New()
	return eng, cxl.NewPool(eng, 1<<24, cxl.DefaultParams())
}

func TestBufferAreaAllocFreeCycle(t *testing.T) {
	_, pool := testPool()
	region, _ := pool.Alloc(8192)
	a, err := NewBufferArea(region, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != 4 || a.FreeCount() != 4 {
		t.Fatalf("capacity=%d free=%d", a.Capacity(), a.FreeCount())
	}
	seen := map[int64]bool{}
	var addrs []int64
	for i := 0; i < 4; i++ {
		addr, ok := a.Alloc()
		if !ok || seen[addr] || !a.Owns(addr) {
			t.Fatalf("alloc %d: addr=%#x ok=%v dup=%v", i, addr, ok, seen[addr])
		}
		seen[addr] = true
		addrs = append(addrs, addr)
	}
	if _, ok := a.Alloc(); ok {
		t.Fatal("alloc succeeded on empty area")
	}
	if a.AllocFails != 1 {
		t.Fatalf("AllocFails = %d", a.AllocFails)
	}
	for _, addr := range addrs {
		a.Free(addr)
	}
	if a.FreeCount() != 4 {
		t.Fatalf("free count after cycle = %d", a.FreeCount())
	}
}

func TestBufferAreaRejectsUnalignedSize(t *testing.T) {
	_, pool := testPool()
	region, _ := pool.Alloc(8192)
	if _, err := NewBufferArea(region, 100); err == nil {
		t.Fatal("unaligned buffer size accepted")
	}
	if _, err := NewBufferArea(region, 1<<20); err == nil {
		t.Fatal("oversized buffer size accepted")
	}
}

func TestBufferAreaFreeForeignAddressPanics(t *testing.T) {
	_, pool := testPool()
	region, _ := pool.Alloc(8192)
	a, _ := NewBufferArea(region, 2048)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic freeing a foreign address")
		}
	}()
	a.Free(region.Base + 1) // not a buffer base
}

func TestWritebackInvalidateRangeMakeBufferVisible(t *testing.T) {
	eng, pool := testPool()
	hA := host.New(eng, 0, "A", pool, host.DefaultConfig())
	hB := host.New(eng, 1, "B", pool, host.DefaultConfig())
	region, _ := pool.Alloc(4096)
	payload := bytes.Repeat([]byte{0x5A}, 1500)
	eng.Go("test", func(p *sim.Proc) {
		// A writes a packet and publishes it.
		hA.Cache.Write(p, region.Base, payload, "payload")
		WritebackRange(p, hA.Cache, region.Base, len(payload), "payload")
		p.Sleep(time.Microsecond)
		// B reads it fresh.
		buf := make([]byte, len(payload))
		hB.Cache.Read(p, region.Base, buf, "payload")
		if !bytes.Equal(buf, payload) {
			t.Error("cross-host buffer mismatch after WritebackRange")
		}
		// A recycles the buffer with new contents; B must invalidate to see
		// them (this is the frontend's RX-buffer discipline).
		payload2 := bytes.Repeat([]byte{0xA5}, 1500)
		hA.Cache.Write(p, region.Base, payload2, "payload")
		WritebackRange(p, hA.Cache, region.Base, len(payload2), "payload")
		p.Sleep(time.Microsecond)
		hB.Cache.Read(p, region.Base, buf, "payload")
		if bytes.Equal(buf, payload2) {
			t.Error("B saw fresh data without invalidating — cache model broken")
		}
		InvalidateRange(p, hB.Cache, region.Base, len(payload2), "payload")
		hB.Cache.Read(p, region.Base, buf, "payload")
		if !bytes.Equal(buf, payload2) {
			t.Error("B still stale after InvalidateRange")
		}
	})
	eng.Run()
}

func TestDuplexLinkBothDirections(t *testing.T) {
	eng, pool := testPool()
	hA := host.New(eng, 0, "A", pool, host.DefaultConfig())
	hB := host.New(eng, 1, "B", pool, host.DefaultConfig())
	aEnd, bEnd, err := NewDuplexLink(pool, hA, hB, msgchan.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := false
	eng.Go("a", func(p *sim.Proc) {
		if !aEnd.Send(p, []byte{1, 2, 3}) {
			t.Error("a send failed")
		}
		aEnd.Flush(p)
		for {
			if msg, ok := aEnd.Poll(p); ok {
				if msg[0] != 9 {
					t.Errorf("a received %v", msg[:1])
				}
				done = true
				eng.Shutdown()
				return
			}
		}
	})
	eng.Go("b", func(p *sim.Proc) {
		for {
			if msg, ok := bEnd.Poll(p); ok {
				if msg[0] != 1 || msg[1] != 2 || msg[2] != 3 {
					t.Errorf("b received %v", msg[:3])
				}
				if !bEnd.Send(p, []byte{9}) {
					t.Error("b send failed")
				}
				bEnd.Flush(p)
				return
			}
		}
	})
	eng.Run()
	if !done {
		t.Fatal("round trip incomplete")
	}
}

func TestDuplexLinkRequiresPodHosts(t *testing.T) {
	eng, pool := testPool()
	hA := host.New(eng, 0, "A", pool, host.DefaultConfig())
	client := host.New(eng, 1, "client", nil, host.DefaultConfig())
	if _, _, err := NewDuplexLink(pool, hA, client, msgchan.DefaultConfig()); err == nil {
		t.Fatal("link to a non-pod host accepted")
	}
}

// An idle link's host memory. Building a default-config duplex link — two
// 8 192-slot channels, their senders and receivers, two latency trackers —
// allocates neither a ring-sized copy nor histogram counters until a message
// needs them. Sized up front, the two came to 394 379 B per link.
func TestIdleLinkBytes(t *testing.T) {
	eng, pool := testPool()
	hA := host.New(eng, 0, "A", pool, host.DefaultConfig())
	hB := host.New(eng, 1, "B", pool, host.DefaultConfig())
	const links, limit = 16, 4 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < links; i++ {
		if _, _, err := NewDuplexLink(pool, hA, hB, msgchan.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / links
	t.Logf("idle duplex link: %d B allocated (limit %d B)", per, limit)
	if per > limit {
		t.Errorf("an idle duplex link allocates %d B, want at most %d", per, limit)
	}
}

// Under a standing queue the stamp queue never drains; it must still stay
// within twice the messages in flight, and pair every delivery with its own
// send.
func TestChanLatencyStandingQueue(t *testing.T) {
	var cl ChanLatency
	const inFlight, lag = 100, 7 * time.Microsecond
	for i := 0; i < inFlight; i++ {
		cl.stamp(sim.Duration(i))
	}
	for i := inFlight; i < 100_000; i++ {
		cl.stamp(sim.Duration(i))
		cl.observe(sim.Duration(i-inFlight) + lag)
		if len(cl.stamps) > 2*(inFlight+1) {
			t.Fatalf("after %d messages the stamp queue holds %d stamps for %d in flight", i, len(cl.stamps), inFlight)
		}
	}
	if h := &cl.Hist; h.Count() != 100_000-inFlight || h.Min() != lag || h.Max() != lag {
		t.Fatalf("recorded n=%d min=%v max=%v, want every latency %v", h.Count(), h.Min(), h.Max(), lag)
	}
}
