package nic

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"oasis/internal/cache"
	"oasis/internal/cxl"
	"oasis/internal/netsw"
	"oasis/internal/sim"
)

var (
	macA = netsw.MAC{0xaa, 0, 0, 0, 0, 1}
	macB = netsw.MAC{0xbb, 0, 0, 0, 0, 2}
)

// testFrame builds a minimal "IPv4-like" frame whose dst IP lives at the
// real IPv4 offset so FlowKey-style classification works.
func testFrame(src, dst netsw.MAC, dstIP uint32, size int) []byte {
	if size < 34 {
		size = 34
	}
	b := make([]byte, size)
	copy(b[0:6], dst[:])
	copy(b[6:12], src[:])
	binary.BigEndian.PutUint16(b[12:14], 0x0800)
	binary.BigEndian.PutUint32(b[30:34], dstIP)
	return b
}

func testFlowKey(frame []byte) (uint32, bool) {
	if len(frame) < 34 || binary.BigEndian.Uint16(frame[12:14]) != 0x0800 {
		return 0, false
	}
	return binary.BigEndian.Uint32(frame[30:34]), true
}

// nicRig: two NICs on a switch, DMA through one CXL pool.
type nicRig struct {
	eng  *sim.Engine
	pool *cxl.Pool
	sw   *netsw.Switch
	a, b *NIC
}

func newNICRig(t *testing.T) *nicRig {
	t.Helper()
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<22, cxl.DefaultParams())
	sw := netsw.New(eng, netsw.DefaultParams())
	r := &nicRig{eng: eng, pool: pool, sw: sw}
	r.a = New(eng, "nicA", macA, pool.AttachPort("nicA-dma"), testFlowKey, DefaultParams())
	r.b = New(eng, "nicB", macB, pool.AttachPort("nicB-dma"), testFlowKey, DefaultParams())
	r.a.Connect(sw.AttachPort("pA", r.a))
	r.b.Connect(sw.AttachPort("pB", r.b))
	r.a.Start()
	r.b.Start()
	return r
}

func TestTxDMAToWireToRxDMA(t *testing.T) {
	r := newNICRig(t)
	// Stage a frame for nicA in the pool, post an RX buffer for nicB.
	frame := testFrame(macA, macB, 0x0a000002, 200)
	r.pool.Poke(0, frame)
	r.b.AddFlowRule(0x0a000002, 77)
	var comp RxCompletion
	gotRx := false
	r.eng.Go("driver", func(p *sim.Proc) {
		if !r.b.PostRx(p, RxDesc{Addr: 4096, Cap: 2048}) {
			t.Error("PostRx failed")
		}
		// Teach the switch where macB lives (send a frame from b first).
		bcast := testFrame(macB, netsw.Broadcast, 0, 64)
		r.pool.Poke(8192, bcast)
		r.b.PostTx(p, WQE{Addr: 8192, Len: 64, Cookie: 9})
		p.Sleep(10 * time.Microsecond)

		if !r.a.PostTx(p, WQE{Addr: 0, Len: len(frame), Cookie: 1}) {
			t.Error("PostTx failed")
		}
		// Wait for the completion to show up.
		for i := 0; i < 1000; i++ {
			if c, ok := r.b.PollRxCompletion(); ok {
				comp = c
				gotRx = true
				break
			}
			p.Sleep(time.Microsecond)
		}
		if tc, ok := r.a.PollTxCompletion(); !ok || tc.Cookie != 1 {
			t.Errorf("TX completion = %+v, %v", tc, ok)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if !gotRx {
		t.Fatal("no RX completion")
	}
	if comp.Addr != 4096 || comp.Len != len(frame) || !comp.Matched || comp.Tag != 77 {
		t.Fatalf("completion = %+v", comp)
	}
	// The packet bytes must have landed in the RX buffer via DMA.
	got := make([]byte, len(frame))
	r.pool.Peek(4096, got)
	if !bytes.Equal(got, frame) {
		t.Fatal("RX buffer contents mismatch")
	}
}

func TestRxDropWithoutDescriptor(t *testing.T) {
	r := newNICRig(t)
	frame := testFrame(macA, netsw.Broadcast, 0x0a000002, 100)
	r.pool.Poke(0, frame)
	r.eng.Go("driver", func(p *sim.Proc) {
		r.a.PostTx(p, WQE{Addr: 0, Len: len(frame), Cookie: 1})
		p.Sleep(50 * time.Microsecond)
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.b.RxNoDesc != 1 {
		t.Fatalf("RxNoDesc = %d, want 1", r.b.RxNoDesc)
	}
}

func TestUnmatchedFlowCompletion(t *testing.T) {
	r := newNICRig(t)
	frame := testFrame(macA, macB, 0x0a000063, 100) // no rule for this IP
	r.pool.Poke(0, frame)
	var comp RxCompletion
	got := false
	r.eng.Go("driver", func(p *sim.Proc) {
		r.b.PostRx(p, RxDesc{Addr: 4096, Cap: 2048})
		bcast := testFrame(macB, netsw.Broadcast, 0, 64)
		r.pool.Poke(8192, bcast)
		r.b.PostTx(p, WQE{Addr: 8192, Len: 64, Cookie: 9})
		p.Sleep(10 * time.Microsecond)
		r.a.PostTx(p, WQE{Addr: 0, Len: len(frame), Cookie: 1})
		for i := 0; i < 1000 && !got; i++ {
			if c, ok := r.b.PollRxCompletion(); ok {
				comp, got = c, true
			}
			p.Sleep(time.Microsecond)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if !got || comp.Matched {
		t.Fatalf("completion = %+v got=%v; want unmatched delivery", comp, got)
	}
}

func TestLinkDebounce(t *testing.T) {
	r := newNICRig(t)
	swPort := r.sw.Ports()[0] // nicA's port
	r.eng.At(time.Millisecond, func() { swPort.SetEnabled(false) })
	var upAtFailure, upBeforeDebounce, upAfterDebounce bool
	r.eng.At(time.Millisecond+time.Microsecond, func() { upAtFailure = r.a.LinkUp() })
	r.eng.At(time.Millisecond+20*time.Millisecond, func() { upBeforeDebounce = r.a.LinkUp() })
	r.eng.At(time.Millisecond+40*time.Millisecond, func() { upAfterDebounce = r.a.LinkUp() })
	r.eng.At(100*time.Millisecond, func() { r.eng.Shutdown() })
	r.eng.Run()
	if !upAtFailure || !upBeforeDebounce {
		t.Fatal("link status dropped before the PHY debounce elapsed")
	}
	if upAfterDebounce {
		t.Fatal("link status still up after debounce")
	}
}

func TestLinkFlapCancelsDebounce(t *testing.T) {
	r := newNICRig(t)
	swPort := r.sw.Ports()[0]
	r.eng.At(time.Millisecond, func() { swPort.SetEnabled(false) })
	r.eng.At(2*time.Millisecond, func() { swPort.SetEnabled(true) }) // flap back fast
	var up bool
	r.eng.At(50*time.Millisecond, func() { up = r.a.LinkUp(); r.eng.Shutdown() })
	r.eng.Run()
	if !up {
		t.Fatal("fast flap should leave the link up (stale debounce must cancel)")
	}
}

func TestTxRingFull(t *testing.T) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<20, cxl.DefaultParams())
	n := New(eng, "n", macA, pool.AttachPort("dma"), testFlowKey, DefaultParams())
	// No Start(): WQEs stay queued, so the 1024-entry ring fills.
	eng.Go("driver", func(p *sim.Proc) {
		posted := 0
		for i := 0; i < 1025; i++ {
			if n.PostTx(p, WQE{Addr: int64(i) * 64, Len: 64}) {
				posted++
			}
		}
		if posted != 1024 {
			t.Errorf("posted %d WQEs, want the ring's 1024", posted)
		}
		if n.TxRingFull != 1 {
			t.Errorf("TxRingFull = %d", n.TxRingFull)
		}
	})
	eng.Run()
}

func TestSendRawReachesWire(t *testing.T) {
	r := newNICRig(t)
	// Raw MAC-borrow frame from nicB using macA as source: the switch must
	// relearn macA onto nicB's port.
	r.eng.At(0, func() {
		r.b.SendRaw(testFrame(macA, netsw.Broadcast, 0, 64))
	})
	r.eng.At(time.Millisecond, func() { r.eng.Shutdown() })
	r.eng.Run()
	if r.sw.LookupMAC(macA) != r.sw.Ports()[1] {
		t.Fatal("raw frame did not teach the switch (MAC borrowing broken)")
	}
}

// frameCollector keeps a copy of each frame delivered: a sink borrows the
// frame for the call only.
type frameCollector struct{ frames [][]byte }

func (c *frameCollector) DeliverFrame(f *netsw.Frame) {
	c.frames = append(c.frames, bytes.Clone(f.Bytes))
}

func TestDDIOHazardAcrossHosts(t *testing.T) {
	// §3.2.1: with DDIO on, RX DMA lands in the owning host's cache and the
	// pool never sees the payload — a remote host reads stale bytes. This
	// is exactly why Oasis assumes DDIO is disabled.
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<20, cxl.DefaultParams())
	sw := netsw.New(eng, netsw.DefaultParams())
	owner := cache.New(eng, pool.AttachPort("owner"), cache.DefaultParams())
	params := DefaultParams()
	params.DDIO = true
	n := New(eng, "n", macB, pool.AttachPort("nic-dma"), testFlowKey, params)
	n.SetSnooper(owner)
	n.Connect(sw.AttachPort("p", n))
	// Second port so a frame can be injected from "the wire".
	injector := sw.AttachPort("q", nil)
	n.Start()
	remote := cache.New(eng, pool.AttachPort("remote"), cache.DefaultParams())

	frame := testFrame(macA, macB, 0x0a000002, 200)
	eng.Go("driver", func(p *sim.Proc) {
		n.PostRx(p, RxDesc{Addr: 4096, Cap: 2048})
		var f netsw.Frame
		copy(f.Dst[:], frame[0:6])
		copy(f.Src[:], frame[6:12])
		f.Bytes = frame
		injector.Send(&f)
		p.Sleep(100 * time.Microsecond)

		// The OWNING host's cache sees the packet (DDIO win)...
		got := make([]byte, len(frame))
		owner.Read(p, 4096, got, "payload")
		if !bytes.Equal(got, frame) {
			t.Error("owning host's cache missing the DDIO-installed packet")
		}
		// ...but pool memory was never written, so a REMOTE host reads
		// stale zeros: the cross-host corruption §3.2.1 forbids.
		poolBytes := make([]byte, len(frame))
		pool.Peek(4096, poolBytes)
		if bytes.Equal(poolBytes, frame) {
			t.Error("pool updated despite DDIO: hazard not modelled")
		}
		remoteBytes := make([]byte, len(frame))
		remote.Read(p, 4096, remoteBytes, "payload")
		if bytes.Equal(remoteBytes, frame) {
			t.Error("remote host read fresh data; DDIO hazard not reproduced")
		}
		eng.Shutdown()
	})
	eng.Run()
	if owner.Stats().DDIOInstalls == 0 {
		t.Fatal("DDIO installs never happened")
	}
}

func TestDDIOOffWritesPool(t *testing.T) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<20, cxl.DefaultParams())
	sw := netsw.New(eng, netsw.DefaultParams())
	owner := cache.New(eng, pool.AttachPort("owner"), cache.DefaultParams())
	n := New(eng, "n", macB, pool.AttachPort("nic-dma"), testFlowKey, DefaultParams())
	n.SetSnooper(owner)
	n.Connect(sw.AttachPort("p", n))
	injector := sw.AttachPort("q", nil)
	n.Start()
	frame := testFrame(macA, macB, 0x0a000002, 200)
	eng.Go("driver", func(p *sim.Proc) {
		n.PostRx(p, RxDesc{Addr: 4096, Cap: 2048})
		var f netsw.Frame
		copy(f.Dst[:], frame[0:6])
		copy(f.Src[:], frame[6:12])
		f.Bytes = frame
		injector.Send(&f)
		p.Sleep(100 * time.Microsecond)
		got := make([]byte, len(frame))
		pool.Peek(4096, got)
		if !bytes.Equal(got, frame) {
			t.Error("with DDIO off, DMA must land in pool memory")
		}
		eng.Shutdown()
	})
	eng.Run()
	if owner.Stats().DDIOInstalls != 0 {
		t.Fatal("DDIO installs with DDIO disabled")
	}
}

// TestMalformedWQEReturnsBuffer: a WQE shorter than an Ethernet header is
// completed without transmitting, and the buffer its DMA read landed in
// goes back to the engine's pool.
func TestMalformedWQEReturnsBuffer(t *testing.T) {
	r := newNICRig(t)
	pool := r.eng.Bufs()
	var puts int64
	r.eng.Go("driver", func(p *sim.Proc) {
		puts = pool.Puts
		r.a.PostTx(p, WQE{Addr: 0, Len: 10, Cookie: 3})
		p.Sleep(10 * time.Microsecond)
		if c, ok := r.a.PollTxCompletion(); !ok || c.Cookie != 3 {
			t.Errorf("completion %+v, %v; want cookie 3", c, ok)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.a.TxPackets != 0 {
		t.Errorf("%d packets transmitted, want 0", r.a.TxPackets)
	}
	if n := pool.Puts - puts; n != 1 {
		t.Errorf("%d buffers returned to the pool, want the WQE's one", n)
	}
}

// TestRxRingMatchesSliceReference posts and takes RX descriptors in seeded
// bursts — the ring wrapping, doubling from empty up to rxRing and refusing
// posts when full; a descriptor too small for a frame staying at the head —
// against a plain FIFO slice, and requires the same RxDescCount after every
// post and take, the same refusals and drops, and the descriptors to come
// out in the reference's order.
func TestRxRingMatchesSliceReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		eng := sim.New()
		pool := cxl.NewPool(eng, 1<<22+2048, cxl.DefaultParams())
		n := New(eng, "n", macA, pool.AttachPort("dma"), testFlowKey, DefaultParams())
		rng := seed
		rand := func(k int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % k
		}
		small := &netsw.Frame{Bytes: testFrame(macB, macA, 1, 100)}
		large := &netsw.Frame{Bytes: testFrame(macB, macA, 1, 1000)}
		var ref []RxDesc
		var want, got []int64
		var refNoDesc, refOversize int64
		posted := int64(0)
		eng.Go("driver", func(p *sim.Proc) {
			for burst := 0; burst < 200; burst++ {
				if rand(2) == 0 {
					for k := 1 + rand(1500); k > 0; k-- {
						d := RxDesc{Addr: posted % 16384 * 256, Cap: 2048} // unique among 4 rings' worth
						if rand(8) == 0 {
							d.Cap = 512 // holds the small frame, not the large one
						}
						posted++
						fits := len(ref) < rxRing
						if ok := n.PostRxNow(d); ok != fits {
							t.Fatalf("seed %d: PostRxNow = %v with %d posted, want %v", seed, ok, len(ref), fits)
						}
						if fits {
							ref = append(ref, d)
						}
						if n.RxDescCount() != len(ref) {
							t.Fatalf("seed %d: RxDescCount %d after a post, reference %d", seed, n.RxDescCount(), len(ref))
						}
					}
					continue
				}
				for k := 1 + rand(1500); k > 0; k-- {
					f := small
					if rand(4) == 0 {
						f = large
					}
					n.DeliverFrame(f)
					switch {
					case len(ref) == 0:
						refNoDesc++
					case ref[0].Cap < len(f.Bytes):
						refOversize++
					default:
						want = append(want, ref[0].Addr)
						ref = ref[1:]
					}
					if n.RxDescCount() != len(ref) {
						t.Fatalf("seed %d: RxDescCount %d after a take, reference %d", seed, n.RxDescCount(), len(ref))
					}
				}
				p.Sleep(time.Millisecond)
				for c, ok := n.PollRxCompletion(); ok; c, ok = n.PollRxCompletion() {
					got = append(got, c.Addr)
				}
			}
		})
		eng.Run()
		if n.RxNoDesc != refNoDesc || n.Oversize != refOversize {
			t.Fatalf("seed %d: RxNoDesc %d Oversize %d, reference %d, %d", seed, n.RxNoDesc, n.Oversize, refNoDesc, refOversize)
		}
		if refNoDesc == 0 || refOversize == 0 || posted <= int64(len(want)+len(ref)) {
			t.Fatalf("seed %d: the sequence never ran the ring dry (%d), hit an oversize frame (%d) or filled the ring", seed, refNoDesc, refOversize)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: %d descriptors taken, differing from the reference's %d", seed, len(got), len(want))
		}
	}
}
