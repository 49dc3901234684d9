package nic

import (
	"testing"
	"time"

	"oasis/internal/netsw"
	"oasis/internal/sim"
)

// TestTxAllocBudget guards the NIC transmit path: WQE queues, DMA reads,
// completions, engine events, the frame buffer and the switch's frame
// header are all recycled — the switch returns each frame to the engine's
// buffer pool after its last delivery — so a TX packet allocates nothing.
func TestTxAllocBudget(t *testing.T) {
	r := newNICRig(t)
	frame := testFrame(macA, macB, 0x0a000002, 200)
	r.pool.Poke(0, frame)
	r.eng.Go("driver", func(p *sim.Proc) {
		// Teach the switch where macB lives so TX frames unicast instead
		// of flooding.
		bcast := testFrame(macB, netsw.Broadcast, 0, 64)
		r.pool.Poke(8192, bcast)
		r.b.PostTx(p, WQE{Addr: 8192, Len: 64, Cookie: 9})
		p.Sleep(10 * time.Microsecond)
		for {
			if !r.a.PostTx(p, WQE{Addr: 0, Len: len(frame), Cookie: 1}) {
				p.Sleep(time.Microsecond)
			}
			for {
				if _, ok := r.a.PollTxCompletion(); !ok {
					break
				}
			}
		}
	})
	const window = 100 * time.Microsecond
	r.eng.RunUntil(window)
	before := r.a.TxPackets

	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() {
		r.eng.RunUntil(r.eng.Now() + window)
	})
	// AllocsPerRun adds one untimed warm-up call, so runs+1 windows passed.
	pkts := float64(r.a.TxPackets-before) / float64(runs+1)
	if pkts < 50 {
		t.Fatalf("only %.0f TX packets per window; harness broken", pkts)
	}
	perPkt := allocs / pkts
	t.Logf("%.0f pkts/window, %.1f allocs/window, %.3f allocs/pkt", pkts, allocs, perPkt)
	if allocs != 0 {
		t.Fatalf("NIC TX allocated %.3f objects per packet, want 0", perPkt)
	}
	r.eng.Shutdown()
}

// TestRxRingCycleAllocFree guards the RX descriptor ring: a frame consuming
// the oldest descriptor and the driver posting its buffer back must reuse
// the ring's array, however many packets go round.
func TestRxRingCycleAllocFree(t *testing.T) {
	r := newNICRig(t)
	f := &netsw.Frame{Bytes: testFrame(macB, macA, 0x0a000002, 200)}
	const posted, perRun = 8, 64
	var allocs float64
	r.eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < posted; i++ {
			r.a.PostRx(p, RxDesc{Addr: int64(i) * 2048, Cap: 2048})
		}
		run := func() {
			for i := 0; i < perRun; i++ {
				r.a.DeliverFrame(f)
				p.Sleep(time.Microsecond)
				rc, ok := r.a.PollRxCompletion()
				if !ok {
					t.Fatal("no RX completion")
				}
				r.a.PostRx(p, RxDesc{Addr: rc.Addr, Cap: 2048})
			}
		}
		run() // warm the pool's pages and the engine's free lists
		allocs = testing.AllocsPerRun(20, run)
	})
	r.eng.Run()
	if r.a.RxPackets != 22*perRun || r.a.RxDescCount() != posted {
		t.Fatalf("%d packets received, %d descriptors posted; harness broken", r.a.RxPackets, r.a.RxDescCount())
	}
	if allocs != 0 {
		t.Errorf("%d packets through the RX ring allocated %.2f objects, want 0", perRun, allocs)
	}
	r.eng.Shutdown()
}
