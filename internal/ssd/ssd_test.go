package ssd

import (
	"bytes"
	"testing"
	"time"

	"oasis/internal/cxl"
	"oasis/internal/sim"
)

type ssdRig struct {
	eng  *sim.Engine
	pool *cxl.Pool
	dev  *SSD
}

func newSSDRig() *ssdRig {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<22, cxl.DefaultParams())
	dev := New(eng, "ssd0", pool.AttachPort("ssd0-dma"), DefaultParams())
	dev.AddNamespace(1, 1<<20)
	dev.Start()
	return &ssdRig{eng: eng, pool: pool, dev: dev}
}

// waitCompletion polls the CQ until one completion arrives.
func waitCompletion(p *sim.Proc, dev *SSD, timeout sim.Duration) (Completion, bool) {
	deadline := p.Now() + timeout
	for p.Now() < deadline {
		if c, ok := dev.PollCompletion(); ok {
			return c, true
		}
		p.Sleep(time.Microsecond)
	}
	return Completion{}, false
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	r := newSSDRig()
	data := bytes.Repeat([]byte{0xAB, 0xCD}, 2*BlockSize/2) // 2 blocks
	r.pool.Poke(0, data)
	r.eng.Go("driver", func(p *sim.Proc) {
		if !r.dev.Submit(p, Command{Opcode: OpWrite, CID: 1, NSID: 1, LBA: 100, Blocks: 2, Buf: 0}) {
			t.Error("write submit failed")
			return
		}
		c, ok := waitCompletion(p, r.dev, 10*time.Millisecond)
		if !ok || c.CID != 1 || c.Status != StatusOK {
			t.Errorf("write completion = %+v ok=%v", c, ok)
			return
		}
		// Read into a different buffer.
		if !r.dev.Submit(p, Command{Opcode: OpRead, CID: 2, NSID: 1, LBA: 100, Blocks: 2, Buf: 65536}) {
			t.Error("read submit failed")
			return
		}
		c, ok = waitCompletion(p, r.dev, 10*time.Millisecond)
		if !ok || c.Status != StatusOK {
			t.Errorf("read completion = %+v ok=%v", c, ok)
			return
		}
		p.Sleep(10 * time.Microsecond) // DMA write propagation
		got := make([]byte, len(data))
		r.pool.Peek(65536, got)
		if !bytes.Equal(got, data) {
			t.Error("read data mismatch")
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

func TestReadLatencyModel(t *testing.T) {
	r := newSSDRig()
	r.eng.Go("driver", func(p *sim.Proc) {
		r.dev.Submit(p, Command{Opcode: OpRead, CID: 1, NSID: 1, LBA: 0, Blocks: 1, Buf: 0})
		start := p.Now()
		_, ok := waitCompletion(p, r.dev, 10*time.Millisecond)
		lat := p.Now() - start
		if !ok {
			t.Error("no completion")
			return
		}
		// ~80µs media + ~2µs op cost + DMA: order 100 µs (Table 1).
		if lat < 50*time.Microsecond || lat > 200*time.Microsecond {
			t.Errorf("read latency = %v, want ~100µs", lat)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

func TestInvalidNamespaceAndRange(t *testing.T) {
	r := newSSDRig()
	r.eng.Go("driver", func(p *sim.Proc) {
		r.dev.Submit(p, Command{Opcode: OpRead, CID: 1, NSID: 9, LBA: 0, Blocks: 1, Buf: 0})
		c, _ := waitCompletion(p, r.dev, 10*time.Millisecond)
		if c.Status != StatusInvalidNS {
			t.Errorf("status = %#x, want invalid NS", c.Status)
		}
		r.dev.Submit(p, Command{Opcode: OpRead, CID: 2, NSID: 1, LBA: 1 << 20, Blocks: 1, Buf: 0})
		c, _ = waitCompletion(p, r.dev, 10*time.Millisecond)
		if c.Status != StatusLBARange {
			t.Errorf("status = %#x, want LBA range", c.Status)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

func TestFailureFailsCommands(t *testing.T) {
	r := newSSDRig()
	r.eng.Go("driver", func(p *sim.Proc) {
		r.dev.Fail()
		r.dev.Submit(p, Command{Opcode: OpWrite, CID: 1, NSID: 1, LBA: 0, Blocks: 1, Buf: 0})
		c, ok := waitCompletion(p, r.dev, 10*time.Millisecond)
		if !ok || c.Status != StatusDeviceFault {
			t.Errorf("completion = %+v ok=%v, want device fault", c, ok)
		}
		if r.dev.Errors != 1 {
			t.Errorf("errors = %d", r.dev.Errors)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

func TestParallelWorkersOverlapReads(t *testing.T) {
	r := newSSDRig()
	r.eng.Go("driver", func(p *sim.Proc) {
		start := p.Now()
		n := 8
		for i := 0; i < n; i++ {
			r.dev.Submit(p, Command{Opcode: OpRead, CID: uint16(i), NSID: 1, LBA: uint64(i), Blocks: 1, Buf: int64(i) * BlockSize})
		}
		got := 0
		for got < n {
			if _, ok := r.dev.PollCompletion(); ok {
				got++
				continue
			}
			p.Sleep(time.Microsecond)
		}
		elapsed := p.Now() - start
		// 8 reads with 8 workers: ~1 media latency, not 8×.
		if elapsed > 300*time.Microsecond {
			t.Errorf("8 parallel reads took %v; workers not overlapping", elapsed)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

func TestQueueDepthEnforced(t *testing.T) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<20, cxl.DefaultParams())
	dev := New(eng, "ssd", pool.AttachPort("dma"), DefaultParams())
	dev.AddNamespace(1, 1024)
	// No Start(): commands pile up in the SQ.
	eng.Go("driver", func(p *sim.Proc) {
		accepted := 0
		for i := 0; i < 1030; i++ {
			if dev.Submit(p, Command{Opcode: OpRead, CID: uint16(i), NSID: 1, LBA: 0, Blocks: 1}) {
				accepted++
			}
		}
		if accepted != 1024 {
			t.Errorf("accepted %d, want queue depth 1024", accepted)
		}
		if dev.QueueFullRejects != 6 {
			t.Errorf("rejects = %d", dev.QueueFullRejects)
		}
	})
	eng.Run()
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	r := newSSDRig()
	r.pool.Poke(0, bytes.Repeat([]byte{0xFF}, BlockSize)) // dirty target buffer
	r.eng.Go("driver", func(p *sim.Proc) {
		r.dev.Submit(p, Command{Opcode: OpRead, CID: 1, NSID: 1, LBA: 500, Blocks: 1, Buf: 0})
		waitCompletion(p, r.dev, 10*time.Millisecond)
		p.Sleep(10 * time.Microsecond)
		got := make([]byte, BlockSize)
		r.pool.Peek(0, got)
		for _, b := range got {
			if b != 0 {
				t.Error("unwritten block returned nonzero data")
				return
			}
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

// roundTrip submits one command and waits for its completion.
func roundTrip(t *testing.T, p *sim.Proc, dev *SSD, cmd Command) {
	if !dev.Submit(p, cmd) {
		t.Fatal("submit refused")
	}
	if c, ok := waitCompletion(p, dev, 10*time.Millisecond); !ok || c.Status != StatusOK {
		t.Fatalf("completion %+v, ok %v", c, ok)
	}
}

// TestReadAndRewriteAllocFree: reads and writes stage their data through
// the engine's buffer pool, and a rewrite copies over the block it
// replaces, so once the blocks exist a read, and a rewrite of a written
// block, allocate nothing.
func TestReadAndRewriteAllocFree(t *testing.T) {
	r := newSSDRig()
	r.pool.Poke(0, bytes.Repeat([]byte{0x5A}, 2*BlockSize))
	var allocs float64
	r.eng.Go("driver", func(p *sim.Proc) {
		run := func() {
			roundTrip(t, p, r.dev, Command{Opcode: OpWrite, CID: 1, NSID: 1, LBA: 40, Blocks: 2, Buf: 0})
			roundTrip(t, p, r.dev, Command{Opcode: OpRead, CID: 2, NSID: 1, LBA: 40, Blocks: 2, Buf: 1 << 16})
			roundTrip(t, p, r.dev, Command{Opcode: OpRead, CID: 3, NSID: 1, LBA: 41, Blocks: 1, Buf: 1 << 17})
		}
		run() // the first write allocates the blocks; warms the pool and free lists
		allocs = testing.AllocsPerRun(20, run)
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.dev.Writes != 22 || r.dev.Reads != 44 { // AllocsPerRun warms up once more
		t.Fatalf("%d writes, %d reads; harness broken", r.dev.Writes, r.dev.Reads)
	}
	if allocs != 0 {
		t.Errorf("a rewrite and two reads allocated %.2f objects, want 0", allocs)
	}
}

// TestUnwrittenBlockReadsZeros: a read stages through a pooled buffer that
// may hold an earlier command's data; the part of a never-written block is
// cleared, not left to show it.
func TestUnwrittenBlockReadsZeros(t *testing.T) {
	r := newSSDRig()
	r.pool.Poke(0, bytes.Repeat([]byte{0xAB}, BlockSize))
	r.eng.Go("driver", func(p *sim.Proc) {
		roundTrip(t, p, r.dev, Command{Opcode: OpWrite, CID: 1, NSID: 1, LBA: 7, Blocks: 1, Buf: 0})
		roundTrip(t, p, r.dev, Command{Opcode: OpRead, CID: 2, NSID: 1, LBA: 7, Blocks: 1, Buf: 1 << 16})
		// The staging buffer of this read held block 7's bytes last.
		roundTrip(t, p, r.dev, Command{Opcode: OpRead, CID: 3, NSID: 1, LBA: 6, Blocks: 1, Buf: 1 << 17})
		p.Sleep(10 * time.Microsecond) // DMA write propagation
		got := make([]byte, BlockSize)
		r.pool.Peek(1<<17, got)
		if !bytes.Equal(got, make([]byte, BlockSize)) {
			t.Error("a never-written block read back nonzero bytes")
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}
