package host

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"oasis/internal/cxl"
	"oasis/internal/sim"
)

func TestLocalMemoryCPURoundTrip(t *testing.T) {
	eng := sim.New()
	mem := NewLocalMemory(eng, 1<<20, DefaultMemParams())
	data := []byte("local ddr contents")
	eng.Go("t", func(p *sim.Proc) {
		start := p.Now()
		mem.CPUWrite(p, 5000, data)
		buf := make([]byte, len(data))
		mem.CPURead(p, 5000, buf)
		if !bytes.Equal(buf, data) {
			t.Error("round trip mismatch")
		}
		if el := p.Now() - start; el < 150*time.Nanosecond {
			t.Errorf("two DDR accesses took %v, want >= 2×90ns-ish", el)
		}
	})
	eng.Run()
}

func TestLocalMemoryDMAVisibilityAtCompletion(t *testing.T) {
	eng := sim.New()
	mem := NewLocalMemory(eng, 1<<20, DefaultMemParams())
	var done sim.Duration
	eng.At(0, func() { done = mem.DMAWrite(0, []byte{42}, "payload") })
	probe := make([]byte, 1)
	eng.At(done/2, func() { mem.Peek(0, probe) }) // mid-flight: not yet visible
	eng.Run()
	if probe[0] != 0 {
		t.Fatal("DMA write visible before completion")
	}
	final := make([]byte, 1)
	mem.Peek(0, final)
	if final[0] != 42 {
		t.Fatal("DMA write never landed")
	}
}

func TestLocalMemoryAllocFree(t *testing.T) {
	eng := sim.New()
	mem := NewLocalMemory(eng, 1<<16, DefaultMemParams())
	base, rounded, err := mem.Alloc(100)
	if err != nil || rounded != 128 {
		t.Fatalf("Alloc = %d,%d,%v", base, rounded, err)
	}
	mem.Free(base, rounded)
	if _, _, err := mem.Alloc(1 << 16); err != nil {
		t.Fatalf("full-size alloc after free: %v", err)
	}
}

func TestLocalMemoryBoundsPanic(t *testing.T) {
	eng := sim.New()
	mem := NewLocalMemory(eng, 4096, DefaultMemParams())
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-range panic")
		}
	}()
	mem.Poke(4090, make([]byte, 10))
}

func TestHostInPod(t *testing.T) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<20, cxl.DefaultParams())
	h := New(eng, 0, "host0", pool, DefaultConfig())
	if !h.InPod() || h.Cache == nil || h.CXLPort == nil {
		t.Fatal("pod host must have CXL port and cache")
	}
	client := New(eng, 1, "client", nil, DefaultConfig())
	if client.InPod() || client.Cache != nil {
		t.Fatal("non-pod host must not have CXL attachments")
	}
}

// Building a host must not pay for its memory size: the page table grows on
// first touch, up to and including the last page of the address space.
func TestLocalMemoryIsLazy(t *testing.T) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<20, cxl.DefaultParams())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := New(eng, 0, "h0", pool, DefaultConfig())
	runtime.ReadMemStats(&after)
	if kb := (after.TotalAlloc - before.TotalAlloc) >> 10; kb >= 64 {
		t.Fatalf("a fresh host with %d MiB of DDR allocated %d kB, want < 64 kB", DefaultConfig().LocalMemBytes>>20, kb)
	}
	size := DefaultConfig().LocalMemBytes
	want := []byte("top of memory")
	addr := size - int64(len(want))
	h.Local.Poke(addr, want)
	got := make([]byte, len(want))
	h.Local.Peek(addr, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip at the last page: got %q, want %q", got, want)
	}
	h.Local.Peek(size/2, got) // a never-written page below the top reads as zeroes
	if !bytes.Equal(got, make([]byte, len(want))) {
		t.Fatalf("untouched page read %q, want zeroes", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("access past the end of memory did not panic")
		}
	}()
	h.Local.Poke(size-1, []byte{1, 2})
}
