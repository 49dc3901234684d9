package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"oasis/internal/cxl"
	"oasis/internal/sim"
)

// refArea is the buffer area as it was before buffers were listed on first
// use: every buffer on one LIFO free list from the start, lowest address on
// top. It is kept as the reference the bump index plus free list must
// reproduce address for address.
type refArea struct {
	free       []int64
	allocFails int64
}

func newRefArea(region cxl.Region, bufSize int) *refArea {
	n := region.Size / int64(bufSize)
	r := &refArea{free: make([]int64, 0, n)}
	for i := n - 1; i >= 0; i-- {
		r.free = append(r.free, region.Base+i*int64(bufSize))
	}
	return r
}

func (r *refArea) Alloc() (int64, bool) {
	if len(r.free) == 0 {
		r.allocFails++
		return 0, false
	}
	addr := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	return addr, true
}

func (r *refArea) Free(addr int64) { r.free = append(r.free, addr) }

// TestBufferAreaMatchesEagerFreeList runs seeded Alloc/Free sequences —
// bursts that exhaust the area, frees in random order, refills that mix
// freed and never-used buffers — against the eager free list, and requires
// the same address, the same refusals and the same FreeCount after every
// step.
func TestBufferAreaMatchesEagerFreeList(t *testing.T) {
	_, pool := testPool()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bufSize := cxl.LineSize * (1 + rng.Intn(4))
		n := 1 + rng.Intn(40)
		region, err := pool.Alloc(int64(n*bufSize + cxl.LineSize*rng.Intn(bufSize/cxl.LineSize))) // a ragged tail holds no buffer
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewBufferArea(region, bufSize)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefArea(region, bufSize)
		if a.Capacity() != n {
			t.Fatalf("seed %d: capacity %d, want %d", seed, a.Capacity(), n)
		}
		var held []int64
		allocBias := 0.5
		for step := 0; step < 600; step++ {
			if step%50 == 0 {
				allocBias = rng.Float64() // phases that fill to exhaustion and drain
			}
			if rng.Float64() < allocBias || len(held) == 0 {
				got, ok := a.Alloc()
				want, wantOK := ref.Alloc()
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: Alloc = %#x, %v; eager list %#x, %v", seed, step, got, ok, want, wantOK)
				}
				if ok {
					held = append(held, got)
				}
			} else {
				i := rng.Intn(len(held))
				addr := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				a.Free(addr)
				ref.Free(addr)
			}
			if a.FreeCount() != len(ref.free) || a.AllocFails != ref.allocFails {
				t.Fatalf("seed %d step %d: FreeCount %d AllocFails %d; eager list %d, %d",
					seed, step, a.FreeCount(), a.AllocFails, len(ref.free), ref.allocFails)
			}
		}
		if ref.allocFails == 0 {
			t.Fatalf("seed %d: the sequence never exhausted the area", seed)
		}
	}
}

// TestBufferAreaDoubleFreePanics: freeing a buffer that is not out — freed
// twice, or never handed out — would give it two owners, and with freed
// pages discarded wipe the live owner's bytes; it panics with the address.
func TestBufferAreaDoubleFreePanics(t *testing.T) {
	_, pool := testPool()
	region, err := pool.Alloc(130 * 512)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewBufferArea(region, 512)
	if err != nil {
		t.Fatal(err)
	}
	var held []int64
	for i := 0; i < 100; i++ { // past the bitset's first word
		addr, _ := a.Alloc()
		held = append(held, addr)
	}
	a.Free(held[70])
	a.Free(held[3])
	mustPanic := func(addr int64) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprintf("%#x", addr)) {
				t.Fatalf("Free(%#x) recovered %v; want a panic naming the buffer", addr, r)
			}
		}()
		a.Free(addr)
	}
	mustPanic(held[70])                      // freed twice
	mustPanic(held[3])                       // freed twice, in the first word
	mustPanic(region.Base + 120*512)         // never handed out
	if got, _ := a.Alloc(); got != held[3] { // the refusals left the free list alone
		t.Fatalf("Alloc after the refused frees = %#x, want %#x", got, held[3])
	}
	if a.Frees != 2 || a.FreeCount() != 130-99 {
		t.Fatalf("Frees %d FreeCount %d; want 2, %d", a.Frees, a.FreeCount(), 130-99)
	}
}

// TestFreedBuffersReleasePages cycles 1 024 posted buffers the way a NIC's
// RX ring does — every buffer out at once, each in turn written, read and
// freed, then handed out again at the ring's tail — and requires the host
// memory allocated meanwhile to stay within the pages of the few buffers
// holding data at once, not of every buffer the ring ever filled. The page
// table's directories (1 KiB per 32 KiB of pool written) are the one cost
// that follows the addresses touched.
func TestFreedBuffersReleasePages(t *testing.T) {
	if sim.Checking() {
		t.Skip("OASIS_SIMCHECK=1 poisons discarded pages in place and keeps them")
	}
	const posted, bufSize, filled = 1024, 2048, 4
	_, pool := testPool()
	region, err := pool.Alloc(posted * bufSize)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewBufferArea(region, bufSize)
	if err != nil {
		t.Fatal(err)
	}
	ring := make([]int64, posted) // a circle: the slot a buffer leaves is the tail
	for i := range ring {
		ring[i], _ = a.Alloc()
	}
	data, buf := make([]byte, 1500), make([]byte, 1500)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for head := 0; head < 3*posted; head += filled {
		slots := ring[head%posted:][:filled]
		for _, addr := range slots {
			data[0], data[1499] = byte(head), byte(addr)
			pool.Poke(addr, data)
		}
		for k, addr := range slots {
			pool.Peek(addr, buf)
			if buf[0] != byte(head) || buf[1499] != byte(addr) {
				t.Fatalf("buffer %#x reads back wrong", addr)
			}
			a.Free(addr)
			slots[k], _ = a.Alloc()
		}
	}
	runtime.ReadMemStats(&after)
	dirs := 2 * (posted*bufSize/(32<<10) + 1) * 1024 // with the directory table's growth
	got, want := int64(after.TotalAlloc-before.TotalAlloc), int64(4*filled*bufSize+dirs)
	t.Logf("cycling %d posted buffers allocated %d B", posted, got)
	if got > want {
		t.Fatalf("cycling %d posted buffers allocated %d B; want at most %d: four times the %d buffers holding data, plus directories", posted, got, want, filled)
	}
}
