package core

import (
	"math/rand"
	"testing"

	"oasis/internal/cxl"
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
