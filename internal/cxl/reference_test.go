package cxl

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"oasis/internal/sim"
)

// refAllocator is the first-fit span allocator the pool used before its
// bump pointer, alloc half only (pool memory is never freed): a sorted list
// of holes, each request rounded up to the line size and carved from the
// front of the first hole it fits. It is kept as the reference the bump
// pointer must agree with on every allocation.
type refAllocator struct {
	align int64
	holes []refSpan
}

type refSpan struct{ base, end int64 }

func newRefAllocator(size, align int64) *refAllocator {
	return &refAllocator{align: align, holes: []refSpan{{0, size}}}
}

func (a *refAllocator) alloc(size int64) (base, rounded int64, ok bool) {
	if size <= 0 {
		return 0, 0, false
	}
	size = (size + a.align - 1) / a.align * a.align
	for i, h := range a.holes {
		if h.end-h.base >= size {
			base = h.base
			h.base += size
			if h.base == h.end {
				a.holes = append(a.holes[:i], a.holes[i+1:]...)
			} else {
				a.holes[i] = h
			}
			return base, size, true
		}
	}
	return 0, 0, false
}

// largestHole is the biggest request that still fits: the exact-fit size.
func (a *refAllocator) largestHole() int64 {
	var n int64
	for _, h := range a.holes {
		n = max(n, h.end-h.base)
	}
	return n
}

// refClasses is a linear scan over every class override ever recorded.
type refClasses []classSpan

func (cs refClasses) classFor(addr int64, params Params) (load, write sim.Duration) {
	for _, s := range cs {
		if s.base <= addr && addr < s.end {
			load, write = s.c.Load, s.c.Write
		}
	}
	if load == 0 {
		load = params.LoadLatency
	}
	if write == 0 {
		write = params.WriteLatency
	}
	return load, write
}

// Seeded sequences of Alloc and AllocClass — sizes from below zero to past
// the pool's end, exact fits of what is left, requests once the pool is
// exhausted, default and overridden latency classes — give the same
// (base, size, ok) at every step as the first-fit reference, and every
// region edge resolves to the same latency class.
func TestAllocMatchesFirstFitReference(t *testing.T) {
	params := DefaultParams()
	classes := []Class{{}, LocalClass(), {Load: 1000}, {Write: 7 * time.Nanosecond}, {Load: 5, Write: 6}}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := LineSize * (1 + rng.Int63n(256))
		pool := NewPool(sim.New(), size, params)
		ref := newRefAllocator(size, LineSize)
		var spans refClasses
		for step := 0; step < 200; step++ {
			var n int64
			switch rng.Intn(6) {
			case 0: // anywhere in [-64, size+64]
				n = rng.Int63n(size+129) - 64
			case 1: // small, around the line size
				n = rng.Int63n(4*LineSize+129) - 64
			case 2: // exactly what is left
				n = ref.largestHole()
			case 3: // one byte more than what is left
				n = ref.largestHole() + 1
			case 4: // what is left, less up to a line
				n = ref.largestHole() - rng.Int63n(LineSize)
			default:
				n = rng.Int63n(LineSize + 1)
			}
			c := classes[rng.Intn(len(classes))]
			var r Region
			var err error
			if rng.Intn(3) == 0 {
				r, err = pool.Alloc(n)
				c = Class{}
			} else {
				r, err = pool.AllocClass(n, c)
			}
			base, rounded, ok := ref.alloc(n)
			got := fmt.Sprint(r.Base, r.Size, err == nil)
			if want := fmt.Sprint(base, rounded, ok); got != want {
				t.Fatalf("seed %d step %d: Alloc(%d) of a %d-byte pool = (base size ok) %s, reference %s", seed, step, n, size, got, want)
			}
			if !ok {
				continue
			}
			if c != (Class{}) {
				spans = append(spans, classSpan{base: base, end: base + rounded, c: c})
			}
			for _, addr := range []int64{base - 1, base, base + rounded - 1, base + rounded} {
				if addr < 0 || addr >= size {
					continue
				}
				gl, gw := pool.classFor(addr)
				wl, ww := spans.classFor(addr, params)
				if gl != wl || gw != ww {
					t.Fatalf("seed %d step %d: classFor(%d) = %v/%v, reference %v/%v", seed, step, addr, gl, gw, wl, ww)
				}
			}
		}
	}
}
