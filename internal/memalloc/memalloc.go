// Package memalloc provides a first-fit span allocator used by every
// simulated memory (the CXL pool, per-host local DDR).
package memalloc

import "fmt"

type span struct{ base, end int64 }

// Allocator hands out [base, base+size) spans from a fixed range with
// first-fit placement and coalescing free.
type Allocator struct {
	size  int64
	align int64
	holes []span
}

// New returns an allocator over [0, size) that rounds every request up to a
// multiple of align.
func New(size, align int64) *Allocator {
	if size <= 0 || align <= 0 || size%align != 0 {
		panic(fmt.Sprintf("memalloc: invalid size %d / align %d", size, align))
	}
	return &Allocator{size: size, align: align, holes: []span{{0, size}}}
}

// Size returns the managed range's total bytes.
func (a *Allocator) Size() int64 { return a.size }

// Alloc reserves size bytes (rounded up to the alignment), returning the
// base offset.
func (a *Allocator) Alloc(size int64) (base, rounded int64, err error) {
	if size <= 0 {
		return 0, 0, fmt.Errorf("memalloc: invalid allocation size %d", size)
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
			return base, size, nil
		}
	}
	return 0, 0, fmt.Errorf("memalloc: out of memory allocating %d bytes (%d free)", size, a.FreeBytes())
}

// Free returns [base, base+size) to the allocator, coalescing with
// neighbouring holes. size must be the rounded size returned by Alloc.
func (a *Allocator) Free(base, size int64) {
	if base < 0 || size <= 0 || base+size > a.size || base%a.align != 0 || size%a.align != 0 {
		panic(fmt.Sprintf("memalloc: bad free [%d, %d)", base, base+size))
	}
	s := span{base, base + size}
	idx := len(a.holes)
	for i, h := range a.holes {
		if h.base > s.base {
			idx = i
			break
		}
	}
	a.holes = append(a.holes, span{})
	copy(a.holes[idx+1:], a.holes[idx:])
	a.holes[idx] = s
	merged := a.holes[:0]
	for _, h := range a.holes {
		if n := len(merged); n > 0 && merged[n-1].end >= h.base {
			if h.base < merged[n-1].end {
				// Overlap means a double free — always a simulation bug.
				panic(fmt.Sprintf("memalloc: double free detected at [%d, %d)", base, base+size))
			}
			if h.end > merged[n-1].end {
				merged[n-1].end = h.end
			}
			continue
		}
		merged = append(merged, h)
	}
	a.holes = merged
}

// FreeBytes returns the number of unallocated bytes.
func (a *Allocator) FreeBytes() int64 {
	var n int64
	for _, h := range a.holes {
		n += h.end - h.base
	}
	return n
}
