package cache

import "math/bits"

// lineTable maps a line address to its resident line: a chained hash table
// whose chain link is the line's own hnext field, so an insert allocates
// nothing but the occasional doubling. A slot is the Fibonacci hash of the
// address (its top bits after a multiply by 2⁶⁴/φ, which spreads the
// 64-byte-aligned addresses a cache sees), and the table doubles when it
// holds as many lines as slots. Nothing iterates over it, so its order can
// never reach the simulation: a walk over the resident lines follows the LRU
// list.
type lineTable struct {
	slots []*line // len is a power of two, or zero before the first insert
	shift uint    // 64 − log2(len(slots))
	n     int
}

const fibonacci = 0x9E3779B97F4A7C15 // 2⁶⁴/φ, odd

func (t *lineTable) slot(a int64) uint64 { return uint64(a) * fibonacci >> t.shift }

// get returns the line for address a, or nil.
func (t *lineTable) get(a int64) *line {
	if t.n == 0 {
		return nil
	}
	for ln := t.slots[t.slot(a)]; ln != nil; ln = ln.hnext {
		if ln.addr == a {
			return ln
		}
	}
	return nil
}

// put adds ln, whose address must not be in the table.
func (t *lineTable) put(ln *line) {
	if t.n >= len(t.slots) {
		t.grow()
	}
	i := t.slot(ln.addr)
	ln.hnext = t.slots[i]
	t.slots[i] = ln
	t.n++
}

// del removes ln, which must be in the table.
func (t *lineTable) del(ln *line) {
	p := &t.slots[t.slot(ln.addr)]
	for *p != ln {
		p = &(*p).hnext
	}
	*p = ln.hnext
	ln.hnext = nil
	t.n--
}

// grow doubles the slot array (to 8 slots at first) and rehashes.
func (t *lineTable) grow() {
	old := t.slots
	size := max(8, 2*len(old))
	t.slots = make([]*line, size)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for _, ln := range old {
		for ln != nil {
			next := ln.hnext
			i := t.slot(ln.addr)
			ln.hnext = t.slots[i]
			t.slots[i] = ln
			ln = next
		}
	}
}
