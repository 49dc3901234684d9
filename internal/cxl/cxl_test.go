package cxl

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"oasis/internal/bufpool"
	"oasis/internal/sim"
)

func newTestPool(size int64) *Pool {
	return NewPool(sim.New(), size, DefaultParams())
}

func TestPokePeekRoundTrip(t *testing.T) {
	p := newTestPool(1 << 20)
	data := []byte("hello, cxl pool")
	p.Poke(5000, data) // [5000, 5015) lies inside one page
	got := make([]byte, len(data))
	p.Peek(5000, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestPokePeekAcrossPages(t *testing.T) {
	p := newTestPool(1 << 20)
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	p.Poke(pageSize-100, data)
	got := make([]byte, len(data))
	p.Peek(pageSize-100, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page poke/peek mismatch")
	}
}

func TestPeekUntouchedIsZero(t *testing.T) {
	p := newTestPool(1 << 20)
	buf := []byte{1, 2, 3, 4}
	p.Peek(777, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("untouched memory must read zero")
		}
	}
}

// pattern fills n bytes that differ from zero and from their neighbours.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + seed | 1
	}
	return b
}

// Accesses that straddle a page boundary and a page-directory boundary,
// into memory that was never written on one side, read back exactly what
// was written and zeros everywhere else.
func TestPokePeekAcrossDirectories(t *testing.T) {
	const dirSpan = dirPages * pageSize
	p := newTestPool(4 * dirSpan)
	cases := []struct {
		name string
		addr int64
		n    int
	}{
		{"page", pageSize - 3, 10},
		{"directory", dirSpan - 5, 12},
		{"directory+pages", 2*dirSpan - pageSize - 1, 3*pageSize + 2},
	}
	for i, c := range cases {
		data := pattern(c.n, byte(i))
		p.Poke(c.addr, data)
		// Read a margin on both sides: the neighbours were never written.
		got := make([]byte, c.n+2*LineSize)
		for j := range got {
			got[j] = 0xEE
		}
		p.Peek(c.addr-LineSize, got)
		want := append(append(make([]byte, LineSize), data...), make([]byte, LineSize)...)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: [%d, %d) read back wrong", c.name, c.addr, c.addr+int64(c.n))
		}
	}
	// A read that starts in a written directory and runs into one nothing
	// ever touched.
	got := pattern(2*pageSize, 9)
	p.Peek(3*dirSpan-pageSize, got)
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Error("untouched directories must read zero")
	}
}

// A pool whose size is no multiple of the directory (or page) span: the
// last, partial directory and page are usable up to the last byte and no
// further.
func TestPoolSizeNotDirectoryMultiple(t *testing.T) {
	const size = dirPages*pageSize + 3*pageSize + LineSize
	p := newTestPool(size)
	tail := pattern(2*LineSize, 3)
	p.Poke(size-int64(len(tail)), tail)
	got := make([]byte, len(tail)+pageSize)
	p.Peek(size-int64(len(got)), got)
	if !bytes.Equal(got[pageSize:], tail) || !bytes.Equal(got[:pageSize], make([]byte, pageSize)) {
		t.Fatal("the pool's last bytes read back wrong")
	}
	for _, access := range []func(){
		func() { p.Peek(size-1, make([]byte, 2)) },
		func() { p.Poke(size, []byte{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic past the end of the pool")
				}
			}()
			access()
		}()
	}
}

// Reading memory nothing has written — the empty poll of a fresh ring —
// clears the buffer and allocates nothing, whichever page it lands on.
func TestPeekUnwrittenAllocatesNothing(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, 1<<30, DefaultParams())
	port := pool.AttachPort("h0")
	pool.Poke(pageSize, []byte{1}) // one written page among unwritten ones
	// Every read lands on pages no earlier read touched.
	addr := int64(2 * pageSize)
	next := func() int64 {
		addr += 37 * pageSize
		return addr
	}
	line, span := make([]byte, LineSize), make([]byte, pageSize+LineSize)
	for _, c := range []struct {
		name string
		buf  []byte
		read func()
	}{
		{"Peek", line[:40], func() { pool.Peek(next(), line[:40]) }},
		{"Peek across a page", span, func() { pool.Peek(next()+pageSize-LineSize, span) }},
		{"CollectLine", line, func() { port.CollectLine(next(), line) }},
	} {
		c.buf[0], c.buf[len(c.buf)-1] = 0xFF, 0xFF
		if allocs := testing.AllocsPerRun(200, c.read); allocs != 0 {
			t.Errorf("%s of unwritten memory: %v allocations per read, want 0", c.name, allocs)
		}
		if c.buf[0] != 0 || c.buf[len(c.buf)-1] != 0 {
			t.Errorf("%s of unwritten memory left bytes in the buffer, want zeros", c.name)
		}
	}
	got := []byte{0xFF}
	pool.Peek(pageSize, got)
	if got[0] != 1 {
		t.Fatal("the written page lost its byte")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	p := newTestPool(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	p.Peek(4090, make([]byte, 10))
}

func TestAllocAlignmentAndExhaustion(t *testing.T) {
	p := newTestPool(1024)
	r1, err := p.Alloc(100) // rounds to 128
	if err != nil {
		t.Fatal(err)
	}
	if r1.Size != 128 || r1.Base%LineSize != 0 {
		t.Fatalf("r1 = %+v", r1)
	}
	r2, err := p.Alloc(896)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Base != 128 {
		t.Fatalf("r2.Base = %d, want 128", r2.Base)
	}
	if _, err := p.Alloc(64); err == nil {
		t.Fatal("expected exhaustion")
	}
}

// A request the pool cannot hold — one so large that rounding it up to a
// line would overflow, or one of no bytes at all — is refused, and the
// allocation after it lands where it would have without the refusal.
func TestAllocRejectsOversizedAndEmpty(t *testing.T) {
	for _, size := range []int64{math.MaxInt64 - 10, 0, -1} {
		p := newTestPool(1024)
		if _, err := p.Alloc(100); err != nil {
			t.Fatal(err)
		}
		if r, err := p.Alloc(size); err == nil {
			t.Errorf("Alloc(%d) = %+v, want an error", size, r)
		}
		r, err := p.Alloc(64)
		if err != nil || r.Base != 128 {
			t.Errorf("after Alloc(%d): next region = %+v, %v; want base 128", size, r, err)
		}
	}
}

func TestAllocsNeverOverlap(t *testing.T) {
	// Property: live allocations never overlap.
	f := func(ops []uint16) bool {
		p := newTestPool(1 << 16)
		var live []Region
		for _, op := range ops {
			size := int64(op%2048) + 1
			r, err := p.Alloc(size)
			if err != nil {
				continue // exhausted is fine
			}
			for _, o := range live {
				if r.Base < o.Base+o.Size && o.Base < r.Base+r.Size {
					return false
				}
			}
			live = append(live, r)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionContains(t *testing.T) {
	p := newTestPool(1 << 12)
	r, _ := p.Alloc(256)
	if !r.Contains(r.Base, 256) || r.Contains(r.Base, 257) || r.Contains(r.Base-1, 1) {
		t.Fatal("Contains boundary checks failed")
	}
}

func TestFetchLineTimingAndMetering(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, 1<<20, Params{LoadLatency: 200 * time.Nanosecond, PortBandwidth: 64e9})
	port := pool.AttachPort("h0")
	pool.Poke(0, []byte{0xAB})

	var arrival sim.Duration
	eng.At(0, func() { arrival = port.FetchLine(0, "message") })
	eng.Run()
	// Serialization of 64B at 64 GB/s = 1 ns; arrival = 1ns + 200ns.
	if arrival != 201*time.Nanosecond {
		t.Fatalf("arrival = %v, want 201ns", arrival)
	}
	if port.ReadMeter().Category("message") != 64 {
		t.Fatalf("metered %d bytes, want 64", port.ReadMeter().Category("message"))
	}
	buf := make([]byte, LineSize)
	port.CollectLine(0, buf)
	if buf[0] != 0xAB {
		t.Fatal("CollectLine returned wrong data")
	}
}

func TestLinkSerializationQueues(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, 1<<20, Params{LoadLatency: 100 * time.Nanosecond, PortBandwidth: 6.4e9})
	port := pool.AttachPort("h0")
	// 64 B at 6.4 GB/s = 10 ns serialization. Two back-to-back fetches:
	// the second queues behind the first on the link.
	var a1, a2 sim.Duration
	eng.At(0, func() {
		a1 = port.FetchLine(0, "m")
		a2 = port.FetchLine(64, "m")
	})
	eng.Run()
	if a1 != 110*time.Nanosecond || a2 != 120*time.Nanosecond {
		t.Fatalf("arrivals = %v, %v; want 110ns, 120ns", a1, a2)
	}
}

func TestWriteLineUpdatesPoolImmediately(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, 1<<20, DefaultParams())
	port := pool.AttachPort("h0")
	data := make([]byte, LineSize)
	data[0] = 0xCD
	eng.At(0, func() { port.WriteLine(128, data, "message") })
	eng.Run()
	got := make([]byte, 1)
	pool.Peek(128, got)
	if got[0] != 0xCD {
		t.Fatal("WriteLine did not reach pool memory")
	}
	if port.WriteMeter().Category("message") != 64 {
		t.Fatal("write not metered")
	}
}

func TestDMAReadWholeLinesMetered(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, 1<<20, DefaultParams())
	port := pool.AttachPort("nic-dma")
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}
	pool.Poke(30, payload) // spans lines 0,1,2 (offsets 30..129)
	buf := make([]byte, 100)
	eng.At(0, func() { port.DMARead(30, buf, "payload") })
	eng.Run()
	if !bytes.Equal(buf, payload) {
		t.Fatal("DMARead data mismatch")
	}
	if got := port.ReadMeter().Category("payload"); got != 3*64 {
		t.Fatalf("metered %d, want 192 (3 lines)", got)
	}
}

func TestDMAWriteRoundTrip(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, 1<<20, DefaultParams())
	port := pool.AttachPort("nic-dma")
	payload := []byte("packet payload bytes")
	var done sim.Duration
	eng.At(0, func() { done = port.DMAWrite(4096, payload, "payload") })
	eng.Run()
	if done <= 0 {
		t.Fatal("DMAWrite completion time must be positive")
	}
	got := make([]byte, len(payload))
	pool.Peek(4096, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("DMAWrite data mismatch")
	}
}

func TestLinesSpanned(t *testing.T) {
	cases := []struct {
		addr int64
		n    int
		want int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 64, 1}, {0, 65, 2},
		{63, 1, 1}, {63, 2, 2}, {30, 100, 3}, {64, 64, 1},
	}
	for _, c := range cases {
		if got := linesSpanned(c.addr, c.n); got != c.want {
			t.Errorf("linesSpanned(%d,%d) = %d, want %d", c.addr, c.n, got, c.want)
		}
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0) != 0 || LineAddr(63) != 0 || LineAddr(64) != 64 || LineAddr(130) != 128 {
		t.Fatal("LineAddr wrong")
	}
}

func TestPoolSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unaligned pool size")
		}
	}()
	NewPool(sim.New(), 100, DefaultParams())
}

func TestQoSThrottlesClassAndProtectsOthers(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, 1<<20, Params{LoadLatency: 200 * time.Nanosecond, WriteLatency: 100 * time.Nanosecond, PortBandwidth: 32e9})
	port := pool.AttachPort("h0")
	port.SetQoS("olap", 0.5)
	var olapDone, msgDone sim.Duration
	eng.At(0, func() {
		// 64 KiB OLAP burst: at 16 GB/s (half the port) it occupies 4 µs...
		buf := make([]byte, 65536)
		olapDone = port.DMARead(0, buf, "olap")
		// ...but a message fetch issued right after must NOT queue behind it.
		msgDone = port.FetchLine(65536, "message")
	})
	eng.Run()
	if olapDone < 4*time.Microsecond {
		t.Fatalf("olap burst finished at %v; throttle to 16 GB/s not applied", olapDone)
	}
	if msgDone > time.Microsecond {
		t.Fatalf("message fetch at %v queued behind the throttled class", msgDone)
	}
}

func TestNoQoSMeansFIFOInterference(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, 1<<20, Params{LoadLatency: 200 * time.Nanosecond, WriteLatency: 100 * time.Nanosecond, PortBandwidth: 32e9})
	port := pool.AttachPort("h0")
	var msgDone sim.Duration
	eng.At(0, func() {
		buf := make([]byte, 65536)
		port.DMARead(0, buf, "olap")
		msgDone = port.FetchLine(65536, "message")
	})
	eng.Run()
	// Without QoS the line fetch serializes behind 64 KiB at 32 GB/s (~2 µs).
	if msgDone < 2*time.Microsecond {
		t.Fatalf("message fetch at %v; expected FIFO queueing without QoS", msgDone)
	}
}

func TestQoSRejectsBadFraction(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, 1<<20, DefaultParams())
	port := pool.AttachPort("h0")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for fraction > 1")
		}
	}()
	port.SetQoS("x", 1.5)
}

// Pages carved from shared slabs stay apart: seeded writes of up to three
// pages, at scattered addresses so that neighbouring pool pages come from
// different slabs and slab positions, and seeded discards among them, read
// back byte for byte as a flat copy of the pool does — a discard zeroing
// only the whole pages in its range — and reading memory nothing has
// written between them allocates nothing. Committing a page is a slab carve
// or a released page, not an allocation of its own.
func TestSlabPagesMatchFlatMemory(t *testing.T) {
	const size = 64 * dirPages * pageSize
	p := newTestPool(size)
	p.scribble = false
	flat := make([]byte, size)
	rng := uint64(1)
	rand := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	for i := 0; i < 3000; i++ {
		n := 1 + rand(3*pageSize)
		addr := int64(rand(size - n))
		if rand(4) == 0 {
			p.Discard(addr, n)
			for a := (addr + pageSize - 1) &^ (pageSize - 1); a+pageSize <= addr+int64(n); a += pageSize {
				clear(flat[a : a+pageSize])
			}
		} else {
			data := pattern(n, byte(i))
			p.Poke(addr, data)
			copy(flat[addr:], data)
		}
		if i%100 == 0 {
			got := make([]byte, size)
			p.Peek(0, got)
			if !bytes.Equal(got, flat) {
				t.Fatalf("after %d writes the pool reads back differently from a flat copy", i+1)
			}
		}
	}
	if p.slabN == slabMinPages {
		t.Fatal("the writes never filled the first slab")
	}
	// Unwritten pages among the written ones: find one, read it.
	var hole int64 = -1
	for d, dir := range p.dirs {
		for i, pg := range dir {
			if pg == nil {
				hole = (int64(d)*dirPages + int64(i)) * pageSize
				break
			}
		}
		if hole >= 0 {
			break
		}
	}
	if hole < 0 {
		t.Fatal("no unwritten page left to read")
	}
	buf := []byte{0xFF, 0xFF}
	if allocs := testing.AllocsPerRun(100, func() { p.Peek(hole+7, buf) }); allocs != 0 || buf[0] != 0 || buf[1] != 0 {
		t.Fatalf("reading an unwritten page: %v allocations, bytes %v; want 0 and zeros", allocs, buf)
	}
	// A discarded page reads as zeros, allocating nothing, and a page
	// released and written again reuses its memory.
	p.Poke(hole, pattern(pageSize, 9))
	p.Discard(hole, pageSize)
	if p.page(hole) != nil {
		t.Fatal("a discarded page is still committed")
	}
	buf[0], buf[1] = 0xFF, 0xFF
	if allocs := testing.AllocsPerRun(100, func() { p.Peek(hole+7, buf) }); allocs != 0 || buf[0] != 0 || buf[1] != 0 {
		t.Fatalf("reading a discarded page: %v allocations, bytes %v; want 0 and zeros", allocs, buf)
	}
	page := pattern(pageSize, 3)
	if allocs := testing.AllocsPerRun(100, func() {
		p.Poke(hole, page)
		p.Discard(hole, pageSize)
	}); allocs != 0 {
		t.Fatalf("rewriting a released page made %v allocations, want 0", allocs)
	}
	// Committing a directory's pages one by one allocates the directory
	// table, the directory and the slabs, nothing per page.
	want, carved := 2.0, 0
	for n := slabMinPages; carved < dirPages; n = min(2*n, slabMaxPages) {
		want, carved = want+1, carved+n
	}
	eng := sim.New()
	fresh := make([]*Pool, 4) // AllocsPerRun(3) runs once more to warm up
	for i := range fresh {
		fresh[i] = NewPool(eng, size, DefaultParams())
	}
	one := []byte{1}
	allocs := testing.AllocsPerRun(3, func() {
		q := fresh[0]
		fresh = fresh[1:]
		for a := int64(0); a < dirPages*pageSize; a += pageSize {
			q.Poke(a, one)
		}
	})
	if allocs != want {
		t.Fatalf("committing %d pages made %v allocations, want %v", dirPages, allocs, want)
	}
}

// Under OASIS_SIMCHECK=1 a discarded page is poisoned in place and kept, so
// a read of freed bytes sees bufpool.Poison; partial pages at the edges of
// the range keep their bytes either way.
func TestDiscardScribbles(t *testing.T) {
	p := newTestPool(1 << 20)
	p.scribble = true
	p.Poke(1000, pattern(2*pageSize, 5))
	p.Discard(1000, 2*pageSize) // [1000, 1512): the page [1024, 1280) is whole, [1280, 1536) is not
	got := make([]byte, 2*pageSize)
	p.Peek(1000, got)
	want := pattern(2*pageSize, 5)
	for i := 24; i < 24+pageSize; i++ {
		want[i] = bufpool.Poison
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("after a scribbling discard the range reads\n%x\nwant\n%x", got, want)
	}
	if len(p.spare) != 0 {
		t.Fatalf("a scribbling discard released %d pages, want 0", len(p.spare))
	}
}
