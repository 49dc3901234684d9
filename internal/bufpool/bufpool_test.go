package bufpool

import "testing"

func TestGetLenAndClassCap(t *testing.T) {
	p := New()
	for _, n := range []int{1, 63, 64, 65, 100, 1 << 12, 1 << 16} {
		buf := p.Get(n)
		if len(buf) != n {
			t.Fatalf("Get(%d): len=%d", n, len(buf))
		}
		if c := cap(buf); c&(c-1) != 0 || c < n {
			t.Fatalf("Get(%d): cap=%d not a covering power of two", n, c)
		}
	}
}

func TestRecycleRoundTrip(t *testing.T) {
	p := New()
	a := p.Get(100)
	a[0] = 0xAB
	p.Put(a)
	b := p.Get(70) // same 128 B class
	if p.Hits != 1 {
		t.Fatalf("expected a pool hit, got %d", p.Hits)
	}
	if cap(b) != 128 {
		t.Fatalf("recycled cap=%d, want 128", cap(b))
	}
	// Same class, different length: the recycled buffer is re-sliced.
	if len(b) != 70 {
		t.Fatalf("recycled len=%d, want 70", len(b))
	}
}

func TestOversizeAndZeroFallThrough(t *testing.T) {
	p := New()
	if buf := p.Get(0); buf != nil {
		t.Fatalf("Get(0) = %v, want nil", buf)
	}
	big := p.Get(1<<16 + 1)
	if len(big) != 1<<16+1 {
		t.Fatalf("oversize len=%d", len(big))
	}
	p.Put(big) // dropped: cap exceeds the pooled range
	if got := p.Get(1<<16 + 1); &got[0] == &big[0] {
		t.Fatal("oversize buffer was pooled")
	}
}

func TestPutForeignSliceDropped(t *testing.T) {
	p := New()
	p.Put(make([]byte, 100)) // cap 100: not a class size, dropped
	if buf := p.Get(100); cap(buf) != 128 {
		t.Fatalf("foreign slice entered the pool: cap=%d", cap(buf))
	}
	if p.Hits != 0 {
		t.Fatalf("unexpected hit count %d", p.Hits)
	}
	p.Put(nil) // must not panic
}

// TestPutKeepsAnyClassSizedSlice pins what Put really checks: the capacity,
// not the provenance. A slice from make whose capacity is a class size is
// kept and comes back from Get — which is why a caller may only Put what it
// owns.
func TestPutKeepsAnyClassSizedSlice(t *testing.T) {
	p := New()
	foreign := make([]byte, 128)
	p.Put(foreign)
	got := p.Get(100)
	if p.Hits != 1 || &got[0] != &foreign[0] {
		t.Fatalf("make([]byte, 128) was not pooled (hits %d)", p.Hits)
	}
}

// TestPutScribbles: with the use-after-release guard on (OASIS_SIMCHECK=1),
// every byte Put takes back reads Poison, past len up to cap too; a dropped
// foreign slice is scribbled as well.
func TestPutScribbles(t *testing.T) {
	defer func(on bool) { scribble = on }(scribble)
	scribble = true
	p := New()
	a := p.Get(100)
	for i := range a {
		a[i] = byte(i)
	}
	p.Put(a[:10])
	for i, b := range a[:cap(a)] {
		if b != Poison {
			t.Fatalf("byte %d of a released buffer reads %#x, want %#x", i, b, Poison)
		}
	}
	odd := []byte{1, 2, 3}
	p.Put(odd)
	if odd[0] != Poison || odd[2] != Poison {
		t.Fatalf("dropped slice not scribbled: %v", odd)
	}
}

func TestPerClassCapBounded(t *testing.T) {
	p := New()
	bufs := make([][]byte, 0, perClassCap+10)
	for i := 0; i < perClassCap+10; i++ {
		bufs = append(bufs, make([]byte, 64, 64))
	}
	for _, b := range bufs {
		p.Put(b)
	}
	if n := len(p.free[0]); n != perClassCap {
		t.Fatalf("class 0 holds %d buffers, want cap %d", n, perClassCap)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 16, nClasses - 1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Fatalf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	if classFor(0) != -1 || classFor(1<<16+1) != -1 {
		t.Fatal("out-of-range sizes must return -1")
	}
}

func BenchmarkGetPut(b *testing.B) {
	p := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := p.Get(1500)
		p.Put(buf)
	}
}

// TestLoansAreHeldPerOwner: an owner's buffer goes back to the pool at its
// own Return, never at another owner's; ReturnAll gives back every one.
func TestLoansAreHeldPerOwner(t *testing.T) {
	p := New()
	l := Loans{Pool: p}
	one, two := new(int), new(int)
	a, b := p.Get(100), p.Get(100)
	l.Lend(one, a)
	l.Lend(two, b)
	l.Return(two)
	if p.Puts != 1 || &p.Get(100)[0] != &b[0] {
		t.Fatalf("Return(two) put %d buffers back, want two's one", p.Puts)
	}
	l.Return(two) // holds nothing now
	if p.Puts != 1 {
		t.Fatalf("a second Return(two) put a buffer back")
	}
	l.Return(one)
	if p.Puts != 2 || &p.Get(100)[0] != &a[0] {
		t.Fatal("Return(one) did not give one's buffer back")
	}
	l.Lend(one, p.Get(100))
	l.Lend(two, p.Get(100))
	l.ReturnAll()
	if p.Puts != 4 || len(l.held) != 0 {
		t.Fatalf("ReturnAll: %d puts, %d still lent; want 4 and 0", p.Puts, len(l.held))
	}
}
