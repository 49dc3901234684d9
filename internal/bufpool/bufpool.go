// Package bufpool provides a size-classed free list for the simulation
// datapath's short-lived byte buffers: per-packet copies, cache-line
// snapshots, and RPC scratch space.
//
// A Pool is deliberately NOT safe for concurrent use. Each sim.Engine owns
// one (Engine.Bufs), and the engine is cooperatively single-threaded —
// exactly one process or callback runs at a time — so pool operations can
// never interleave. Parallel experiment runs each construct their own
// engine and therefore their own pool; nothing is shared between workers.
//
// Get returns a buffer whose contents are unspecified: callers must write
// every byte they later read. All adopted call sites immediately copy over
// the full length, so recycled garbage is never observable and runs remain
// byte-identical to the allocating implementation.
//
// Put hands a buffer back for good. Under OASIS_SIMCHECK=1 it overwrites
// every byte it takes back with a poison pattern, so a consumer that still
// reads a buffer after its release sees garbage — a failed parse, a wrong
// echo, a moved digest — instead of whatever the buffer's next owner wrote.
package bufpool

import (
	"math/bits"
	"os"
)

const (
	minShift = 6  // 64 B: one CXL cache line
	maxShift = 16 // 64 KiB: largest pooled buffer (bulk DMA scratch)
	nClasses = maxShift - minShift + 1

	// perClassCap bounds each class's free list so a transient burst (a
	// deep retransmit queue, a flood of in-flight lines) cannot pin an
	// unbounded amount of memory for the rest of the run.
	perClassCap = 1024

	// Poison is the byte Put writes over a released buffer under
	// OASIS_SIMCHECK=1.
	Poison = 0xA5
)

// scribble is the use-after-release guard, on under OASIS_SIMCHECK=1 (the
// simulator's self-check switch, see sim.Checking). Tests may toggle it.
var scribble = os.Getenv("OASIS_SIMCHECK") == "1"

// Pool is a size-classed buffer free list. The zero value is unusable; call
// New.
type Pool struct {
	free [nClasses][][]byte

	// Stats, exposed for tests and diagnostics.
	Gets, Puts, Hits int64
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// classFor returns the smallest size class holding n bytes, or -1 when n is
// out of the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxShift {
		return -1
	}
	c := bits.Len(uint(n-1)) - minShift
	if c < 0 {
		c = 0
	}
	return c
}

// Get returns a buffer of length n. Buffers beyond the pooled size range
// fall through to the allocator. The contents are unspecified.
func (p *Pool) Get(n int) []byte {
	p.Gets++
	c := classFor(n)
	if c < 0 {
		if n <= 0 {
			return nil
		}
		return make([]byte, n)
	}
	if s := p.free[c]; len(s) > 0 {
		buf := s[len(s)-1]
		s[len(s)-1] = nil
		p.free[c] = s[:len(s)-1]
		p.Hits++
		return buf[:n]
	}
	return make([]byte, n, 1<<(c+minShift))
}

// Put returns a buffer to the pool. The caller must own buf — no one else
// may hold it or a slice of it — and must not touch it afterwards: any
// slice whose capacity is a class size is kept and handed out by a later
// Get, whether it came from Get or from make (make([]byte, 128) is kept).
// Only nil, capacities that are not a power of two and capacities outside
// the pooled range are dropped.
func (p *Pool) Put(buf []byte) {
	p.Puts++
	c := cap(buf)
	if scribble && c > 0 {
		full := buf[:c]
		for i := range full {
			full[i] = Poison
		}
	}
	if c == 0 || c&(c-1) != 0 || c < 1<<minShift || c > 1<<maxShift {
		return
	}
	cl := bits.Len(uint(c)) - 1 - minShift
	if len(p.free[cl]) >= perClassCap {
		return
	}
	p.free[cl] = append(p.free[cl], buf[:c])
}

// Loans lends pool buffers to their readers: received bytes belong to the
// owner that received them — a simulated process, opaque here — until it
// asks for the next ones, and only then go back to the pool. An owner holds
// at most one buffer, so an endpoint read by several processes holds one per
// process, never one for the endpoint: a release on behalf of all would take
// bytes from a process that has not finished with them.
type Loans struct {
	Pool *Pool // where returned buffers go
	held []loan
}

type loan struct {
	owner any
	buf   []byte
}

// Return gives owner's buffer, if it holds one, back to the pool.
func (l *Loans) Return(owner any) {
	for i := range l.held {
		if l.held[i].owner == owner {
			l.Pool.Put(l.held[i].buf)
			last := len(l.held) - 1
			l.held[i] = l.held[last]
			l.held[last] = loan{}
			l.held = l.held[:last]
			return
		}
	}
}

// Lend makes buf owner's until its next Return. Owner holds nothing: its
// receive began with Return, before it waited.
func (l *Loans) Lend(owner any, buf []byte) {
	l.held = append(l.held, loan{owner, buf})
}

// ReturnAll gives every lent buffer back to the pool.
func (l *Loans) ReturnAll() {
	for i := range l.held {
		l.Pool.Put(l.held[i].buf)
		l.held[i] = loan{}
	}
	l.held = l.held[:0]
}
