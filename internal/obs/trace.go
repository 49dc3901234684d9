package obs

import (
	"sync"
	"time"
)

// Event is one trace-ring entry: a component-level transition worth keeping
// (a placement, a failover, a link going down) stamped with virtual time.
type Event struct {
	At  time.Duration `json:"at_ns"`
	Src string        `json:"src"`
	Msg string        `json:"msg"`
}

// TraceRing is a bounded ring of trace events: appends are O(1), the oldest
// entries are overwritten once the ring is full, and Total keeps counting so
// a reader can tell how much history was dropped. A nil ring ignores emits,
// so components may trace unconditionally.
type TraceRing struct {
	mu    sync.Mutex
	buf   []Event
	start int   // index of the oldest retained event
	n     int   // retained events
	total int64 // events ever emitted
}

// NewTraceRing creates a ring retaining up to capacity events (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]Event, capacity)}
}

// Emit appends one event, overwriting the oldest when full. Safe on nil.
func (t *TraceRing) Emit(at time.Duration, src, msg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := (t.start + t.n) % len(t.buf)
	t.buf[idx] = Event{At: at, Src: src, Msg: msg}
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.start = (t.start + 1) % len(t.buf)
	}
	t.total++
}

// Events returns the retained events, oldest first.
func (t *TraceRing) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	return out
}

// Total returns how many events were ever emitted (retained or not).
func (t *TraceRing) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
