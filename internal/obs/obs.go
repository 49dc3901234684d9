// Package obs is the pod-wide observability layer: a registry of typed
// instruments — counters, gauges, log-bucketed latency histograms, and
// categorized byte meters — plus a bounded trace-event ring, sampled into a
// deterministic Snapshot the experiments harness and operators can query
// numerically instead of scraping a prose dump.
//
// Every component registers its instruments under a stable hierarchical
// name, slash-separated from coarse to fine:
//
//	nic1/rx_no_desc              device counters
//	host0/fe/tx_forwarded        per-host engine counters
//	host0/fe/chan/nic1/rx_lat    per-message-channel latency histograms
//	cxl/port/host0/rd_bytes      CXL byte meters (one point per category)
//	alloc/failovers              control-plane decisions
//	core/host0/iters             driver-core accounting
//
// Counters and gauges are usually registered as sampling closures over a
// component's existing counter fields, so instrumentation adds no work — and
// in particular no virtual time — to the simulated datapath; the registry
// reads everything lazily at Snapshot time. Registration happens once at
// wiring time and panics on a duplicate or empty name: that is a wiring bug.
//
// The registry is the one read path of the engines' counters: each engine
// registers its link, channel and buffer-area tallies here, and keeps no
// stats block of its own beside them.
package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"oasis/internal/metrics"
)

// Instrument kinds, as reported in Snapshot points.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Counter is an owned monotonic event counter for components that do not
// already keep their own tally.
type Counter struct {
	v int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// instrument is one registered series source.
type instrument struct {
	name    string
	kind    string
	counter func() int64
	gauge   func() float64
	hist    *metrics.Histogram
	meter   *metrics.Meter
}

// Registry holds a pod's instruments and its trace-event ring. The zero
// value is not usable; create one with New. Registration and Snapshot are
// safe for concurrent use (the simulation itself is single-threaded, but
// operators may snapshot from another goroutine): both hold mu while they
// touch the instrument lists.
//
// Instruments are kept sorted by name, lazily: a registration only appends
// to pending, and the next Snapshot sorts that batch in with the rest, into
// a fresh slice. A published sorted slice is never written again, so a
// Snapshot samples it after dropping mu, and a snapshot of a registry that
// gained nothing since the last one sorts nothing.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*instrument
	sorted  []*instrument // by name; replaced, never written in place
	pending []*instrument // registered since the last Snapshot

	// Events is the pod's bounded trace-event ring: components append
	// noteworthy transitions (placements, failovers, link state) with their
	// virtual timestamps, and Snapshot carries the retained tail.
	Events *TraceRing
}

// DefaultTraceCap bounds the trace ring: enough for a run's control-plane
// decisions without letting a chatty component grow the snapshot unboundedly.
const DefaultTraceCap = 256

// New creates an empty registry with a DefaultTraceCap-entry trace ring.
func New() *Registry {
	return &Registry{
		byName: make(map[string]*instrument),
		Events: NewTraceRing(DefaultTraceCap),
	}
}

// register adds an instrument, panicking on an empty or duplicate name: both
// are wiring bugs.
func (r *Registry) register(i *instrument) {
	if i.name == "" {
		panic("obs: empty instrument name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[i.name]; dup {
		panic(fmt.Sprintf("obs: duplicate instrument %q", i.name))
	}
	r.byName[i.name] = i
	r.pending = append(r.pending, i)
}

// instruments returns every instrument in name order, first sorting the
// batch registered since the last call in with the rest, into a fresh slice.
func (r *Registry) instruments() []*instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pending) > 0 {
		sorted := append(slices.Clip(r.sorted), r.pending...)
		slices.SortFunc(sorted, func(a, b *instrument) int { return strings.Compare(a.name, b.name) })
		r.sorted, r.pending = sorted, r.pending[:0]
	}
	return r.sorted
}

// Counter registers a sampled counter: fn is read at Snapshot time.
func (r *Registry) Counter(name string, fn func() int64) {
	r.register(&instrument{name: name, kind: KindCounter, counter: fn})
}

// Gauge registers a sampled gauge: fn is read at Snapshot time.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.register(&instrument{name: name, kind: KindGauge, gauge: fn})
}

// Histogram registers an existing histogram; the component keeps recording
// into it and Snapshot summarizes it.
func (r *Registry) Histogram(name string, h *metrics.Histogram) {
	if h == nil {
		panic(fmt.Sprintf("obs: nil histogram for %q", name))
	}
	r.register(&instrument{name: name, kind: KindHistogram, hist: h})
}

// Meter registers a categorized byte meter; Snapshot emits one counter point
// per category, labeled with the category name.
func (r *Registry) Meter(name string, m *metrics.Meter) {
	if m == nil {
		panic(fmt.Sprintf("obs: nil meter for %q", name))
	}
	r.register(&instrument{name: name, kind: KindCounter, meter: m})
}

// NewCounter creates, registers, and returns an owned counter.
func (r *Registry) NewCounter(name string) *Counter {
	c := &Counter{}
	r.Counter(name, c.Value)
	return c
}
