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
// wiring time; duplicate names are rejected (a wiring bug), which the
// Register* forms report as an error and the panic conveniences enforce.
package obs

import (
	"fmt"
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
// operators may snapshot from another goroutine).
type Registry struct {
	mu     sync.Mutex
	byName map[string]*instrument
	order  []*instrument

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

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

func (r *Registry) register(i *instrument) error {
	if i.name == "" {
		return fmt.Errorf("obs: empty instrument name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[i.name]; dup {
		return fmt.Errorf("obs: duplicate instrument %q", i.name)
	}
	r.byName[i.name] = i
	r.order = append(r.order, i)
	return nil
}

// RegisterCounter registers a sampled counter: fn is read at Snapshot time.
func (r *Registry) RegisterCounter(name string, fn func() int64) error {
	return r.register(&instrument{name: name, kind: KindCounter, counter: fn})
}

// RegisterGauge registers a sampled gauge: fn is read at Snapshot time.
func (r *Registry) RegisterGauge(name string, fn func() float64) error {
	return r.register(&instrument{name: name, kind: KindGauge, gauge: fn})
}

// RegisterHistogram registers an existing histogram; the component keeps
// recording into it and Snapshot summarizes it.
func (r *Registry) RegisterHistogram(name string, h *metrics.Histogram) error {
	if h == nil {
		return fmt.Errorf("obs: nil histogram for %q", name)
	}
	return r.register(&instrument{name: name, kind: KindHistogram, hist: h})
}

// RegisterMeter registers a categorized byte meter; Snapshot emits one
// counter point per category, labeled with the category name.
func (r *Registry) RegisterMeter(name string, m *metrics.Meter) error {
	if m == nil {
		return fmt.Errorf("obs: nil meter for %q", name)
	}
	return r.register(&instrument{name: name, kind: KindCounter, meter: m})
}

// Counter is the panic-on-collision convenience for wiring-time registration.
func (r *Registry) Counter(name string, fn func() int64) {
	if err := r.RegisterCounter(name, fn); err != nil {
		panic(err)
	}
}

// Gauge is the panic-on-collision convenience for wiring-time registration.
func (r *Registry) Gauge(name string, fn func() float64) {
	if err := r.RegisterGauge(name, fn); err != nil {
		panic(err)
	}
}

// Histogram is the panic-on-collision convenience for wiring-time
// registration.
func (r *Registry) Histogram(name string, h *metrics.Histogram) {
	if err := r.RegisterHistogram(name, h); err != nil {
		panic(err)
	}
}

// Meter is the panic-on-collision convenience for wiring-time registration.
func (r *Registry) Meter(name string, m *metrics.Meter) {
	if err := r.RegisterMeter(name, m); err != nil {
		panic(err)
	}
}

// NewCounter creates, registers, and returns an owned counter.
func (r *Registry) NewCounter(name string) *Counter {
	c := &Counter{}
	r.Counter(name, c.Value)
	return c
}

// NewHistogram creates, registers, and returns an owned histogram.
func (r *Registry) NewHistogram(name string) *metrics.Histogram {
	h := &metrics.Histogram{}
	r.Histogram(name, h)
	return h
}
