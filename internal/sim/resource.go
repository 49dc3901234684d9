package sim

// Resource models a serially-shared facility with a fixed service order —
// a wire, a DMA engine, a CXL link direction. Work is admitted FIFO: each
// reservation begins when the previous one ends, so concurrent requests
// queue behind one another and total occupancy equals offered work.
type Resource struct {
	eng       *Engine
	busyUntil Duration
	busyTotal Duration // accumulated busy time, for utilization reporting
}

// NewResource returns an idle resource bound to the engine.
func NewResource(eng *Engine) *Resource { return &Resource{eng: eng} }

// Reserve books d of service time and returns the absolute virtual time at
// which the work completes. It never blocks; callers that need to wait
// should sleep until the returned time or schedule a callback there.
func (r *Resource) Reserve(d Duration) Duration {
	start := r.eng.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + d
	r.busyTotal += d
	return r.busyUntil
}

// Start returns when work booked now would start: now, or when the work
// already booked ends.
func (r *Resource) Start() Duration { return max(r.eng.Now(), r.busyUntil) }

// ReserveN is n calls of Reserve(d) in a row: it books n pieces of work of
// d each, back to back. The k-th, from 1, completes at Start() + k·d, Start
// read before the booking.
func (r *Resource) ReserveN(d Duration, n int64) {
	r.busyUntil = r.Start() + Duration(n)*d
	r.busyTotal += Duration(n) * d
}

// Use books d of service time and parks the calling process until the work
// completes (queueing delay plus service time).
func (r *Resource) Use(p *Proc, d Duration) {
	done := r.Reserve(d)
	p.Sleep(done - r.eng.Now())
}

// BusyTotal returns the accumulated service time ever booked, used to compute
// utilization over an interval.
func (r *Resource) BusyTotal() Duration { return r.busyTotal }
