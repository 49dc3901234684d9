package core

import "oasis/internal/obs"

// RegisterObs registers the set's aggregate backpressure counters under
// prefix/links/*, and each link's per-channel counters and inbound delivery
// latency histogram under prefix/chan/<peer>/*. peerName renders a peer id
// ("nic1", "host0") so channel series carry stable topology names.
func (s *LinkSet) RegisterObs(r *obs.Registry, prefix string, peerName func(peer uint32) string) {
	r.Counter(prefix+"/links/sent", func() int64 { return s.Stats().Sent })
	r.Counter(prefix+"/links/received", func() int64 { return s.Stats().Received })
	r.Counter(prefix+"/links/send_full", func() int64 { return s.Stats().SendFull })
	r.Counter(prefix+"/links/deferred", func() int64 { return s.Stats().Deferred })
	r.Counter(prefix+"/links/redrives", func() int64 { return s.Stats().Redrives })
	r.Counter(prefix+"/links/overflow", func() int64 { return s.Stats().Overflow })
	r.Gauge(prefix+"/links/pending_peak", func() float64 { return float64(s.Stats().PendingPeak) })
	for _, l := range s.order {
		l := l
		ch := prefix + "/chan/" + peerName(l.Peer)
		r.Counter(ch+"/sent", func() int64 { return l.Stats.Sent })
		r.Counter(ch+"/received", func() int64 { return l.Stats.Received })
		r.Counter(ch+"/send_full", func() int64 { return l.Stats.SendFull })
		r.Counter(ch+"/deferred", func() int64 { return l.Stats.Deferred })
		r.Gauge(ch+"/pending", func() float64 { return float64(len(l.pending)) })
		if h := l.End.InLatency(); h != nil {
			r.Histogram(ch+"/rx_lat", h)
		}
	}
}

// RegisterObs registers a buffer area's pressure counters under prefix/*.
func (a *BufferArea) RegisterObs(r *obs.Registry, prefix string) {
	r.Counter(prefix+"/buf_allocs", func() int64 { return a.Allocs })
	r.Counter(prefix+"/buf_frees", func() int64 { return a.Frees })
	r.Counter(prefix+"/buf_alloc_fails", func() int64 { return a.AllocFails })
	r.Gauge(prefix+"/buf_free", func() float64 { return float64(a.FreeCount()) })
}

// RegisterObs registers the driver core's accounting under prefix/*
// (conventionally core/<core name>). busy_ns over the virtual time elapsed is
// the share of the core its loop keeps busy.
func (d *Driver) RegisterObs(r *obs.Registry, prefix string) {
	r.Counter(prefix+"/busy_ns", func() int64 { return int64(d.Busy) })
	r.Counter(prefix+"/iters", func() int64 { return d.Iterations })
	r.Counter(prefix+"/idle_iters", func() int64 { return d.IdleIterations })
	r.Counter(prefix+"/processed", func() int64 { return d.Processed })
}
