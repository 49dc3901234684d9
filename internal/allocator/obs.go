package allocator

import (
	"fmt"

	"oasis/internal/core"
	"oasis/internal/obs"
)

// RegisterObs registers the allocator's decision counters, its view of
// device health/load, and its control-channel delivery latencies under
// prefix/* (conventionally alloc). It also hooks the allocator to the
// registry's trace ring so every decision leaves an event.
func (a *Allocator) RegisterObs(r *obs.Registry, prefix string) {
	r.Counter(prefix+"/placements", func() int64 { return a.Placements })
	r.Counter(prefix+"/failovers", func() int64 { return a.Failovers })
	r.Counter(prefix+"/aer_failovers", func() int64 { return a.AERFailovers })
	r.Counter(prefix+"/health/nic_evacs", func() int64 { return a.HealthNICEvacs })
	r.Counter(prefix+"/health/ssd_evacs", func() int64 { return a.HealthSSDEvacs })
	r.Counter(prefix+"/migrations", func() int64 { return a.Migrations })
	r.Counter(prefix+"/rebalances", func() int64 { return a.Rebalances })
	r.Counter(prefix+"/lease_expiries", func() int64 { return a.LeaseExpiries })
	r.Counter(prefix+"/ssd_lease_expiries", func() int64 { return a.SSDLeaseExpiries })
	r.Counter(prefix+"/recovery/ssd_failovers", func() int64 { return a.SSDFailovers })
	r.Counter(prefix+"/recovery/host_deaths", func() int64 { return a.HostDeaths })
	r.Counter(prefix+"/recovery/lease_rebuilds", func() int64 { return a.LeaseReconstructions })
	r.Counter(prefix+"/recovery/propose_retries", func() int64 { return a.ProposeRetries })
	r.Counter(prefix+"/recovery/propose_drops", func() int64 { return a.ProposeDrops })
	r.Counter(prefix+"/recovery/assign_resends", func() int64 { return a.AssignResends })
	r.Histogram(prefix+"/recovery/detect_lat", a.recoveryDetect)
	for _, d := range a.devices() {
		kind, id := d.Kind, d.ID
		dpfx := fmt.Sprintf("%s/%v/%v%d", prefix, kind, kind, id)
		// The per-kind gauge is the one the kind's policies steer by: NIC
		// placement and rebalancing by load, storage by queue occupancy.
		if kind == core.DeviceNIC {
			r.Gauge(dpfx+"/load_bps", func() float64 { return a.View(kind, id).LoadBps })
		} else {
			r.Gauge(dpfx+"/queue_depth", func() float64 { return float64(a.View(kind, id).QueueDepth) })
		}
		r.Gauge(dpfx+"/up", func() float64 { return boolGauge(a.View(kind, id).Up) })
		r.Gauge(dpfx+"/quarantined", func() float64 { return boolGauge(a.View(kind, id).Quarantined) })
	}
	for _, c := range []struct {
		peer string
		set  *core.LinkSet
	}{{"host", a.frontends}, {"nic", a.nics}, {"ssd", a.ssds}} {
		for _, l := range c.set.All() {
			if h := l.End.InLatency(); h != nil {
				r.Histogram(fmt.Sprintf("%s/chan/%s%d/rx_lat", prefix, c.peer, l.Peer), h)
			}
		}
	}
	a.events = r.Events
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
