package netengine

import (
	"fmt"

	"oasis/internal/obs"
)

// RegisterObs registers the frontend's counters, its instances' port
// counters, and its per-backend channel series (including rx_lat delivery
// histograms) under prefix/* (conventionally <host>/fe).
func (fe *Frontend) RegisterObs(r *obs.Registry, prefix string) {
	r.Counter(prefix+"/tx_forwarded", func() int64 { return fe.TxForwarded })
	r.Counter(prefix+"/rx_delivered", func() int64 { return fe.RxDelivered })
	r.Counter(prefix+"/tx_channel_full", func() int64 { return fe.TxChannelFull })
	r.Counter(prefix+"/unknown_completions", func() int64 { return fe.UnknownCompletions })
	r.Counter(prefix+"/failovers_applied", func() int64 { return fe.FailoversApplied })
	r.Counter(prefix+"/alloc_retries", func() int64 { return fe.AllocRetries })
	r.Counter(prefix+"/retry_exhausted", func() int64 { return fe.AllocRetryExhausted })
	fe.links.RegisterObs(r, prefix, func(peer uint32) string { return fmt.Sprintf("nic%d", peer) })
	for _, inst := range fe.instOrder {
		ipfx := fmt.Sprintf("%s/inst/%v", prefix, inst.ip)
		r.Counter(ipfx+"/tx_packets", func() int64 { return inst.TxPackets })
		r.Counter(ipfx+"/rx_packets", func() int64 { return inst.RxPackets })
		r.Counter(ipfx+"/tx_drops_no_buffer", func() int64 { return inst.TxDropsNoBuffer })
		inst.area.RegisterObs(r, ipfx)
	}
}

// RegisterObs registers the backend's counters, RX buffer-area pressure, and
// its per-frontend channel series under prefix/* (conventionally
// <host>/be<nic>). It also hooks the backend to the registry's trace ring so
// link-state transitions leave events.
func (be *Backend) RegisterObs(r *obs.Registry, prefix string) {
	r.Counter(prefix+"/tx_posted", func() int64 { return be.TxPosted })
	r.Counter(prefix+"/rx_forwarded", func() int64 { return be.RxForwarded })
	r.Counter(prefix+"/rx_no_route", func() int64 { return be.RxNoRoute })
	r.Counter(prefix+"/inspected", func() int64 { return be.Inspected })
	r.Counter(prefix+"/link_down_events", func() int64 { return be.LinkDownEvents })
	r.Counter(prefix+"/mac_borrows", func() int64 { return be.MACBorrows })
	be.rxArea.RegisterObs(r, prefix)
	be.links.RegisterObs(r, prefix, func(peer uint32) string { return fmt.Sprintf("host%d", peer) })
	be.events = r.Events
	be.eventSrc = prefix
}

// RegisterObs registers the baseline local driver's counters and its
// instances' port counters under prefix/* (conventionally <host>/local).
func (d *LocalDriver) RegisterObs(r *obs.Registry, prefix string) {
	r.Counter(prefix+"/tx_forwarded", func() int64 { return d.TxForwarded })
	r.Counter(prefix+"/rx_delivered", func() int64 { return d.RxDelivered })
	d.rxArea.RegisterObs(r, prefix)
	for _, ip := range d.instOrder {
		lp := d.insts[ip]
		ipfx := fmt.Sprintf("%s/inst/%v", prefix, ip)
		r.Counter(ipfx+"/tx_drops_no_buffer", func() int64 { return lp.TxDropsNoBuffer })
		lp.area.RegisterObs(r, ipfx)
	}
}
