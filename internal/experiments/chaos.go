package experiments

import (
	"time"

	"oasis"
	"oasis/internal/faults"
	"oasis/internal/netstack"
)

// Chaos runs the pod-wide chaos campaign: a single 2.6-second run that
// injects every fault kind the injector knows — a storage-backend engine
// stall, two host crashes (one takes the allocator and its raft replica
// down, one takes a NIC + SSD host down), a switch port flap, a drive
// failure, a CXL port degradation, and a NIC link drop — and then checks
// the recovery invariants the design promises:
//
//   - no acked write is ever lost: a round-robin writer tracks the last
//     acknowledged sequence number per LBA and the read-back after the
//     campaign must match it (or a later write that errored back to the
//     guest, which makes no promise either way);
//   - packet loss is confined to bounded windows adjacent to fault
//     injections (the Fig. 13 probe stream, generalised);
//   - control-plane recovery is bounded: an allocation requested while
//     the allocator host is down completes shortly after it resumes;
//   - the recovery machinery actually fired: SSD failovers, host-death
//     inference, lease reconstruction and epoch fencing all have
//     non-zero counts.
//
// The first two are runCampaign's (campaign.go: the fault pod, the ledger
// writer, the probe stream, the invariants every plan must keep); the plan,
// the instB actor and the last two are what this file adds.
//
// The fault timeline is absolute, so the run is byte-for-byte replayable:
// the report embeds the encoded faults.Plan and rerunning the experiment
// (at any scale — chaos ignores scale, fault mechanics need real
// timeouts) must reproduce the identical report. To keep the campaign
// cheap enough for CI and the race gate, the pod runs with a compressed
// control plane — 40 ms telemetry, hence 120 ms device leases, instead of
// the paper's 100/300 ms — which shrinks every detection window and lets
// the whole seven-fault schedule fit in 2.6 virtual seconds.
func Chaos(_ float64) *Report {
	r := newReport("chaos", "chaos campaign: all fault kinds + recovery invariants (2.6 s run)")
	const (
		instBAsk   = 820 * time.Millisecond
		allocBound = 600 * time.Millisecond
	)
	// Allocation under allocator loss: instB asks for a NIC while host0
	// (allocator + raft leader) is crashed; the request must be retried by
	// the frontend and satisfied soon after the host heals.
	var allocRecovery oasis.Duration
	c, err := runCampaign(r, campaignSpec{
		name:        "chaos",
		span:        2600 * time.Millisecond,
		instances:   []netstack.IP{oasis.IP(10, 0, 0, 20), oasis.IP(10, 0, 0, 21)}, // instA on nic1, instB on nic2
		client:      oasis.IP(10, 0, 99, 2),
		probe:       "chaos-probe-chaos",
		windowBound: 300 * time.Millisecond,
		windowKind:  faults.PortFlap,
		stallKind:   faults.EngineStall,
		plan: faults.Plan{
			Name: "chaos-campaign",
			Seed: 7,
			Events: []faults.Event{
				{At: 360 * time.Millisecond, Kind: faults.EngineStall, Target: "host2/storage-be1", Heal: 280 * time.Millisecond},
				{At: 800 * time.Millisecond, Kind: faults.HostCrash, Target: "host0", Heal: 200 * time.Millisecond},
				{At: 1280 * time.Millisecond, Kind: faults.PortFlap, Target: "nic1", Heal: 60 * time.Millisecond},
				{At: 1720 * time.Millisecond, Kind: faults.HostCrash, Target: "host2", Heal: 240 * time.Millisecond},
				{At: 2060 * time.Millisecond, Kind: faults.SSDFail, Target: "ssd1", Heal: 120 * time.Millisecond},
				{At: 2140 * time.Millisecond, Kind: faults.CXLDegrade, Target: "host4", Heal: 160 * time.Millisecond, LatMult: 4, BWFrac: 0.25},
				{At: 2240 * time.Millisecond, Kind: faults.NICLinkDown, Target: "nic1", Heal: 40 * time.Millisecond},
			},
		},
	}, func(c *campaign) {
		instB := c.insts[1]
		c.pod.Go("chaos-instB", func(p *oasis.Proc) {
			p.Sleep(instBAsk)
			instB.RequestAllocation()
			if instB.WaitReady(p, 1500*time.Millisecond) {
				allocRecovery = p.Now() - instBAsk
			}
		})
	})
	if err != nil {
		r.addf("SCHEDULE ERROR: %v", err)
		return r
	}
	if allocRecovery > 0 {
		c.pod.Injector().RecordRecovery(faults.HostCrash, allocRecovery)
	}
	alloc, sfe, fe := c.pod.Alloc, c.hosts[4].SFE, c.hosts[4].FE
	c.check(allocRecovery > 0 && allocRecovery <= allocBound, "allocation during allocator crash did not recover in bound")
	c.check(alloc.SSDFailovers >= 2, "expected at least two SSD failovers")
	c.check(alloc.Failovers >= 2, "expected at least two NIC failovers")
	c.check(alloc.HostDeaths >= 1, "host-death inference never fired")
	c.check(alloc.LeaseReconstructions >= 1, "lease reconstruction never fired")
	c.check(sfe.StaleRejected >= 1, "epoch fence never rejected a zombie completion")
	c.check(fe.AllocRetries >= 1, "frontend never retried the allocation RPC")

	c.reportRun(r)
	r.addf("allocation requested at %v during allocator crash; recovered in %v", instBAsk, allocRecovery)
	r.addf("alloc: ssd_failovers=%d nic_failovers=%d host_deaths=%d lease_rebuilds=%d propose_retries=%d",
		alloc.SSDFailovers, alloc.Failovers, alloc.HostDeaths, alloc.LeaseReconstructions, alloc.ProposeRetries)
	r.addf("storage: rebinds=%d stale_rejected=%d mirror_writes=%d quarantined=%d volumes_lost=%d",
		sfe.Rebinds, sfe.StaleRejected, sfe.MirrorWrites, sfe.QuarantinedBufs, sfe.VolumesLost)
	r.addf("net fe: alloc_retries=%d", fe.AllocRetries)
	c.reportVerdict(r, "no acked write lost, loss windows bounded, recovery within bounds")
	r.Values["alloc_recovery_ms"] = float64(allocRecovery) / 1e6
	r.Values["ssd_failovers"] = float64(alloc.SSDFailovers)
	r.Values["host_deaths"] = float64(alloc.HostDeaths)
	r.Values["stale_rejected"] = float64(sfe.StaleRejected)
	r.Values["rebinds"] = float64(sfe.Rebinds)
	return r
}
