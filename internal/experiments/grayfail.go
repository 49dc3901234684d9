package experiments

import (
	"time"

	"oasis"
	"oasis/internal/core"
	"oasis/internal/faults"
	"oasis/internal/netstack"
)

// Grayfail runs the gray-failure chaos campaign: a 2.2-second run in which
// no device ever goes down, yet all four degraded-mode fault kinds fire —
// a drive whose media slows 40x (ssd-slow), a NIC that silently drops half
// its frames (nic-lossy), a CXL port with added latency jitter
// (cxl-jitter), and a switch port that stalls in sub-debounce pulses
// (link-flaky). Hard-failure detectors are blind to all of them: the links
// stay up, leases keep renewing, no AER burst fires. The campaign is the
// acceptance gate for the health scorer — the peer-relative outlier
// detector over per-device telemetry (soft error counts for NICs, mean
// service latency for drives) — and checks:
//
//   - the scorer catches both gray devices and evacuates them proactively:
//     the slow drive's volumes re-bind onto the backup under a bumped
//     fencing epoch, the lossy NIC's instances migrate to a healthy peer
//     (at least one health evacuation of each kind);
//   - the hard-failure machinery stays silent: zero NIC failovers, zero
//     SSD failovers, zero AER failovers — gray devices are evacuated, not
//     failed, because they are still serving;
//   - no acked write is ever lost, and packet loss is confined to bounded
//     windows adjacent to fault injections (runCampaign's invariants, kept
//     by every plan — campaign.go);
//   - both gray devices end the run quarantined (no new placements), with
//     the evacuated instance answering on its new primary NIC.
//
// The fault timeline is absolute, so the run is byte-for-byte replayable:
// the report embeds the encoded faults.Plan and rerunning the experiment
// must reproduce the identical report. Like chaos, the pod runs with a
// compressed control plane (120 ms leases, 40 ms telemetry) so three
// detection windows fit inside each fault's dwell time.
func Grayfail(_ float64) *Report {
	r := newReport("grayfail", "gray-failure campaign: four degraded-mode faults + health-scorer evacuations (2.2 s run)")
	ipA := oasis.IP(10, 0, 0, 30)
	// On the campaign pod nic1 (instA's primary) is the lossy suspect and
	// nic2 the healthy peer it evacuates to; ssd1 is the slow suspect and the
	// backup ssd2 its evacuation target; host4 is the jitter target. The
	// probe stream through instA is the traffic that makes nic1's frame drops
	// visible in its error telemetry, and the witness that service continues
	// across the NIC evacuation; the ledger proves the drive evacuation's
	// mid-stream re-bind lost nothing.
	c, err := runCampaign(r, campaignSpec{
		name:        "gray",
		span:        2200 * time.Millisecond,
		health:      true, // the campaign exists to exercise the scorer
		instances:   []netstack.IP{ipA},
		client:      oasis.IP(10, 0, 99, 3),
		probe:       "gray-probe-chaos!",
		windowBound: 350 * time.Millisecond,
		windowKind:  faults.NICLossy,
		stallKind:   faults.SSDSlow,
		plan: faults.Plan{
			Name: "grayfail-campaign",
			Seed: 13,
			Events: []faults.Event{
				{At: 300 * time.Millisecond, Kind: faults.SSDSlow, Target: "ssd1", Heal: 500 * time.Millisecond, LatMult: 40},
				{At: 900 * time.Millisecond, Kind: faults.NICLossy, Target: "nic1", Heal: 500 * time.Millisecond, Drop: 0.5},
				{At: 1550 * time.Millisecond, Kind: faults.CXLJitter, Target: "host4", Heal: 250 * time.Millisecond, Jitter: 2 * time.Microsecond},
				{At: 1800 * time.Millisecond, Kind: faults.LinkFlaky, Target: "nic2", Heal: 250 * time.Millisecond, Period: 40 * time.Millisecond, Stall: 3 * time.Millisecond},
			},
		},
	}, nil)
	if err != nil {
		r.addf("SCHEDULE ERROR: %v", err)
		return r
	}
	alloc, sfe := c.pod.Alloc, c.hosts[4].SFE
	primary, _ := alloc.PrimaryOf(ipA)
	nic1, ssd1 := alloc.View(core.DeviceNIC, 1), alloc.View(core.DeviceSSD, 1)
	c.check(alloc.HealthSSDEvacs >= 1, "health scorer never evacuated the slow drive")
	c.check(alloc.HealthNICEvacs >= 1, "health scorer never evacuated the lossy NIC")
	c.check(ssd1.Quarantined, "slow drive not quarantined at end of campaign")
	c.check(nic1.Quarantined, "lossy NIC not quarantined at end of campaign")
	c.check(alloc.Failovers == 0, "a gray fault tripped a hard NIC failover")
	c.check(alloc.SSDFailovers == 0, "a gray fault tripped a hard SSD failover")
	c.check(alloc.AERFailovers == 0, "a gray fault tripped an AER failover")
	c.check(primary == 2, "evacuated instance does not answer on the healthy peer NIC")
	c.check(sfe.Rebinds >= 1, "drive evacuation never re-bound the volume")

	c.reportRun(r)
	r.addf("health: nic_evacs=%d ssd_evacs=%d nic1_quarantined=%v ssd1_quarantined=%v primary(instA)=nic%d",
		alloc.HealthNICEvacs, alloc.HealthSSDEvacs, nic1.Quarantined, ssd1.Quarantined, primary)
	r.addf("hard failovers (must all be zero): nic=%d ssd=%d aer=%d",
		alloc.Failovers, alloc.SSDFailovers, alloc.AERFailovers)
	r.addf("storage: rebinds=%d stale_rejected=%d mirror_writes=%d volumes_lost=%d",
		sfe.Rebinds, sfe.StaleRejected, sfe.MirrorWrites, sfe.VolumesLost)
	c.reportVerdict(r, "gray devices evacuated, hard failovers silent, no acked write lost")
	r.Values["health_nic_evacs"] = float64(alloc.HealthNICEvacs)
	r.Values["health_ssd_evacs"] = float64(alloc.HealthSSDEvacs)
	r.Values["nic_failovers"] = float64(alloc.Failovers)
	r.Values["ssd_failovers"] = float64(alloc.SSDFailovers)
	r.Values["rebinds"] = float64(sfe.Rebinds)
	r.Values["primary_final"] = float64(primary)
	return r
}
