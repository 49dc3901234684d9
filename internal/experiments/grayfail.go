package experiments

import (
	"encoding/binary"
	"time"

	"oasis"
	"oasis/internal/core"
	"oasis/internal/faults"
	"oasis/internal/ssd"
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
//     windows adjacent to fault injections;
//   - both gray devices end the run quarantined (no new placements), with
//     the evacuated instance answering on its new primary NIC.
//
// The fault timeline is absolute, so the run is byte-for-byte replayable:
// the report embeds the encoded faults.Plan and rerunning the experiment
// must reproduce the identical report. Like chaos, the pod runs with a
// compressed control plane (120 ms leases, 40 ms telemetry) so three
// detection windows fit inside each fault's dwell time.
// PerHost moves the probe client onto a partition of its own, exactly as in
// Chaos, with the same consequences.
func Grayfail(scale float64) *Report { return grayfailRun(scale, exec) }

func grayfailRun(_ float64, x Exec) *Report {
	r := newReport("grayfail", "gray-failure campaign: four degraded-mode faults + health-scorer evacuations (2.2 s run)")
	const (
		span        = 2200 * time.Millisecond
		writerStop  = span - 200*time.Millisecond
		proberStop  = span - 100*time.Millisecond
		lbaCount    = 16
		writeEvery  = 500 * time.Microsecond
		probeEvery  = time.Millisecond
		windowGap   = 100 * time.Millisecond // losses closer than this are one outage
		windowBound = 350 * time.Millisecond // max tolerated outage window
		faultSlack  = 500 * time.Millisecond // losses must sit this close after a fault
		stallBound  = 400 * time.Millisecond
	)

	ipA := oasis.IP(10, 0, 0, 30)
	ipC := oasis.IP(10, 0, 99, 3)

	cfg := oasis.DefaultConfig()
	cfg.Engine.IdleBackoff = 200 * time.Microsecond
	cfg.Allocator.LeaseTimeout = 120 * time.Millisecond
	cfg.Storage.TelemetryEvery = 40 * time.Millisecond
	cfg.Engine.TelemetryEvery = 40 * time.Millisecond
	cfg.Allocator.Health = true // the campaign exists to exercise the scorer
	cfg.RaftReplicas = 3
	cfg.PerHostPartitions = x == PerHost
	pod := oasis.NewPod(cfg)
	host0 := pod.AddHost() // allocator + raft replica 0
	host1 := pod.AddHost() // nic1: instA's primary, the lossy suspect
	host2 := pod.AddHost() // nic2 (healthy peer, evacuation target) + ssd1 backend
	host3 := pod.AddHost() // backup NIC + backup SSD (the drive evacuation target)
	host4 := pod.AddHost() // instance + volume owner, the jitter target
	_ = host0
	pod.AddNIC(host1, false)       // nic1
	pod.AddNIC(host2, false)       // nic2
	pod.AddNIC(host3, true)        // nic3: pod-wide backup
	pod.AddSSD(host2, 1<<12)       // ssd1: volume primary, the slow suspect
	pod.AddBackupSSD(host3, 1<<12) // ssd2: mirror / evacuation target
	instA := pod.AddInstance(host4, ipA)
	client := pod.AddClient(ipC)
	vol := pod.AddVolume(instA, 1, 64)
	pod.Start()
	instA.RequestAllocation()

	plan := faults.Plan{
		Name: "grayfail-campaign",
		Seed: 13,
		Events: []faults.Event{
			{At: 300 * time.Millisecond, Kind: faults.SSDSlow, Target: "ssd1", Heal: 500 * time.Millisecond, LatMult: 40},
			{At: 900 * time.Millisecond, Kind: faults.NICLossy, Target: "nic1", Heal: 500 * time.Millisecond, Drop: 0.5},
			{At: 1550 * time.Millisecond, Kind: faults.CXLJitter, Target: "host4", Heal: 250 * time.Millisecond, Jitter: 2 * time.Microsecond},
			{At: 1800 * time.Millisecond, Kind: faults.LinkFlaky, Target: "nic2", Heal: 250 * time.Millisecond, Period: 40 * time.Millisecond, Stall: 3 * time.Millisecond},
		},
	}
	if err := pod.RunFaultPlan(plan); err != nil {
		r.addf("SCHEDULE ERROR: %v", err)
		return r
	}

	// --- Writer: round-robin over lbaCount LBAs with sequence-stamped
	// payloads, exactly the chaos campaign's acked-write ledger. The drive
	// evacuation re-binds the volume mid-stream; the ledger proves the
	// re-bind lost nothing.
	fill := func(blk []byte, seq uint64, lba uint64) {
		binary.BigEndian.PutUint64(blk, seq)
		pat := byte(seq) ^ byte(lba)
		for i := 8; i < len(blk); i++ {
			blk[i] = pat
		}
	}
	var (
		acked       [lbaCount]uint64
		failedAfter [lbaCount][]uint64
		ackedWrites int
		writeErrs   int
		maxStall    oasis.Duration
		writerDone  bool
		mismatches  int
	)
	pod.Go("gray-writer", func(p *oasis.Proc) {
		if !vol.WaitReady(p, 500*time.Millisecond) {
			return
		}
		blk := make([]byte, ssd.BlockSize)
		seq := uint64(0)
		last := p.Now()
		for p.Now() < writerStop {
			seq++
			lba := seq % lbaCount
			fill(blk, seq, lba)
			if err := vol.Write(p, lba, blk); err == nil {
				acked[lba] = seq
				failedAfter[lba] = failedAfter[lba][:0]
				ackedWrites++
			} else {
				writeErrs++
				failedAfter[lba] = append(failedAfter[lba], seq)
			}
			if gap := p.Now() - last; gap > maxStall {
				maxStall = gap
			}
			last = p.Now()
			p.Sleep(writeEvery)
		}
		for lba := uint64(0); lba < lbaCount; lba++ {
			want := acked[lba]
			if want == 0 {
				mismatches++
				continue
			}
			got, err := vol.Read(p, lba, 1)
			if err != nil {
				mismatches++
				continue
			}
			seq := binary.BigEndian.Uint64(got)
			ok := seq == want
			for _, f := range failedAfter[lba] {
				ok = ok || seq == f
			}
			pat := byte(seq) ^ byte(lba)
			for i := 8; ok && i < len(got); i++ {
				ok = got[i] == pat
			}
			if !ok {
				mismatches++
			}
		}
		writerDone = true
	})

	// --- Probe stream through instA: the traffic that makes nic1's frame
	// drops visible in its error telemetry, and the witness that service
	// continues across the NIC evacuation.
	pod.Go("gray-echo", func(p *oasis.Proc) {
		conn, err := instA.Stack.ListenUDP(7)
		if err != nil {
			return
		}
		for {
			dg := conn.Recv(p)
			if conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data) != nil {
				return
			}
		}
	})
	var (
		sent, lost int
		lossTimes  []oasis.Duration
	)
	client.Go("gray-prober", func(p *oasis.Proc) {
		conn, err := client.Stack.ListenUDP(0)
		if err != nil {
			return
		}
		p.Sleep(5 * time.Millisecond) // registration warmup
		for p.Now() < proberStop {
			sendAt := p.Now()
			if conn.SendTo(p, ipA, 7, []byte("gray-probe-chaos!")) != nil {
				continue
			}
			sent++
			if _, ok := conn.RecvTimeout(p, probeEvery); !ok {
				lost++
				lossTimes = append(lossTimes, sendAt)
			} else if wait := sendAt + probeEvery - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
		}
	})

	pod.Run(span + time.Second) // fixed-length, external Shutdown: see chaosRun
	pod.Shutdown()

	// Cluster probe losses into outage windows.
	type window struct{ start, end oasis.Duration }
	var windows []window
	for _, t := range lossTimes {
		if n := len(windows); n > 0 && t-windows[n-1].end < windowGap {
			windows[n-1].end = t
		} else {
			windows = append(windows, window{start: t, end: t})
		}
	}
	var maxWindow oasis.Duration
	for _, w := range windows {
		if d := w.end - w.start + probeEvery; d > maxWindow {
			maxWindow = d
		}
	}

	in := pod.Injector()
	if maxWindow > 0 {
		in.RecordRecovery(faults.NICLossy, maxWindow)
	}
	if maxStall > 0 {
		in.RecordRecovery(faults.SSDSlow, maxStall)
	}

	alloc := pod.Alloc
	sfe := host4.SFE
	primary, _ := alloc.PrimaryOf(ipA)

	// --- Invariants.
	var violations []string
	check := func(ok bool, what string) {
		if !ok {
			violations = append(violations, what)
		}
	}
	check(writerDone, "writer did not finish its read-back pass")
	check(mismatches == 0, "read-back found blocks not matching any acked/failed write")
	check(!vol.Lost(), "volume was declared lost by a gray (non-fatal) fault")
	check(in.Errors() == 0, "fault handlers reported errors")
	check(in.Active() == 0, "faults left unhealed at end of campaign")
	check(alloc.HealthSSDEvacs >= 1, "health scorer never evacuated the slow drive")
	check(alloc.HealthNICEvacs >= 1, "health scorer never evacuated the lossy NIC")
	check(alloc.View(core.DeviceSSD, 1).Quarantined, "slow drive not quarantined at end of campaign")
	check(alloc.View(core.DeviceNIC, 1).Quarantined, "lossy NIC not quarantined at end of campaign")
	check(alloc.Failovers == 0, "a gray fault tripped a hard NIC failover")
	check(alloc.SSDFailovers == 0, "a gray fault tripped a hard SSD failover")
	check(alloc.AERFailovers == 0, "a gray fault tripped an AER failover")
	check(primary == 2, "evacuated instance does not answer on the healthy peer NIC")
	check(sfe.Rebinds >= 1, "drive evacuation never re-bound the volume")
	check(maxWindow <= windowBound, "a packet-loss window exceeded the bound")
	for _, w := range windows {
		near := false
		for _, ev := range plan.Events {
			if w.start >= ev.At && w.start <= ev.At+faultSlack {
				near = true
			}
		}
		check(near, "a packet-loss window started away from any fault injection")
	}
	check(maxStall <= stallBound, "a guest write stalled past the bound")

	// --- Report.
	r.addf("fault plan (replayable — feed back through faults.ParsePlan):")
	for _, line := range splitLines(plan.Encode()) {
		r.addf("  %s", line)
	}
	r.addf("injection log:")
	for _, line := range in.Log() {
		r.addf("  %s", line)
	}
	r.addf("writer: %d acked, %d errored, max inter-write stall %v", ackedWrites, writeErrs, maxStall)
	r.addf("probes: %d sent, %d lost, %d outage window(s), max %v", sent, lost, len(windows), maxWindow)
	for _, w := range windows {
		r.addf("  outage [%v, %v]", w.start, w.end)
	}
	r.addf("health: nic_evacs=%d ssd_evacs=%d nic1_quarantined=%v ssd1_quarantined=%v primary(instA)=nic%d",
		alloc.HealthNICEvacs, alloc.HealthSSDEvacs, alloc.View(core.DeviceNIC, 1).Quarantined, alloc.View(core.DeviceSSD, 1).Quarantined, primary)
	r.addf("hard failovers (must all be zero): nic=%d ssd=%d aer=%d",
		alloc.Failovers, alloc.SSDFailovers, alloc.AERFailovers)
	r.addf("storage: rebinds=%d stale_rejected=%d mirror_writes=%d volumes_lost=%d",
		sfe.Rebinds, sfe.StaleRejected, sfe.MirrorWrites, sfe.VolumesLost)
	for _, k := range faults.Kinds() {
		if h := in.Recovery(k); h.Count() > 0 {
			r.addf("recovery[%v]: %s", k, h.Summary())
		}
	}
	if len(violations) == 0 {
		r.addf("invariants: OK (gray devices evacuated, hard failovers silent, no acked write lost)")
	} else {
		r.addf("invariants: VIOLATED (%d)", len(violations))
		for _, v := range violations {
			r.addf("  - %s", v)
		}
	}
	r.Values["violations"] = float64(len(violations))
	r.Values["sent"] = float64(sent)
	r.Values["lost"] = float64(lost)
	r.Values["windows"] = float64(len(windows))
	r.Values["outage_max_ms"] = float64(maxWindow) / 1e6
	r.Values["max_stall_ms"] = float64(maxStall) / 1e6
	r.Values["acked_writes"] = float64(ackedWrites)
	r.Values["write_errors"] = float64(writeErrs)
	r.Values["health_nic_evacs"] = float64(alloc.HealthNICEvacs)
	r.Values["health_ssd_evacs"] = float64(alloc.HealthSSDEvacs)
	r.Values["nic_failovers"] = float64(alloc.Failovers)
	r.Values["ssd_failovers"] = float64(alloc.SSDFailovers)
	r.Values["rebinds"] = float64(sfe.Rebinds)
	r.Values["primary_final"] = float64(primary)
	return r
}
