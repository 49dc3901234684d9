package experiments

import (
	"encoding/binary"
	"time"

	"oasis"
	"oasis/internal/faults"
	"oasis/internal/ssd"
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
// The fault timeline is absolute, so the run is byte-for-byte replayable:
// the report embeds the encoded faults.Plan and rerunning the experiment
// (at any scale — chaos ignores scale, fault mechanics need real
// timeouts) must reproduce the identical report. To keep the campaign
// cheap enough for CI and the race gate, the pod runs with a compressed
// control plane — 120 ms device leases and 40 ms telemetry instead of the
// paper's 300/100 ms — which shrinks every detection window and lets the
// whole seven-fault schedule fit in 2.6 virtual seconds.
//
// Under PerHost the probe client runs on a partition of its own behind a
// switch RemotePort. The remote attachment adds real cable latency, so that
// report is not byte-comparable to the serial one — every recovery invariant
// must still hold with the client advancing in parallel, and the per-host
// timeline is itself byte-identical across reruns and GOMAXPROCS settings.
// PerPod is Serial: the campaign has one pod.
func Chaos(scale float64) *Report { return chaosRun(scale, exec) }

func chaosRun(_ float64, x Exec) *Report {
	r := newReport("chaos", "chaos campaign: all fault kinds + recovery invariants (2.6 s run)")
	const (
		span        = 2600 * time.Millisecond
		writerStop  = span - 200*time.Millisecond
		proberStop  = span - 100*time.Millisecond
		lbaCount    = 16
		writeEvery  = 500 * time.Microsecond
		probeEvery  = time.Millisecond
		instBAsk    = 820 * time.Millisecond
		windowGap   = 100 * time.Millisecond // losses closer than this are one outage
		windowBound = 300 * time.Millisecond // max tolerated outage window
		faultSlack  = 500 * time.Millisecond // losses must sit this close after a fault
		allocBound  = 600 * time.Millisecond
		stallBound  = 400 * time.Millisecond
	)

	ipA := oasis.IP(10, 0, 0, 20)
	ipB := oasis.IP(10, 0, 0, 21)
	ipC := oasis.IP(10, 0, 99, 2)

	cfg := oasis.DefaultConfig()
	cfg.Engine.IdleBackoff = 200 * time.Microsecond
	cfg.Allocator.LeaseTimeout = 120 * time.Millisecond
	cfg.Storage.TelemetryEvery = 40 * time.Millisecond
	cfg.Engine.TelemetryEvery = 40 * time.Millisecond
	cfg.RaftReplicas = 3
	cfg.PerHostPartitions = x == PerHost
	pod := oasis.NewPod(cfg)
	host0 := pod.AddHost() // allocator + raft replica 0
	host1 := pod.AddHost() // nic1 + raft replica 1
	host2 := pod.AddHost() // nic2 + ssd1 backend + raft replica 2
	host3 := pod.AddHost() // backup NIC + backup SSD
	host4 := pod.AddHost() // both instances
	_ = host0
	pod.AddNIC(host1, false)       // nic1: instA's primary
	pod.AddNIC(host2, false)       // nic2: instB's primary
	pod.AddNIC(host3, true)        // nic3: pod-wide backup
	pod.AddSSD(host2, 1<<12)       // ssd1: volume primary
	pod.AddBackupSSD(host3, 1<<12) // ssd2: mirror / failover target
	instA := pod.AddInstance(host4, ipA)
	instB := pod.AddInstance(host4, ipB)
	client := pod.AddClient(ipC)
	vol := pod.AddVolume(instA, 1, 64)
	pod.Start()
	instA.RequestAllocation()

	plan := faults.Plan{
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
	}
	if err := pod.RunFaultPlan(plan); err != nil {
		r.addf("SCHEDULE ERROR: %v", err)
		return r
	}

	// --- Writer: round-robin over lbaCount LBAs, full-block payloads that
	// embed the sequence number, so read-back verification can tell exactly
	// which write's data each block holds.
	fill := func(blk []byte, seq uint64, lba uint64) {
		binary.BigEndian.PutUint64(blk, seq)
		pat := byte(seq) ^ byte(lba)
		for i := 8; i < len(blk); i++ {
			blk[i] = pat
		}
	}
	var (
		acked       [lbaCount]uint64   // last sequence whose Write returned nil
		failedAfter [lbaCount][]uint64 // failed sequences since the last ack
		ackedWrites int
		writeErrs   int
		maxStall    oasis.Duration
		writerDone  bool
		mismatches  int
	)
	pod.Go("chaos-writer", func(p *oasis.Proc) {
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
		// Read-back: each block must hold the data of the last acked write,
		// or of a later write that reported an error to the guest (a failed
		// write may still have landed — it promised nothing).
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

	// --- Probe stream: the Fig. 13 UDP echo loop, run across the whole
	// campaign; losses are clustered into outage windows afterwards.
	pod.Go("chaos-echo", func(p *oasis.Proc) {
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
	// Spawned in the client's execution domain: the pod engine (identical to
	// pod.Go) unless the client has a partition of its own.
	client.Go("chaos-prober", func(p *oasis.Proc) {
		conn, err := client.Stack.ListenUDP(0)
		if err != nil {
			return
		}
		p.Sleep(5 * time.Millisecond) // registration warmup
		for p.Now() < proberStop {
			sendAt := p.Now()
			if conn.SendTo(p, ipA, 7, []byte("chaos-probe-chaos")) != nil {
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

	// --- Allocation under allocator loss: instB asks for a NIC while
	// host0 (allocator + raft leader) is crashed; the request must be
	// retried by the frontend and satisfied soon after the host heals.
	var allocRecovery oasis.Duration
	pod.Go("chaos-instB", func(p *oasis.Proc) {
		p.Sleep(instBAsk)
		instB.RequestAllocation()
		if instB.WaitReady(p, 1500*time.Millisecond) {
			allocRecovery = p.Now() - instBAsk
		}
	})

	// The run is fixed-length with an external Shutdown: with the client
	// partitioned out, a Shutdown from inside a partition would not be a
	// single global instant.
	pod.Run(span + time.Second)
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
		in.RecordRecovery(faults.PortFlap, maxWindow)
	}
	if allocRecovery > 0 {
		in.RecordRecovery(faults.HostCrash, allocRecovery)
	}
	if maxStall > 0 {
		in.RecordRecovery(faults.EngineStall, maxStall)
	}

	alloc := pod.Alloc
	sfe := host4.SFE
	fe := host4.FE

	// --- Invariants.
	var violations []string
	check := func(ok bool, what string) {
		if !ok {
			violations = append(violations, what)
		}
	}
	check(writerDone, "writer did not finish its read-back pass")
	check(mismatches == 0, "read-back found blocks not matching any acked/failed write")
	check(!vol.Lost(), "volume was declared lost despite a live backup drive")
	check(in.Errors() == 0, "fault handlers reported errors")
	check(in.Active() == 0, "faults left unhealed at end of campaign")
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
	check(allocRecovery > 0 && allocRecovery <= allocBound, "allocation during allocator crash did not recover in bound")
	check(maxStall <= stallBound, "a guest write stalled past the bound")
	check(alloc.SSDFailovers >= 2, "expected at least two SSD failovers")
	check(alloc.Failovers >= 2, "expected at least two NIC failovers")
	check(alloc.HostDeaths >= 1, "host-death inference never fired")
	check(alloc.LeaseReconstructions >= 1, "lease reconstruction never fired")
	check(sfe.StaleRejected >= 1, "epoch fence never rejected a zombie completion")
	check(fe.AllocRetries >= 1, "frontend never retried the allocation RPC")

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
	r.addf("allocation requested at %v during allocator crash; recovered in %v", instBAsk, allocRecovery)
	r.addf("alloc: ssd_failovers=%d nic_failovers=%d host_deaths=%d lease_rebuilds=%d propose_retries=%d",
		alloc.SSDFailovers, alloc.Failovers, alloc.HostDeaths, alloc.LeaseReconstructions, alloc.ProposeRetries)
	r.addf("storage: rebinds=%d stale_rejected=%d mirror_writes=%d quarantined=%d volumes_lost=%d",
		sfe.Rebinds, sfe.StaleRejected, sfe.MirrorWrites, sfe.QuarantinedBufs, sfe.VolumesLost)
	r.addf("net fe: alloc_retries=%d", fe.AllocRetries)
	for _, k := range faults.Kinds() {
		if h := in.Recovery(k); h.Count() > 0 {
			r.addf("recovery[%v]: %s", k, h.Summary())
		}
	}
	if len(violations) == 0 {
		r.addf("invariants: OK (no acked write lost, loss windows bounded, recovery within bounds)")
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
	r.Values["alloc_recovery_ms"] = float64(allocRecovery) / 1e6
	r.Values["max_stall_ms"] = float64(maxStall) / 1e6
	r.Values["acked_writes"] = float64(ackedWrites)
	r.Values["write_errors"] = float64(writeErrs)
	r.Values["ssd_failovers"] = float64(alloc.SSDFailovers)
	r.Values["host_deaths"] = float64(alloc.HostDeaths)
	r.Values["stale_rejected"] = float64(sfe.StaleRejected)
	r.Values["rebinds"] = float64(sfe.Rebinds)
	return r
}

// splitLines splits on newlines, dropping a trailing empty line.
func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
