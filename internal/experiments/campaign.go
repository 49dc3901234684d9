package experiments

import (
	"encoding/binary"
	"slices"
	"strings"
	"time"

	"oasis"
	"oasis/internal/faults"
	"oasis/internal/instance"
	"oasis/internal/netstack"
	"oasis/internal/ssd"
)

// This file is the harness under every experiment that injects a failure and
// checks what survived it: the acked-write ledger, the UDP echo server, the
// fixed-rate probe stream and its outage windows, and — for the campaigns
// that run a faults.Plan (chaos, grayfail) — the five-host fault pod, the
// invariants every plan must keep, and the report tail. Blackout reuses the
// ledger; Fig. 13 and abl-failover the echo server and the probe stream. A
// campaign is then a plan, its extra actors, its own invariants and its own
// report lines; a generated one (ROADMAP item 5) is runCampaign(plan).

// blockVolume is what the ledger writes to and reads back from: a
// storengine.Volume, or a test's faulty stand-in.
type blockVolume interface {
	Write(p *oasis.Proc, lba uint64, data []byte) error
	Read(p *oasis.Proc, lba uint64, nblocks int) ([]byte, error)
}

// ledger is the acked-write ledger: a writer streams full-block payloads
// round-robin over a fixed set of LBAs, each stamped with its sequence
// number, and remembers per LBA the last sequence that was acknowledged and
// every later one that errored back to the guest. After whatever the run did
// to the volume, each block must hold the last acked write — or a later
// failed one, which may still have landed: it promised nothing either way.
type ledger struct {
	acked       []uint64   // last sequence whose Write returned nil
	failedAfter [][]uint64 // failed sequences since that ack
	ackedWrites int
	writeErrs   int
	maxStall    oasis.Duration // longest gap between two write returns
}

func newLedger(lbas int) *ledger {
	return &ledger{acked: make([]uint64, lbas), failedAfter: make([][]uint64, lbas)}
}

// stamp fills blk with write seq's payload for lba; stamped reads a block
// back as (seq, whether the whole payload is that write's).
func stamp(blk []byte, seq, lba uint64) {
	binary.BigEndian.PutUint64(blk, seq)
	pat := byte(seq) ^ byte(lba)
	for i := 8; i < len(blk); i++ {
		blk[i] = pat
	}
}

func stamped(blk []byte, lba uint64) (seq uint64, whole bool) {
	seq = binary.BigEndian.Uint64(blk)
	pat := byte(seq) ^ byte(lba)
	for i := 8; i < len(blk); i++ {
		if blk[i] != pat {
			return seq, false
		}
	}
	return seq, true
}

// write streams one stamped block every `every` until virtual time `until`.
func (l *ledger) write(p *oasis.Proc, vol blockVolume, every, until oasis.Duration) {
	blk := make([]byte, ssd.BlockSize)
	last := p.Now()
	for seq := uint64(1); p.Now() < until; seq++ {
		lba := seq % uint64(len(l.acked))
		stamp(blk, seq, lba)
		if err := vol.Write(p, lba, blk); err == nil {
			l.acked[lba] = seq
			l.failedAfter[lba] = l.failedAfter[lba][:0]
			l.ackedWrites++
		} else {
			l.writeErrs++
			l.failedAfter[lba] = append(l.failedAfter[lba], seq)
		}
		l.maxStall = max(l.maxStall, p.Now()-last)
		last = p.Now()
		p.Sleep(every)
	}
}

// verify reads every LBA back from vol — the volume written to, or wherever
// its contents were moved — and counts the blocks that hold neither the last
// acked write nor a failed one after it. An LBA that never got an ack has
// nothing promised: it counts only when the caller expects every LBA to have
// been acked (neverAcked).
func (l *ledger) verify(p *oasis.Proc, vol blockVolume, neverAcked bool) (mismatches int) {
	for lba, want := range l.acked {
		if want == 0 {
			if neverAcked {
				mismatches++
			}
			continue
		}
		got, err := vol.Read(p, uint64(lba), 1)
		if err != nil {
			mismatches++
			continue
		}
		seq, ok := stamped(got, uint64(lba))
		if !ok || (seq != want && !slices.Contains(l.failedAfter[lba], seq)) {
			mismatches++
		}
	}
	return mismatches
}

// probeStream is the Fig. 13 probe stream: one UDP echo request per interval
// at a fixed rate, each given one interval to be answered.
type probeStream struct {
	sent int
	lost []oasis.Duration // send time of every unanswered probe
}

// run probes dst:7 from st every `every` until virtual time `until`.
func (s *probeStream) run(p *oasis.Proc, st *netstack.Stack, dst netstack.IP, payload string, every, until oasis.Duration) {
	conn, err := st.ListenUDP(0)
	if err != nil {
		return
	}
	p.Sleep(5 * time.Millisecond) // registration warmup
	for p.Now() < until {
		sendAt := p.Now()
		if conn.SendTo(p, dst, 7, []byte(payload)) != nil {
			continue
		}
		s.sent++
		if _, ok := conn.RecvTimeout(p, every); !ok {
			s.lost = append(s.lost, sendAt)
		} else if wait := sendAt + every - p.Now(); wait > 0 {
			p.Sleep(wait)
		}
	}
}

// outage is a run of lost probes: the send times of its first and last.
type outage struct{ start, end oasis.Duration }

// outages clusters loss times (ascending) into outage windows: a loss less
// than gap after the previous one extends its window.
func outages(lost []oasis.Duration, gap oasis.Duration) []outage {
	var out []outage
	for _, t := range lost {
		if n := len(out); n > 0 && t-out[n-1].end < gap {
			out[n-1].end = t
		} else {
			out = append(out, outage{start: t, end: t})
		}
	}
	return out
}

// nearFault reports whether the outage began within slack after some fault
// of the plan was injected — loss nothing injected explains is a bug.
func (w outage) nearFault(plan faults.Plan, slack oasis.Duration) bool {
	for _, ev := range plan.Events {
		if w.start >= ev.At && w.start <= ev.At+slack {
			return true
		}
	}
	return false
}

// The load and the bounds every fault campaign shares.
const (
	campaignLBAs       = 16
	campaignWriteEvery = 500 * time.Microsecond
	campaignProbeEvery = time.Millisecond
	campaignWindowGap  = 100 * time.Millisecond // losses closer than this are one outage
	campaignFaultSlack = 500 * time.Millisecond // an outage must begin this close after a fault
	campaignStallBound = 400 * time.Millisecond // max tolerated gap between guest writes
)

// campaignSpec is what tells one fault campaign from another before it
// runs: its plan, how long it runs, who lives on the pod, and where the
// harness's own two measurements are booked.
type campaignSpec struct {
	name        string         // process-name prefix
	exec        Exec           // PerHost puts the probe client on a partition of its own
	span        oasis.Duration // fault-timeline length; the writer stops 200 ms and the prober 100 ms short of it
	health      bool           // run the allocator's health scorer
	instances   []netstack.IP  // on host4; the first owns the volume and answers the probes
	client      netstack.IP    // the prober
	probe       string         // probe payload
	windowBound oasis.Duration // max tolerated outage window
	windowKind  faults.Kind    // whose recovery histogram gets the longest outage…
	stallKind   faults.Kind    // …and the longest write stall
	plan        faults.Plan
}

// campaign is a fault campaign that has run: the pod it ran on and what the
// harness measured and checked.
type campaign struct {
	campaignSpec
	pod    *oasis.Pod
	hosts  [5]*oasis.Host
	insts  []*oasis.Instance
	ledger *ledger
	probes probeStream

	windows    []outage
	maxWindow  oasis.Duration
	violations []string
}

// runCampaign builds the five-host fault pod, schedules the plan, runs the
// standard load across it — the ledger writer on the first instance's
// volume, the echo server on that instance, the probe stream from the client
// — plus whatever extras spawns, and checks the invariants every plan must
// keep: the writer finished and its read-back found no acked write lost, the
// volume was never declared lost, every fault resolved and healed, probe
// loss sits in bounded windows that begin near a fault, and no guest write
// stalled past the bound. The pod runs a compressed control plane (120 ms
// leases, 40 ms telemetry) so a whole fault schedule fits in seconds. An
// error means the plan did not schedule; nothing ran.
//
//	host0  allocator + raft replica 0
//	host1  nic1 + raft replica 1
//	host2  nic2 + ssd1 (the volume's primary) + raft replica 2
//	host3  nic3, the pod-wide backup + ssd2, the backup drive
//	host4  the instances
func runCampaign(spec campaignSpec, extras func(c *campaign)) (*campaign, error) {
	c := &campaign{campaignSpec: spec, ledger: newLedger(campaignLBAs)}
	cfg := oasis.DefaultConfig()
	cfg.Engine.IdleBackoff = 200 * time.Microsecond
	cfg.Allocator.LeaseTimeout = 120 * time.Millisecond
	cfg.Storage.TelemetryEvery = 40 * time.Millisecond
	cfg.Engine.TelemetryEvery = 40 * time.Millisecond
	cfg.Allocator.Health = spec.health
	cfg.RaftReplicas = 3
	cfg.PerHostPartitions = spec.exec == PerHost
	pod := oasis.NewPod(cfg)
	c.pod = pod
	for i := range c.hosts {
		c.hosts[i] = pod.AddHost()
	}
	pod.AddNIC(c.hosts[1], false)
	pod.AddNIC(c.hosts[2], false)
	pod.AddNIC(c.hosts[3], true)
	pod.AddSSD(c.hosts[2], 1<<12)
	pod.AddBackupSSD(c.hosts[3], 1<<12)
	for _, ip := range spec.instances {
		c.insts = append(c.insts, pod.AddInstance(c.hosts[4], ip))
	}
	client := pod.AddClient(spec.client)
	vol := pod.AddVolume(c.insts[0], 1, 64)
	pod.Start()
	c.insts[0].RequestAllocation()
	if err := pod.RunFaultPlan(spec.plan); err != nil {
		return nil, err
	}

	writerDone, mismatches := false, 0
	pod.Go(spec.name+"-writer", func(p *oasis.Proc) {
		if !vol.WaitReady(p, 500*time.Millisecond) {
			return
		}
		c.ledger.write(p, vol, campaignWriteEvery, spec.span-200*time.Millisecond)
		mismatches = c.ledger.verify(p, vol, true)
		writerDone = true
	})
	pod.Go(spec.name+"-echo", func(p *oasis.Proc) { instance.Echo(p, c.insts[0].Stack, 7) })
	// Spawned in the client's execution domain: the pod engine (identical to
	// pod.Go) unless the client has a partition of its own.
	client.Go(spec.name+"-prober", func(p *oasis.Proc) {
		c.probes.run(p, client.Stack, spec.instances[0], spec.probe, campaignProbeEvery, spec.span-100*time.Millisecond)
	})
	if extras != nil {
		extras(c)
	}
	// The run is fixed-length with an external Shutdown: with the client
	// partitioned out, a Shutdown from inside a partition would not be a
	// single global instant.
	pod.Run(spec.span + time.Second)
	pod.Shutdown()

	c.windows = outages(c.probes.lost, campaignWindowGap)
	for _, w := range c.windows {
		c.maxWindow = max(c.maxWindow, w.end-w.start+campaignProbeEvery)
	}
	in := pod.Injector()
	if c.maxWindow > 0 {
		in.RecordRecovery(spec.windowKind, c.maxWindow)
	}
	if c.ledger.maxStall > 0 {
		in.RecordRecovery(spec.stallKind, c.ledger.maxStall)
	}
	c.check(writerDone, "writer did not finish its read-back pass")
	c.check(mismatches == 0, "read-back found blocks not matching any acked/failed write")
	c.check(!vol.Lost(), "volume was declared lost")
	c.check(in.Errors() == 0, "fault handlers reported errors")
	c.check(in.Active() == 0, "faults left unhealed at end of campaign")
	c.check(c.maxWindow <= spec.windowBound, "a packet-loss window exceeded the bound")
	for _, w := range c.windows {
		c.check(w.nearFault(spec.plan, campaignFaultSlack), "a packet-loss window started away from any fault injection")
	}
	c.check(c.ledger.maxStall <= campaignStallBound, "a guest write stalled past the bound")
	return c, nil
}

// check records an invariant violation.
func (c *campaign) check(ok bool, what string) {
	if !ok {
		c.violations = append(c.violations, what)
	}
}

// reportRun writes what every campaign report opens with: the replayable
// plan, the injection log, and the writer's and the probe stream's totals.
func (c *campaign) reportRun(r *Report) {
	r.addf("fault plan (replayable — feed back through faults.ParsePlan):")
	for _, line := range strings.Split(strings.TrimSuffix(c.plan.Encode(), "\n"), "\n") {
		r.addf("  %s", line)
	}
	r.addf("injection log:")
	for _, line := range c.pod.Injector().Log() {
		r.addf("  %s", line)
	}
	r.addf("writer: %d acked, %d errored, max inter-write stall %v", c.ledger.ackedWrites, c.ledger.writeErrs, c.ledger.maxStall)
	r.addf("probes: %d sent, %d lost, %d outage window(s), max %v", c.probes.sent, len(c.probes.lost), len(c.windows), c.maxWindow)
	for _, w := range c.windows {
		r.addf("  outage [%v, %v]", w.start, w.end)
	}
	r.Values["sent"] = float64(c.probes.sent)
	r.Values["lost"] = float64(len(c.probes.lost))
	r.Values["windows"] = float64(len(c.windows))
	r.Values["outage_max_ms"] = float64(c.maxWindow) / 1e6
	r.Values["max_stall_ms"] = float64(c.ledger.maxStall) / 1e6
	r.Values["acked_writes"] = float64(c.ledger.ackedWrites)
	r.Values["write_errors"] = float64(c.ledger.writeErrs)
}

// reportVerdict closes the report: the recovery histograms that got samples
// and the invariant verdict (held names what held, in the campaign's words).
func (c *campaign) reportVerdict(r *Report, held string) {
	for _, k := range faults.Kinds() {
		if h := c.pod.Injector().Recovery(k); h.Count() > 0 {
			r.addf("recovery[%v]: %s", k, h.Summary())
		}
	}
	reportViolations(r, c.violations, held)
}

// reportViolations writes the verdict line every invariant-checking
// experiment ends on, and the violations value its test reads.
func reportViolations(r *Report, violations []string, held string) {
	if len(violations) == 0 {
		r.addf("invariants: OK (%s)", held)
	} else {
		r.addf("invariants: VIOLATED (%d)", len(violations))
		for _, v := range violations {
			r.addf("  - %s", v)
		}
	}
	r.Values["violations"] = float64(len(violations))
}
