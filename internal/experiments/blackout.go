package experiments

import (
	"time"

	"oasis"
)

// Blackout measures the migration write-blackout — the window in which the
// source volume is frozen and guest writes fail fast — as a function of
// the guest's write rate, side by side for the two migration protocols:
//
//   - pre-copy (the default): the bulk image and the iterative dirty
//     rounds run while writes continue; only the final dirty flush sits
//     inside the freeze, so the blackout tracks the write rate (how many
//     blocks dirtied per round) rather than the volume size;
//   - stop-the-world (Cluster.StopTheWorldMigration): freeze first, then
//     copy the whole volume inside the blackout — the old protocol, kept
//     as the comparison baseline.
//
// Each cell runs the identical scenario on a fresh two-pod cluster: a
// writer streams sequence-stamped blocks round-robin over the volume while
// the instance migrates cross-pod mid-stream, and the read-back on the
// destination replays the campaign harness's acked-write ledger. The
// acceptance invariants are (a) the pre-copy blackout is strictly smaller
// than the stop-the-world blackout at every write rate, and (b) no acked
// write is lost under either protocol. The run is deterministic, so the
// report is byte-identical across reruns.
//
// Scale trims the write-rate grid (CI uses small scales); the blackout for
// each cell is Cluster.LastBlackout, the engine's own freeze->cutover
// measurement.
func Blackout(scale float64) *Report {
	scale = clampScale(scale)
	r := newReport("blackout", "migration blackout vs write rate: pre-copy vs stop-the-world")

	cadences := []time.Duration{400 * time.Microsecond, 200 * time.Microsecond, 100 * time.Microsecond, 50 * time.Microsecond}
	n := int(float64(len(cadences))*scale + 0.5)
	if n < 2 {
		n = 2
	}
	if n > len(cadences) {
		n = len(cadences)
	}
	cadences = cadences[:n]

	var violations []string
	check := func(ok bool, what string) {
		if !ok {
			violations = append(violations, what)
		}
	}
	r.addf("volume: %d blocks; migration at +5 ms; writer round-robin, full-block writes", blackoutBlocks)
	r.addf("%-12s %-14s %-14s", "write rate", "pre-copy", "stop-the-world")
	for _, every := range cadences {
		rate := int(time.Second / every)
		pre := blackoutOneRun(every, false)
		stw := blackoutOneRun(every, true)
		r.addf("%7d/s   %-14v %-14v", rate, pre.blackout, stw.blackout)
		check(pre.err == nil, "pre-copy migration failed at "+every.String())
		check(stw.err == nil, "stop-the-world migration failed at "+every.String())
		check(pre.mismatch == 0, "pre-copy lost an acked write at "+every.String())
		check(stw.mismatch == 0, "stop-the-world lost an acked write at "+every.String())
		check(pre.acked > 0 && stw.acked > 0, "writer never got an ack at "+every.String())
		check(pre.blackout > 0 && stw.blackout > 0, "a run recorded no blackout at "+every.String())
		check(pre.blackout < stw.blackout, "pre-copy blackout not strictly smaller at "+every.String())
		key := "us_" + every.String()
		r.Values["precopy_"+key] = float64(pre.blackout) / 1e3
		r.Values["stw_"+key] = float64(stw.blackout) / 1e3
	}
	reportViolations(r, violations, "pre-copy blackout strictly smaller than stop-the-world at every rate, no acked write lost")
	r.Values["rates"] = float64(len(cadences))
	return r
}

const blackoutBlocks = 256

type blackoutResult struct {
	blackout oasis.Duration
	acked    int
	mismatch int
	err      error
}

// blackoutOneRun migrates a written-to volume across pods once and reports
// the freeze window and the acked-write ledger verdict.
func blackoutOneRun(writeEvery time.Duration, stopTheWorld bool) blackoutResult {
	const (
		migrateAt  = 5 * time.Millisecond
		writerStop = 12 * time.Millisecond
		verifyAt   = 13 * time.Millisecond
	)
	c := oasis.NewCluster()
	for i := 0; i < 2; i++ {
		cfg := oasis.DefaultConfig()
		p := c.AddPod(cfg)
		hA := p.AddHost()
		hB := p.AddHost()
		p.AddNIC(hB, false)
		p.AddSSD(hB, 1<<16)
		if i == 0 {
			p.AddBackupSSD(hA, 1<<16)
		}
	}
	c.StopTheWorldMigration = stopTheWorld
	p0 := c.Pod(0)
	ip := oasis.IP(10, 0, 0, 40)
	inst := p0.AddInstance(p0.Hosts[0], ip)
	vol := p0.AddVolume(inst, 1, blackoutBlocks)
	c.Start()

	led := newLedger(blackoutBlocks)
	var res blackoutResult
	c.Go("blackout-writer", func(p *oasis.Proc) {
		if !vol.WaitReady(p, 100*time.Millisecond) {
			return
		}
		// The tail of the stream fails against the cut-over source volume;
		// those writes were never acked and promise nothing.
		led.write(p, vol, writeEvery, writerStop)
	})
	c.Go("blackout-migrator", func(p *oasis.Proc) {
		defer c.Shutdown()
		p.Sleep(migrateAt)
		newInst, err := c.MigrateInstance(p, ip, 1)
		if err != nil {
			res.err = err
			return
		}
		res.blackout = c.LastBlackout
		for p.Now() < verifyAt {
			p.Sleep(time.Millisecond)
		}
		if nv := newInst.Host().SFE.Volume(newInst.IPAddr()); nv != nil {
			// An LBA the stream never reached was never acked: not a loss.
			res.mismatch = led.verify(p, nv, false)
		} else {
			res.mismatch = blackoutBlocks
		}
	})
	c.Run(time.Second)
	res.acked = led.ackedWrites
	return res
}
