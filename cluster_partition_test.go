package oasis

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"oasis/internal/faults"
	"oasis/internal/sim"
	"oasis/internal/ssd"
	"oasis/internal/storengine"
)

// clusterRun is what one run of the cluster scenario leaves behind: the
// workload transcript, the merged stats snapshot and the migration count —
// none of which may depend on the shape — and the exact costs of running it
// (Cluster.Counters), which do.
type clusterRun struct {
	log        string
	snap       []byte
	migrations int64
	ctr        sim.Counters
	group      sim.GroupCounters
}

// runClusterScenario builds the same two-pod rack with pod-local workloads
// and a cross-pod migration driver on either a serial or a partitioned
// cluster and runs a fixed span. A non-zero hop replaces the default hop
// latency.
func runClusterScenario(t *testing.T, partitioned bool, hop Duration) clusterRun {
	t.Helper()
	c := newCluster(partitioned)
	if hop != 0 {
		c.group.SetMobileLatency(hop)
	}
	for i := 0; i < 2; i++ {
		cfg := DefaultConfig()
		p := c.AddPod(cfg)
		hA := p.AddHost()
		hB := p.AddHost()
		p.AddNIC(hB, false)
		p.AddSSD(hB, 1<<16)
		_ = hA
	}
	p0, p1 := c.Pod(0), c.Pod(1)
	inst := p0.AddInstance(p0.Hosts[0], IP(10, 0, 0, 10))
	vol := p0.AddVolume(inst, 1, 64)
	// Skew pod0 so the balancer has something to move.
	for i := 0; i < 2; i++ {
		p0.AddInstance(p0.Hosts[1], IP(10, 0, 3, byte(20+i)))
	}
	c.Start()

	// Each process logs into its own shard: shards from different
	// partitions fill concurrently, so a shared slice would record the
	// wall-clock interleaving (and race); per-process virtual timelines
	// are the mode-invariant artifact.
	logs := make([][]string, 4)
	data := bytes.Repeat([]byte{0xA7}, 8*ssd.BlockSize)
	// Pod-local seeding runs inside pod0's own execution domain.
	c.GoPod(0, "seeder", func(p *Proc) {
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("source volume not ready")
			return
		}
		if err := vol.Write(p, 0, data); err != nil {
			t.Errorf("seed write: %v", err)
			return
		}
		logs[0] = append(logs[0], fmt.Sprintf("%v seeded", p.Now()))
	})
	// Independent pod-local workers: these are what partitioned mode runs
	// in parallel. Their virtual timelines must be mode-invariant.
	for i := 0; i < 2; i++ {
		i := i
		c.GoPod(i, fmt.Sprintf("worker%d", i), func(p *Proc) {
			for n := 0; n < 4; n++ {
				p.Sleep(time.Duration(3+i) * time.Millisecond)
				logs[1+i] = append(logs[1+i], fmt.Sprintf("%v worker%d tick %d", p.Now(), i, n))
			}
		})
	}
	// The cross-pod driver is a mobile process: every pod touch hops.
	c.Go("balancer", func(p *Proc) {
		p.Sleep(10 * time.Millisecond) // let the seeder finish
		newInst, err := c.MigrateInstance(p, IP(10, 0, 0, 10), 1)
		if err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		logs[3] = append(logs[3], fmt.Sprintf("%v migrated", p.Now()))
		c.hop(p, p1)
		nv := newInst.Host().SFE.Volume(newInst.IPAddr())
		if nv == nil {
			t.Error("no volume on destination")
			return
		}
		got, err := nv.Read(p, 0, 8)
		if err != nil {
			t.Errorf("dest read: %v", err)
		} else if !bytes.Equal(got, data) {
			t.Error("migrated volume data mismatch")
		}
		logs[3] = append(logs[3], fmt.Sprintf("%v verified", p.Now()))
	})
	c.Run(80 * time.Millisecond)
	r := clusterRun{snap: c.Stats().JSON(), migrations: c.Migrations}
	r.ctr, r.group = c.Counters()
	c.Shutdown()
	var all []string
	for _, shard := range logs {
		all = append(all, shard...)
	}
	r.log = strings.Join(all, "\n")
	return r
}

// shapesMatch runs the scenario on a serial and on a partitioned cluster and
// insists on what makes them two schedules of one simulation: transcript,
// merged stats snapshot and migration count byte-identical. It returns the
// transcript.
func shapesMatch(t *testing.T, hop Duration) string {
	t.Helper()
	serial := runClusterScenario(t, false, hop)
	part := runClusterScenario(t, true, hop)
	if serial.migrations != 1 || part.migrations != 1 {
		t.Fatalf("migrations: serial %d, partitioned %d, want 1", serial.migrations, part.migrations)
	}
	if !strings.Contains(serial.log, "verified") {
		t.Fatalf("scenario incomplete:\n%s", serial.log)
	}
	if serial.log != part.log {
		t.Fatalf("transcripts diverge:\n--- serial ---\n%s\n--- partitioned ---\n%s", serial.log, part.log)
	}
	if !bytes.Equal(serial.snap, part.snap) {
		t.Fatalf("stats snapshots diverge:\n--- serial ---\n%s\n--- partitioned ---\n%s", serial.snap, part.snap)
	}
	return serial.log
}

func TestPartitionedClusterMatchesSerial(t *testing.T) { shapesMatch(t, 0) }

// TestPartitionedClusterExactCounts pins what the partitioned run of that
// scenario cost — the partitions' summed engine counters and what the
// barrier loop did — to its row of testdata/counts.txt: all of it derives
// from virtual state alone, so it repeats on any machine at any GOMAXPROCS,
// and a change to the window math shows up there as a number rather than as
// seconds. Events over CriticalEvents is the run's speedup ceiling on
// unlimited cores.
func TestPartitionedClusterExactCounts(t *testing.T) {
	got := runClusterScenario(t, true, 0)
	checkCounts(t, countLine("cluster", got.ctr, got.group))
}

// The hop latency has one home, the group's mobile latency, so no cluster
// shape can charge a different one: a non-default hop latency moves the
// migration timeline, and moves both shapes together.
func TestHopLatencyKeepsShapesIdentical(t *testing.T) {
	slow := shapesMatch(t, 75*time.Microsecond)
	if fast := runClusterScenario(t, false, 0).log; slow == fast {
		t.Fatalf("a 75 µs hop latency did not move the migration timeline:\n%s", slow)
	}
}

// The cluster's shape is its partition count: a serial cluster stays on one
// however many pods join, a partitioned one adds one per pod — and nothing
// more for the nodes inside a pod, clients included.
func TestPartitionedClusterShape(t *testing.T) {
	c := NewPartitionedCluster()
	if c.Partitions() != 1 {
		t.Fatalf("fresh partitioned cluster: Partitions=%d, want 1 (control)", c.Partitions())
	}
	c.AddPod(DefaultConfig())
	c.AddPod(DefaultConfig()).AddClient(IP(10, 1, 99, 1))
	if c.Partitions() != 3 {
		t.Fatalf("2 pods and a client: Partitions=%d, want 3 (control + one per pod)", c.Partitions())
	}

	s := NewCluster()
	s.AddPod(DefaultConfig())
	s.AddPod(DefaultConfig())
	if s.Partitions() != 1 {
		t.Fatalf("serial cluster with 2 pods: Partitions=%d, want 1", s.Partitions())
	}
}

// A fault plan that targets a pod while an instance is migrating into it
// must still route by pod index — the plan names rack positions, not
// instance locations — and whatever the fault does to the copy, the
// migration must either complete with the data intact or abort with the
// source instance fully restored (writes unfrozen).
func TestClusterFaultPlanMidMigrationRouting(t *testing.T) {
	const lbaCount = 2048 // long copy so the fault lands mid-flight
	c, p0, p1 := twoPodCluster(t)
	inst := p0.AddInstance(p0.Hosts[0], IP(10, 0, 0, 10))
	vol := p0.AddVolume(inst, 1, lbaCount)
	c.Start()

	data := bytes.Repeat([]byte{0x3C}, lbaCount*ssd.BlockSize)
	var migErr error
	var migrated *Instance
	finished := false
	c.Go("migrate", func(p *Proc) {
		defer c.Shutdown()
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("source volume not ready")
			return
		}
		chunk := storengine.MaxBlocksPerRequest
		for lba := 0; lba < lbaCount; lba += chunk {
			end := lba + chunk
			if end > lbaCount {
				end = lbaCount
			}
			if err := vol.Write(p, uint64(lba), data[lba*ssd.BlockSize:end*ssd.BlockSize]); err != nil {
				t.Errorf("seed write at lba %d: %v", lba, err)
				return
			}
		}
		start := p.Now()
		// Fire the destination-pod fault while the copy is in flight.
		if err := c.RunFaultPlan(faults.Plan{Name: "midmig", Events: []faults.Event{
			{At: start + 200*time.Microsecond, Kind: faults.SSDFail, Target: "pod1/ssd1", Heal: 30 * time.Millisecond},
		}}); err != nil {
			t.Errorf("mid-migration plan: %v", err)
			return
		}
		migrated, migErr = c.MigrateInstance(p, IP(10, 0, 0, 10), 1)
		finished = true
	})
	c.Run(5 * time.Second)
	if !finished {
		t.Fatal("migration scenario did not finish")
	}
	if c.Pod(1).Injector() == nil {
		t.Fatal("destination pod's injector never bound: plan was not routed by pod index")
	}
	if c.Pod(1).Injector().Injected(faults.SSDFail) != 1 {
		t.Fatalf("destination injector fired %d SSDFail events, want 1", c.Pod(1).Injector().Injected(faults.SSDFail))
	}
	if inj := c.Pod(0).Injector(); inj != nil && inj.Injected(faults.SSDFail) != 0 {
		t.Fatal("source pod received the destination-scoped fault")
	}
	if migErr == nil {
		// Completed despite the fault: data must be on pod1.
		if migrated == nil || migrated.pod != p1 {
			t.Fatal("migration reported success but instance is not on pod1")
		}
	} else {
		// Aborted: typed error, source placement intact and writable again.
		if !errors.Is(migErr, ErrMigrationFailed) {
			t.Fatalf("migration failure not typed: %v", migErr)
		}
		if pod, _ := c.findInstance(IP(10, 0, 0, 10)); pod != p0 {
			t.Fatal("aborted migration lost the source placement")
		}
	}
}
