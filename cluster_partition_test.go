package oasis

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"oasis/internal/faults"
	"oasis/internal/ssd"
)

// runClusterScenario builds the same two-pod rack with pod-local workloads
// and a cross-pod migration driver on either a serial or a partitioned
// cluster, runs a fixed span, and returns the workload transcript plus the
// full merged stats snapshot — both of which must not depend on the mode.
// A non-zero hop replaces the default hop latency.
func runClusterScenario(t *testing.T, partitioned bool, hop Duration) (string, []byte, int64) {
	t.Helper()
	c := newCluster(partitioned)
	if hop != 0 {
		c.SetHopLatency(hop)
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
	snap := c.Stats().JSON()
	migrations := c.Migrations
	c.Shutdown()
	var all []string
	for _, shard := range logs {
		all = append(all, shard...)
	}
	return strings.Join(all, "\n"), snap, migrations
}

// shapesMatch runs the scenario on a serial and on a partitioned cluster and
// insists on what makes them two schedules of one simulation: transcript,
// merged stats snapshot and migration count byte-identical. It returns the
// transcript.
func shapesMatch(t *testing.T, hop Duration) string {
	t.Helper()
	serialLog, serialSnap, serialMig := runClusterScenario(t, false, hop)
	partLog, partSnap, partMig := runClusterScenario(t, true, hop)
	if serialMig != 1 || partMig != 1 {
		t.Fatalf("migrations: serial %d, partitioned %d, want 1", serialMig, partMig)
	}
	if !strings.Contains(serialLog, "verified") {
		t.Fatalf("scenario incomplete:\n%s", serialLog)
	}
	if serialLog != partLog {
		t.Fatalf("transcripts diverge:\n--- serial ---\n%s\n--- partitioned ---\n%s", serialLog, partLog)
	}
	if !bytes.Equal(serialSnap, partSnap) {
		t.Fatalf("stats snapshots diverge:\n--- serial ---\n%s\n--- partitioned ---\n%s", serialSnap, partSnap)
	}
	return serialLog
}

func TestPartitionedClusterMatchesSerial(t *testing.T) { shapesMatch(t, 0) }

// The hop latency has one home, the group's mobile latency, so no cluster
// shape can charge a different one: a non-default SetHopLatency moves the
// migration timeline, and moves both shapes together.
func TestSetHopLatencyKeepsShapesIdentical(t *testing.T) {
	c := NewCluster()
	c.SetHopLatency(75 * time.Microsecond)
	if got := c.group.MobileLatency(); got != 75*time.Microsecond {
		t.Fatalf("hop latency reads back %v", got)
	}
	slow := shapesMatch(t, 75*time.Microsecond)
	if fast, _, _ := runClusterScenario(t, false, 0); slow == fast {
		t.Fatalf("SetHopLatency did not move the migration timeline:\n%s", slow)
	}
}

// The cluster's shape is its partition count: a serial cluster stays on one
// however many pods join, a partitioned one adds one per pod and — for a pod
// with Config.PerHostPartitions — one per client. A serial cluster cannot
// give such a pod its partitions and says so instead of attaching its
// clients directly.
func TestPartitionedClusterShape(t *testing.T) {
	perHost := perHostConfig()
	c := NewPartitionedCluster()
	if c.Partitions() != 1 {
		t.Fatalf("fresh partitioned cluster: Partitions=%d, want 1 (control)", c.Partitions())
	}
	c.AddPod(DefaultConfig())
	p1, err := c.AddPodErr(perHost)
	if err != nil {
		t.Fatalf("per-host pod on a partitioned cluster: %v", err)
	}
	if c.Partitions() != 3 {
		t.Fatalf("2 pods: Partitions=%d, want 3 (control + one per pod)", c.Partitions())
	}
	if !p1.AddClient(IP(10, 1, 99, 1)).Remote() || c.Pod(0).AddClient(IP(10, 0, 99, 1)).Remote() {
		t.Fatal("only the per-host pod's client should attach remotely")
	}
	if c.Partitions() != 4 {
		t.Fatalf("2 pods + 1 partitioned client: Partitions=%d, want 4", c.Partitions())
	}

	s := NewCluster()
	s.AddPod(DefaultConfig())
	s.AddPod(DefaultConfig())
	if s.Partitions() != 1 {
		t.Fatalf("serial cluster with 2 pods: Partitions=%d, want 1", s.Partitions())
	}
	if p, err := s.AddPodErr(perHost); !errors.Is(err, ErrSerialCluster) || p != nil {
		t.Fatalf("per-host pod on a serial cluster: pod %v, err %v; want ErrSerialCluster", p, err)
	}
	if len(s.Pods()) != 2 {
		t.Fatalf("a refused pod was still appended: %d pods", len(s.Pods()))
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
		chunk := p0.cfg.Storage.MaxBlocksPerRequest()
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
		if migrated == nil || migrated.topo != p1.Topology {
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
