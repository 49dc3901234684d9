package oasis

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"oasis/internal/faults"
	"oasis/internal/ssd"
)

// twoPodCluster builds a small two-pod rack: each pod has two hosts, one
// pooled NIC, and one pooled SSD; pod0 additionally carries a backup SSD
// so its volumes survive drive faults.
func twoPodCluster(t *testing.T) (*Cluster, *Pod, *Pod) {
	t.Helper()
	c := NewCluster()
	for i := 0; i < 2; i++ {
		cfg := DefaultConfig()
		p := c.AddPod(cfg)
		hA := p.AddHost()
		hB := p.AddHost()
		p.AddNIC(hB, false)
		p.AddSSD(hB, 1<<16)
		if i == 0 {
			p.AddBackupSSD(hA, 1<<16)
		}
	}
	return c, c.Pod(0), c.Pod(1)
}

func TestClusterPlacementLeastLoaded(t *testing.T) {
	c := NewCluster()
	// pod0: two usable NICs; pod1: one. Placement is instances-per-NIC, so
	// the first three placements should land pod0, pod0, pod1 (0/2 < 0/1;
	// 1/2 < 1/1 after a tie at 0.5 resolves to the lower index... walk it).
	for i := 0; i < 2; i++ {
		cfg := DefaultConfig()
		p := c.AddPod(cfg)
		hA := p.AddHost()
		hB := p.AddHost()
		p.AddNIC(hB, false)
		if i == 0 {
			p.AddNIC(hA, false)
		}
	}
	c.Start()
	var got []int
	for i := 0; i < 6; i++ {
		inst, err := c.PlaceInstanceErr(IP(10, 0, 1, byte(10+i)))
		if err != nil {
			t.Fatalf("place %d: %v", i, err)
		}
		got = append(got, inst.pod.podIndex)
	}
	// load after k placements on pod0 is k/2, pod1 is k/1. Greedy
	// least-loaded with low-index ties: 0,1,0,0,1,0.
	want := []int{0, 1, 0, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placement sequence %v, want %v", got, want)
		}
	}
	if _, err := c.PlaceInstanceErr(IP(10, 0, 1, 10)); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate IP across pods: got %v, want ErrDuplicateNode", err)
	}
	c.Shutdown()
	c.Run(time.Millisecond)
}

func TestClusterMigrationPreservesData(t *testing.T) {
	c, p0, p1 := twoPodCluster(t)
	inst := p0.AddInstance(p0.Hosts[0], IP(10, 0, 0, 10))
	vol := p0.AddVolume(inst, 1, 64)
	c.Start()

	data := bytes.Repeat([]byte{0x5A}, 8*ssd.BlockSize)
	done := false
	c.Go("migrate", func(p *Proc) {
		defer c.Shutdown()
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("source volume not ready")
			return
		}
		if err := vol.Write(p, 0, data); err != nil {
			t.Errorf("seed write: %v", err)
			return
		}
		newInst, err := c.MigrateInstance(p, IP(10, 0, 0, 10), 1)
		if err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		if newInst.pod != p1 {
			t.Error("migrated instance not on pod1")
		}
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
		// Source placement must be gone.
		if pod, _ := c.findInstance(IP(10, 0, 0, 10)); pod != p1 {
			t.Error("instance still registered on source pod")
		}
		if p0.Hosts[0].SFE.Volume(IP(10, 0, 0, 10)) != nil {
			t.Error("source volume still registered")
		}
		done = true
	})
	c.Run(2 * time.Second)
	if !done {
		t.Fatal("migration scenario did not complete")
	}
	if c.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", c.Migrations)
	}
}

// TestClusterMigrationUnderChaosNoAckedWriteLost runs a writer against a
// pod0 volume while a fault plan tears at both pods (SSD failover, port
// flap, engine stall), migrates the instance to pod1 mid-stream, and then
// verifies on the destination that every block holds the data of the last
// acked write to it (or of a later write that errored — a failed write
// promised nothing). Writes rejected during the migration freeze were
// never acked, so the invariant is exactly "no acked write lost".
func TestClusterMigrationUnderChaosNoAckedWriteLost(t *testing.T) {
	const lbaCount = 16
	c, p0, _ := twoPodCluster(t)
	inst := p0.AddInstance(p0.Hosts[0], IP(10, 0, 0, 10))
	vol := p0.AddVolume(inst, 1, lbaCount)
	c.Start()

	plan := faults.Plan{
		Name: "cluster-migration-chaos",
		Seed: 7,
		Events: []faults.Event{
			{At: 2 * time.Millisecond, Kind: faults.SSDFail, Target: "pod0/ssd1", Heal: 3 * time.Millisecond},
			{At: 4 * time.Millisecond, Kind: faults.PortFlap, Target: "pod0/nic1", Heal: time.Millisecond},
			{At: 6 * time.Millisecond, Kind: faults.EngineStall, Target: "pod1/host1/be1", Heal: 2 * time.Millisecond},
			{At: 9 * time.Millisecond, Kind: faults.SSDFail, Target: "pod1/ssd1", Heal: 2 * time.Millisecond},
		},
	}
	if err := c.RunFaultPlan(plan); err != nil {
		t.Fatalf("schedule: %v", err)
	}

	fill := func(blk []byte, seq, lba uint64) {
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
		writerDone  bool
	)
	c.Go("writer", func(p *Proc) {
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("volume not ready")
			return
		}
		blk := make([]byte, ssd.BlockSize)
		for seq := uint64(1); p.Now() < 14*time.Millisecond; seq++ {
			lba := seq % lbaCount
			fill(blk, seq, lba)
			if err := vol.Write(p, lba, blk); err == nil {
				acked[lba] = seq
				failedAfter[lba] = failedAfter[lba][:0]
				ackedWrites++
			} else {
				failedAfter[lba] = append(failedAfter[lba], seq)
			}
			p.Sleep(40 * time.Microsecond)
		}
		writerDone = true
	})

	verified := false
	c.Go("migrator", func(p *Proc) {
		defer c.Shutdown()
		p.Sleep(8 * time.Millisecond) // mid-chaos, mid-writer
		newInst, err := c.MigrateInstance(p, IP(10, 0, 0, 10), 1)
		if err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		// Let the writer's tail (all failing against the dead source
		// volume) drain before checking the frozen acked state.
		for p.Now() < 15*time.Millisecond {
			p.Sleep(time.Millisecond)
		}
		nv := newInst.Host().SFE.Volume(newInst.IPAddr())
		if nv == nil {
			t.Error("no destination volume")
			return
		}
		for lba := uint64(0); lba < lbaCount; lba++ {
			want := acked[lba]
			if want == 0 {
				continue // never acked: nothing promised
			}
			got, err := nv.Read(p, lba, 1)
			if err != nil {
				t.Errorf("lba %d: read: %v", lba, err)
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
				t.Errorf("lba %d: holds seq %d, want acked seq %d (acked write lost)", lba, seq, want)
			}
		}
		verified = true
	})
	c.Run(time.Second)
	if !verified || !writerDone {
		t.Fatalf("scenario incomplete: writerDone=%v verified=%v", writerDone, verified)
	}
	if ackedWrites == 0 {
		t.Fatal("writer never got an ack; scenario vacuous")
	}
}

// TestClusterMigrationAbortsOnDestinationSSDFail kills the destination
// pod's only SSD while a pre-copy migration is mid-flight (writer still
// streaming, dirty rounds in progress). The migration must abort cleanly:
// ErrMigrationFailed comes back, the half-built destination instance and
// volume are torn down, and the source volume is left intact — unfrozen,
// tracking disarmed, every previously-acked write still readable and new
// writes succeeding. Pod1 has no backup SSD, so the dirty-flush writes on
// the destination fail outright rather than failing over.
func TestClusterMigrationAbortsOnDestinationSSDFail(t *testing.T) {
	const lbaCount = 16
	c, p0, _ := twoPodCluster(t)
	ip := IP(10, 0, 0, 10)
	inst := p0.AddInstance(p0.Hosts[0], ip)
	vol := p0.AddVolume(inst, 1, lbaCount)
	c.Start()

	// No heal: the destination SSD stays dead for the rest of the run.
	plan := faults.Plan{
		Name: "migration-dest-ssd-fail",
		Seed: 11,
		Events: []faults.Event{
			{At: 8100 * time.Microsecond, Kind: faults.SSDFail, Target: "pod1/ssd1"},
		},
	}
	if err := c.RunFaultPlan(plan); err != nil {
		t.Fatalf("schedule: %v", err)
	}

	fill := func(blk []byte, seq, lba uint64) {
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
		writerDone  bool
	)
	c.Go("writer", func(p *Proc) {
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("volume not ready")
			return
		}
		blk := make([]byte, ssd.BlockSize)
		for seq := uint64(1); p.Now() < 16*time.Millisecond; seq++ {
			lba := seq % lbaCount
			fill(blk, seq, lba)
			if err := vol.Write(p, lba, blk); err == nil {
				acked[lba] = seq
				failedAfter[lba] = failedAfter[lba][:0]
				ackedWrites++
			} else {
				failedAfter[lba] = append(failedAfter[lba], seq)
			}
			p.Sleep(40 * time.Microsecond)
		}
		writerDone = true
	})

	verified := false
	c.Go("migrator", func(p *Proc) {
		defer c.Shutdown()
		p.Sleep(8 * time.Millisecond) // start the copy just before the fault
		_, err := c.MigrateInstance(p, ip, 1)
		if !errors.Is(err, ErrMigrationFailed) {
			t.Errorf("migrate: got %v, want ErrMigrationFailed", err)
			return
		}
		// The failure must come from the destination copy path, not from
		// volume setup — that is what makes this an abort mid-pre-copy.
		if !strings.Contains(err.Error(), "write") {
			t.Errorf("migrate failed outside the copy-write phase: %v", err)
		}
		t.Logf("migration aborted at %v: %v", p.Now(), err)
		// Source placement and volume must be intact, destination gone.
		if pod, _ := c.findInstance(ip); pod != p0 {
			t.Error("instance no longer registered on source pod")
		}
		if p0.Hosts[0].SFE.Volume(ip) == nil {
			t.Error("source volume gone after aborted migration")
		}
		if vol.Migrating() {
			t.Error("source volume still frozen after abort")
		}
		if vol.DirtyCount() != 0 {
			t.Error("dirty tracking still armed after abort")
		}
		// The copy-write stalls on the dead destination SSD until its
		// request timeout, so by the time the abort returns the writer has
		// long finished — its acked state is frozen and safe to verify.
		for lba := uint64(0); lba < lbaCount; lba++ {
			want := acked[lba]
			if want == 0 {
				continue
			}
			got, err := vol.Read(p, lba, 1)
			if err != nil {
				t.Errorf("lba %d: read: %v", lba, err)
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
				t.Errorf("lba %d: holds seq %d, want acked seq %d (acked write lost)", lba, seq, want)
			}
		}
		// A fresh write against the recovered source volume must be acked:
		// the abort left it unfrozen and fully serviceable.
		blk := make([]byte, ssd.BlockSize)
		fill(blk, 1<<32, 0)
		if err := vol.Write(p, 0, blk); err != nil {
			t.Errorf("post-abort write on source: %v", err)
		}
		verified = true
	})
	c.Run(time.Second)
	if !verified || !writerDone {
		t.Fatalf("scenario incomplete: writerDone=%v verified=%v", writerDone, verified)
	}
	if ackedWrites == 0 {
		t.Fatal("writer never got an ack; scenario vacuous")
	}
	if c.Migrations != 0 {
		t.Fatalf("Migrations = %d after a failed migration, want 0", c.Migrations)
	}
}

func TestClusterFaultPlanRouting(t *testing.T) {
	c, _, _ := twoPodCluster(t)
	c.Start()
	// Unscoped targets must be rejected at the cluster layer.
	err := c.RunFaultPlan(faults.Plan{Name: "x", Events: []faults.Event{
		{At: time.Millisecond, Kind: faults.SSDFail, Target: "ssd1"},
	}})
	if err == nil || !strings.Contains(err.Error(), "pod scope") {
		t.Fatalf("unscoped target: got %v, want pod-scope error", err)
	}
	// Out-of-range pods too.
	err = c.RunFaultPlan(faults.Plan{Name: "x", Events: []faults.Event{
		{At: time.Millisecond, Kind: faults.SSDFail, Target: "pod7/ssd1"},
	}})
	if !errors.Is(err, ErrNoSuchPod) {
		t.Fatalf("pod7 target: got %v, want ErrNoSuchPod", err)
	}
	// Scoped events land on the right pod's injector.
	err = c.RunFaultPlan(faults.Plan{Name: "x", Events: []faults.Event{
		{At: time.Millisecond, Kind: faults.SSDFail, Target: "pod1/ssd1", Heal: time.Millisecond},
		{At: time.Millisecond, Kind: faults.PortFlap, Target: "pod0/nic1", Heal: time.Millisecond},
	}})
	if err != nil {
		t.Fatalf("scoped plan: %v", err)
	}
	if c.Pod(0).Injector() == nil || c.Pod(1).Injector() == nil {
		t.Fatal("scoped events did not bind both pod injectors")
	}
	c.Run(5 * time.Millisecond)
	c.Shutdown()
	c.Run(time.Millisecond)
}

func TestClusterStatsMergedAndScoped(t *testing.T) {
	c, _, _ := twoPodCluster(t)
	inst := c.PlaceInstance(IP(10, 0, 2, 10))
	c.Start()
	c.Go("app", func(p *Proc) {
		inst.WaitReady(p, 50*time.Millisecond)
		c.Shutdown()
	})
	c.Run(100 * time.Millisecond)
	s := c.Stats()
	seen := map[string]bool{}
	for i, pt := range s.Points {
		// Every metric embeds its pod scope (either leading, "pod0/alloc",
		// or after a type prefix, "core/pod0/host0/...").
		switch {
		case strings.Contains(pt.Name, "pod0/"):
			seen["pod0/"] = true
		case strings.Contains(pt.Name, "pod1/"):
			seen["pod1/"] = true
		default:
			t.Fatalf("unscoped metric %q in cluster snapshot", pt.Name)
		}
		if i > 0 {
			prev := s.Points[i-1]
			if pt.Name < prev.Name || (pt.Name == prev.Name && pt.Label < prev.Label) {
				t.Fatalf("snapshot not sorted at %d: %q/%q after %q/%q", i, pt.Name, pt.Label, prev.Name, prev.Label)
			}
		}
	}
	if !seen["pod0/"] || !seen["pod1/"] {
		t.Fatalf("merged snapshot missing a pod's metrics: %v", seen)
	}
}

func TestClusterRebalanceOnce(t *testing.T) {
	c, p0, p1 := twoPodCluster(t)
	// Load pod0 with three instances directly (bypassing the balanced
	// placement path) so the rack is visibly skewed.
	for i := 0; i < 3; i++ {
		p0.AddInstance(p0.Hosts[0], IP(10, 0, 3, byte(10+i)))
	}
	c.Start()
	moved := false
	c.Go("balance", func(p *Proc) {
		defer c.Shutdown()
		inst, err := c.RebalanceOnce(p, 1.5)
		if err != nil {
			t.Errorf("rebalance: %v", err)
			return
		}
		if inst == nil {
			t.Error("skewed cluster: rebalance moved nothing")
			return
		}
		if inst.pod != p1 {
			t.Error("rebalance moved instance to the wrong pod")
		}
		moved = true
	})
	c.Run(time.Second)
	if !moved {
		t.Fatal("rebalance did not run")
	}
	if len(p0.instances) != 2 || len(p1.instances) != 1 {
		t.Fatalf("post-rebalance split %d/%d, want 2/1", len(p0.instances), len(p1.instances))
	}
}
