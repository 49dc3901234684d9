package strand

import (
	"testing"

	"oasis/internal/trace"
)

func TestBaselineStrandingMatchesPaper(t *testing.T) {
	// §2.2's production numbers: ~27 % NIC, ~33 % SSD, ~5 % CPU, ~9 %
	// memory stranded without pooling (pod size 1). The generator is
	// calibrated; hold it to bands.
	res := Run(DefaultConfig())
	base := res[0]
	if base.PodSize != 1 {
		t.Fatal("first result must be pod size 1")
	}
	check := func(name string, got, want, tol float64) {
		if got < want-tol || got > want+tol {
			t.Errorf("%s stranded = %.3f, want %.2f ± %.2f", name, got, want, tol)
		}
	}
	check("NIC", base.StrandedNIC, 0.27, 0.05)
	check("SSD", base.StrandedSSD, 0.33, 0.05)
	check("CPU", base.StrandedCPU, 0.05, 0.05)
	check("Mem", base.StrandedMem, 0.09, 0.04)
}

func TestPoolingReducesStranding(t *testing.T) {
	res := Run(DefaultConfig())
	// NIC and SSD stranding must be non-increasing with pod size, and the
	// pod-8 values clearly below baseline (Fig. 2's headline).
	for i := 1; i < len(res); i++ {
		if res[i].StrandedNIC > res[i-1].StrandedNIC+0.01 {
			t.Errorf("NIC stranding rose from pod %d to %d (%.3f -> %.3f)",
				res[i-1].PodSize, res[i].PodSize, res[i-1].StrandedNIC, res[i].StrandedNIC)
		}
		if res[i].StrandedSSD > res[i-1].StrandedSSD+0.01 {
			t.Errorf("SSD stranding rose from pod %d to %d", res[i-1].PodSize, res[i].PodSize)
		}
		// CPU/memory are host-bound: flat lines.
		if res[i].StrandedCPU != res[0].StrandedCPU || res[i].StrandedMem != res[0].StrandedMem {
			t.Error("CPU/memory stranding must be independent of pod size")
		}
	}
	var pod8 *Result
	for i := range res {
		if res[i].PodSize == 8 {
			pod8 = &res[i]
		}
	}
	if pod8 == nil {
		t.Fatal("no pod-8 result")
	}
	if pod8.StrandedSSD > 0.25 {
		t.Errorf("pod-8 SSD stranding = %.3f, want a large reduction from 0.33", pod8.StrandedSSD)
	}
	if pod8.StrandedNIC > 0.25 {
		t.Errorf("pod-8 NIC stranding = %.3f, want a clear reduction from 0.27", pod8.StrandedNIC)
	}
	// Device savings: the paper provisions ~16 % less NIC bandwidth and
	// ~26 % less SSD capacity at pod size 8; require ≥ 10 % on both.
	if pod8.NICsPerPod > 8*0.9 {
		t.Errorf("pod-8 NICs/pod = %.2f, want ≤ 7.2 (≥10%% saving)", pod8.NICsPerPod)
	}
	if pod8.DrivesPerPod > 48*0.9 {
		t.Errorf("pod-8 drives/pod = %.2f, want ≤ 43.2 (≥10%% saving)", pod8.DrivesPerPod)
	}
}

func TestFillRespectsCapacities(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 64
	hosts := FillHosts(cfg)
	shape := trace.DefaultHostShape()
	for i, d := range hosts {
		if d.CPU > shape.CPU || d.Mem > shape.Mem || d.NIC > shape.NIC || d.SSD > shape.SSD {
			t.Fatalf("host %d over capacity: %+v", i, d)
		}
		if d.Instances == 0 {
			t.Fatalf("host %d empty", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Run(DefaultConfig())
	b := Run(DefaultConfig())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic result at pod size %d", a[i].PodSize)
		}
	}
}

func TestMaxProvisioningIsMoreConservative(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PodSizes = []int{8}
	p95 := Run(cfg)[0]
	cfg.ProvisionPctl = 100
	pmax := Run(cfg)[0]
	if pmax.NICsPerPod < p95.NICsPerPod || pmax.DrivesPerPod < p95.DrivesPerPod {
		t.Fatalf("max provisioning (%v NICs, %v drives) should need at least as many devices as P95 (%v, %v)",
			pmax.NICsPerPod, pmax.DrivesPerPod, p95.NICsPerPod, p95.DrivesPerPod)
	}
}

func TestTinyPodSizesHandleRaggedTail(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 50 // not divisible by 16
	res := Run(cfg)
	for _, r := range res {
		if r.StrandedNIC < 0 || r.StrandedNIC > 1 || r.StrandedSSD < 0 || r.StrandedSSD > 1 {
			t.Fatalf("pod %d: stranding out of range: %+v", r.PodSize, r)
		}
	}
}
