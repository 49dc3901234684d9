// Package strand reproduces the paper's resource-stranding analysis and
// pooling simulation (§2.2, Figure 2).
//
// Phase 1 fills hosts from a calibrated instance stream under all four
// per-host resource constraints, yielding per-host demand vectors whose
// average stranding matches the paper's production numbers (≈5 % CPU,
// ≈9 % memory, ≈27 % NIC bandwidth, ≈33 % SSD capacity).
//
// Phase 2 answers Figure 2's question: with hosts randomly grouped into
// pods of size N whose NICs and SSDs are pooled, what is the minimum
// device provisioning (whole NICs, whole drives) that still satisfies the
// placed demand — and how much of it is stranded? CPU and memory are not
// pooled, so their stranding is independent of pod size (the flat lines in
// Figure 2).
package strand

import (
	"math"
	"math/rand"
	"sort"

	"oasis/internal/par"
	"oasis/internal/trace"
)

// Config drives the simulation.
type Config struct {
	Hosts    int
	Trials   int // random pod groupings averaged per pod size
	PodSizes []int
	// ProvisionPctl is the pod-demand percentile uniform provisioning is
	// sized for. 100 = absolute worst pod (never migrate); operators
	// typically provision to a high percentile and rebalance the rare
	// overflow pod (§6 "Load balancing policies"). Default 95.
	ProvisionPctl float64
	// Workers bounds how many trials run concurrently. Every trial's
	// permutation is drawn from the shared RNG up front in a fixed order,
	// and per-trial results are reduced in trial order, so the output is
	// identical for any worker count. 0 or 1 = serial.
	Workers int
}

// DefaultConfig mirrors the paper's setup at a rack scale that keeps the
// simulation fast but statistically stable.
func DefaultConfig() Config {
	return Config{
		Hosts:         512,
		Trials:        8,
		PodSizes:      []int{1, 2, 4, 8, 16},
		ProvisionPctl: 95,
	}
}

// shuffleSeed seeds the pod-grouping shuffle.
const shuffleSeed = 7

// HostDemand is one filled host's allocated resources.
type HostDemand struct {
	CPU, Mem, NIC, SSD float64
	Instances          int
}

// Result is one pod size's outcome.
type Result struct {
	PodSize      int
	StrandedCPU  float64
	StrandedMem  float64
	StrandedNIC  float64
	StrandedSSD  float64
	NICsPerPod   float64 // average provisioned NICs per pod
	DrivesPerPod float64 // average provisioned SSDs per pod
}

// FillHosts runs phase 1: place instances (first-fit on the host being
// filled, all four constraints) until the host cannot accept the next
// request, then move on — the paper's "host accepts new instances until it
// fills up along one dimension".
func FillHosts(cfg Config) []HostDemand {
	gen := trace.NewGen()
	shape := trace.DefaultHostShape()
	hosts := make([]HostDemand, cfg.Hosts)
	for h := range hosts {
		d := &hosts[h]
		// A host stops filling after a few consecutive rejections
		// (heterogeneous requests mean one oversized ask should not end the
		// host if smaller ones still fit — mirrors a real scheduler's
		// ongoing stream).
		rejects := 0
		for rejects < 8 {
			v := gen.Next()
			if d.CPU+v.CPU > shape.CPU || d.Mem+v.Mem > shape.Mem ||
				d.NIC+v.NIC > shape.NIC || d.SSD+v.SSD > shape.SSD {
				rejects++
				continue
			}
			d.CPU += v.CPU
			d.Mem += v.Mem
			d.NIC += v.NIC
			d.SSD += v.SSD
			d.Instances++
		}
	}
	return hosts
}

// Run executes both phases and returns one Result per pod size.
func Run(cfg Config) []Result {
	hosts := FillHosts(cfg)
	shape := trace.DefaultHostShape()

	var totCPU, totMem float64
	for _, d := range hosts {
		totCPU += d.CPU
		totMem += d.Mem
	}
	strandedCPU := 1 - totCPU/(float64(len(hosts))*shape.CPU)
	strandedMem := 1 - totMem/(float64(len(hosts))*shape.Mem)

	// The shuffle RNG is shared across the whole sweep, so every trial's
	// permutation is drawn up front in the serial order (pod size outer,
	// trial inner); the trial computations themselves are pure and fan out
	// across cfg.Workers.
	rng := rand.New(rand.NewSource(shuffleSeed))
	type job struct {
		podSize int
		perm    []int
	}
	jobs := make([]job, 0, len(cfg.PodSizes)*cfg.Trials)
	for _, podSize := range cfg.PodSizes {
		for trial := 0; trial < cfg.Trials; trial++ {
			jobs = append(jobs, job{podSize: podSize, perm: rng.Perm(len(hosts))})
		}
	}
	type trialOut struct {
		nicStrand, ssdStrand, nics, drives float64
	}
	trials := make([]trialOut, len(jobs))
	par.Do(cfg.Workers, len(jobs), func(j int) {
		podSize, perm := jobs[j].podSize, jobs[j].perm
		// Provisioning is decided fleet-wide before instances arrive:
		// every pod of this size gets the same device count, sized to
		// the ProvisionPctl percentile of pod demand ("minimum number
		// of devices required to place all instances", with the rare
		// overflow pod handled by the allocator's rebalancing).
		var demNIC, demSSD float64
		var podNIC, podSSD []float64
		for i := 0; i+podSize <= len(perm); i += podSize {
			var nic, ssd float64
			for _, hi := range perm[i : i+podSize] {
				nic += hosts[hi].NIC
				ssd += hosts[hi].SSD
			}
			demNIC += nic
			demSSD += ssd
			podNIC = append(podNIC, nic)
			podSSD = append(podSSD, ssd)
		}
		pods := len(podNIC)
		nNIC := math.Ceil(pctl(podNIC, cfg.ProvisionPctl) / shape.NICUnit)
		nSSD := math.Ceil(pctl(podSSD, cfg.ProvisionPctl) / shape.SSDUnit)
		provNIC := float64(pods) * nNIC * shape.NICUnit
		provSSD := float64(pods) * nSSD * shape.SSDUnit
		trials[j] = trialOut{
			nicStrand: 1 - demNIC/provNIC,
			ssdStrand: 1 - demSSD/provSSD,
			nics:      nNIC,
			drives:    nSSD,
		}
	})
	// Reduce in trial order: float accumulation order matches the serial
	// loop exactly, keeping results bit-identical.
	var out []Result
	for pi, podSize := range cfg.PodSizes {
		var nicStrand, ssdStrand, nicsPerPod, drivesPerPod float64
		for trial := 0; trial < cfg.Trials; trial++ {
			t := trials[pi*cfg.Trials+trial]
			nicStrand += t.nicStrand
			ssdStrand += t.ssdStrand
			nicsPerPod += t.nics
			drivesPerPod += t.drives
		}
		out = append(out, Result{
			PodSize:      podSize,
			StrandedCPU:  strandedCPU,
			StrandedMem:  strandedMem,
			StrandedNIC:  nicStrand / float64(cfg.Trials),
			StrandedSSD:  ssdStrand / float64(cfg.Trials),
			NICsPerPod:   nicsPerPod / float64(cfg.Trials),
			DrivesPerPod: drivesPerPod / float64(cfg.Trials),
		})
	}
	return out
}

// pctl is a nearest-rank percentile over a copied slice.
func pctl(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := make([]float64, len(vals))
	copy(s, vals)
	sort.Float64s(s)
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
