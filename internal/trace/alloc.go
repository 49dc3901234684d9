package trace

import "math/rand"

// InstanceVec is one instance's resource request — the four dimensions the
// paper's stranding analysis tracks (§2.2): CPU cores, memory GB, NIC
// bandwidth Gbps, and SSD capacity GB.
type InstanceVec struct {
	CPU float64
	Mem float64
	NIC float64
	SSD float64
}

// HostShape is a host's capacity in the same units, modelled on the
// paper's evaluation-era cloud hosts (§2.1): ~100 cores, ~384 GB, one
// 100 Gbit NIC, six 4 TB SSDs.
type HostShape struct {
	CPU float64
	Mem float64
	NIC float64
	SSD float64
	// Device granularities, for the Fig. 2 provisioning question: NIC
	// bandwidth comes in whole NICs, SSD capacity in whole drives.
	NICUnit float64
	SSDUnit float64
}

// DefaultHostShape returns the calibration host.
func DefaultHostShape() HostShape {
	return HostShape{
		CPU: 96, Mem: 384, NIC: 100, SSD: 24000,
		NICUnit: 100, SSDUnit: 4000,
	}
}

// instanceType is a weighted template with per-instance jitter.
type instanceType struct {
	weight float64
	vec    InstanceVec
}

// The mix is calibrated so that CPU binds first on most hosts (the paper:
// "CPU cores and memory are the primary allocation bottleneck"), leaving
// the paper's stranding fractions unallocated on average:
// ~5 % CPU, ~9 % memory, ~27 % NIC bandwidth, ~33 % SSD capacity.
var defaultMix = []instanceType{
	// small general purpose (burstable web/dev boxes)
	{0.12, InstanceVec{CPU: 2, Mem: 8, NIC: 2, SSD: 0}},
	// general purpose (kube-ish 1:4 cpu:mem), moderate NIC, no local SSD
	{0.26, InstanceVec{CPU: 8, Mem: 32, NIC: 4, SSD: 0}},
	// memory optimized
	{0.14, InstanceVec{CPU: 8, Mem: 64, NIC: 4, SSD: 0}},
	// compute optimized
	{0.14, InstanceVec{CPU: 16, Mem: 32, NIC: 6, SSD: 0}},
	// storage optimized: local NVMe
	{0.25, InstanceVec{CPU: 8, Mem: 32, NIC: 8, SSD: 7500}},
	// network heavy (frontends, gateways)
	{0.09, InstanceVec{CPU: 8, Mem: 24, NIC: 25, SSD: 0}},
}

// The instance stream's calibration: its seed, and the jitter that scales
// each drawn vector by U[1-genJitter, 1+genJitter].
const (
	genSeed   = 1
	genJitter = 0.25
)

// Gen is a deterministic instance stream.
type Gen struct {
	rng *rand.Rand
}

// NewGen creates a stream.
func NewGen() *Gen {
	return &Gen{rng: rand.New(rand.NewSource(genSeed))}
}

// Next draws one instance request.
func (g *Gen) Next() InstanceVec {
	r := g.rng.Float64()
	acc := 0.0
	vec := defaultMix[len(defaultMix)-1].vec
	for _, t := range defaultMix {
		acc += t.weight
		if r < acc {
			vec = t.vec
			break
		}
	}
	scale := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return v * (1 - genJitter + 2*genJitter*g.rng.Float64())
	}
	return InstanceVec{CPU: scale(vec.CPU), Mem: scale(vec.Mem), NIC: scale(vec.NIC), SSD: scale(vec.SSD)}
}
