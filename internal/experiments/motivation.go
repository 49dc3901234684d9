package experiments

import (
	"time"

	"oasis/internal/nic"
	"oasis/internal/ssd"
	"oasis/internal/strand"
	"oasis/internal/trace"
)

// Fig2 reproduces Figure 2: average stranded resources vs pod size.
func Fig2(scale float64) *Report {
	r := newReport("fig2", "Stranded resources vs. pod size (pooling simulation)")
	cfg := strand.DefaultConfig()
	cfg.Hosts = int(float64(cfg.Hosts) * scale)
	if cfg.Hosts < 64 {
		cfg.Hosts = 64
	}
	results := strand.Run(cfg)
	r.addf("%-8s %8s %8s %8s %8s %10s %11s", "pod", "CPU%", "Mem%", "NIC%", "SSD%", "NICs/pod", "drives/pod")
	for _, res := range results {
		r.addf("%-8d %8.1f %8.1f %8.1f %8.1f %10.2f %11.1f",
			res.PodSize, res.StrandedCPU*100, res.StrandedMem*100,
			res.StrandedNIC*100, res.StrandedSSD*100, res.NICsPerPod, res.DrivesPerPod)
		if res.PodSize == 1 {
			r.Values["base_nic"] = res.StrandedNIC
			r.Values["base_ssd"] = res.StrandedSSD
			r.Values["base_cpu"] = res.StrandedCPU
			r.Values["base_mem"] = res.StrandedMem
		}
		if res.PodSize == 8 {
			r.Values["pod8_nic"] = res.StrandedNIC
			r.Values["pod8_ssd"] = res.StrandedSSD
			r.Values["pod8_nics_per_pod"] = res.NICsPerPod
			r.Values["pod8_drives_per_pod"] = res.DrivesPerPod
		}
	}
	r.addf("paper: pod 1 = 27%% NIC / 33%% SSD / 5%% CPU / 9%% mem stranded;")
	r.addf("       pod 8 provisions ~16%% less NIC bandwidth, ~26%% less SSD capacity")
	return r
}

// Fig3 reproduces Figure 3: inbound traffic of four busy hosts over one
// second, at 10 µs resolution.
func Fig3(scale float64) *Report {
	r := newReport("fig3", "Inbound NIC traffic of 4 hosts (bursty trace, 10 µs buckets)")
	span := time.Duration(float64(time.Second) * scale)
	traces := trace.RackA(span)
	bucket := 10 * time.Microsecond
	for i, tr := range traces {
		s := tr.BandwidthSeries(bucket)
		_, peakBytes := s.MaxBin()
		peakGbps := peakBytes * 8 / bucket.Seconds() / 1e9
		meanGbps := tr.MeanUtil() * tr.LinkBps / 1e9
		r.addf("host %d: peak %6.1f Gbps  mean %6.3f Gbps  P99 util %5.1f%%  P99.99 util %5.1f%%  (%d packets)",
			i+1, peakGbps, meanGbps,
			tr.UtilizationAt(99, bucket)*100, tr.UtilizationAt(99.99, bucket)*100,
			len(tr.Events))
		if i == 0 {
			r.Values["host1_p9999"] = tr.UtilizationAt(99.99, bucket)
			r.Values["host1_p99"] = tr.UtilizationAt(99, bucket)
			r.Values["host1_peak_gbps"] = peakGbps
		}
	}
	r.addf("paper: host 1 bursts reach ~40 Gbps; P99 < 3%%, P99.99 = 39%% — bursty, mostly idle")
	return r
}

// Table1 prints (and checks) the device performance requirements the
// substrate models are parameterized to.
func Table1(scale float64) *Report {
	r := newReport("tab1", "NIC/SSD performance requirements (device model parameters)")
	n := nic.DefaultParams()
	nicOps := 1.0 / n.PacketCost.Seconds() / 1e6
	r.addf("%-5s %12s %14s %12s", "type", "bandwidth", "IOPS", "latency")
	r.addf("%-5s %12s %11.1f MOp/s %12s", "NIC", "12.5 GB/s", nicOps, "50-110 µs (cloud e2e)")
	s := ssd.DefaultParams()
	ssdOps := 1.0 / s.OpCost.Seconds() / 1e6 * float64(1)
	r.addf("%-5s %9.1f GB/s %11.1f MOp/s %12v", "SSD", s.Bandwidth/1e9, ssdOps, s.ReadLatency+s.OpCost)
	r.Values["nic_mops"] = nicOps
	r.Values["ssd_gbps"] = s.Bandwidth / 1e9
	r.Values["ssd_mops"] = ssdOps
	r.addf("paper Table 1: NIC 26 GB/s¹ & 4 MOp/s/core & 50-110 µs; SSD 5 GB/s & 0.5 MOp/s & 100 µs")
	r.addf("¹ the paper's 26 GB/s counts a 200 Gbit NIC; the evaluation testbed (and this model) uses 100 Gbit")
	return r
}

// Table2 reproduces Table 2: per-host and aggregated P99.99 NIC
// utilization for racks A and B.
func Table2(scale float64) *Report {
	r := newReport("tab2", "NIC bandwidth utilization at P99.99 (10 µs buckets)")
	span := time.Duration(float64(time.Second) * scale)
	bucket := 10 * time.Microsecond
	rows := []struct {
		name    string
		traces  []*trace.PacketTrace
		linkBps float64
		paper   []float64
		paperAg float64
	}{
		{"Rack A (In)", trace.RackA(span), 100e9, []float64{0.39, 0.30, 0.0, 0.23}, 0.10},
		{"Rack B (In)", trace.RackB(span), 50e9, []float64{0.39, 0.75, 0.52, 0.79}, 0.20},
	}
	r.addf("%-12s %8s %8s %8s %8s %12s", "", "host1", "host2", "host3", "host4", "aggregated")
	for _, row := range rows {
		var utils []float64
		for _, tr := range row.traces {
			utils = append(utils, tr.UtilizationAt(99.99, bucket))
		}
		agg := trace.Merge(4*row.linkBps, row.traces...).UtilizationAt(99.99, bucket)
		r.addf("%-12s %7.0f%% %7.0f%% %7.0f%% %7.0f%% %11.0f%%",
			row.name, utils[0]*100, utils[1]*100, utils[2]*100, utils[3]*100, agg*100)
		r.addf("%-12s %7.0f%% %7.0f%% %7.0f%% %7.0f%% %11.0f%%  (paper)",
			"", row.paper[0]*100, row.paper[1]*100, row.paper[2]*100, row.paper[3]*100, row.paperAg*100)
		if row.name == "Rack A (In)" {
			r.Values["rackA_agg"] = agg
			for i, u := range utils {
				r.Values[ks("rackA_host", i+1)] = u
			}
		} else {
			r.Values["rackB_agg"] = agg
		}
	}
	return r
}

func ks(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}
