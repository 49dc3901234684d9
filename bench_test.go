// Benchmark harness: one testing.B benchmark per table and figure in the
// paper's evaluation. Each benchmark executes the corresponding experiment
// runner (the same code cmd/oasis-bench uses) and reports its headline
// metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. Wall-clock cost varies per experiment; the
// failover runs simulate multiple virtual seconds. Scales below trade a
// little statistical tightness for tractable benchmark time; run
// cmd/oasis-bench -scale 1 for the full-length versions.
package oasis_test

import (
	"testing"

	"oasis/internal/experiments"
)

// runExperiment executes the runner once per benchmark iteration and
// report the chosen metrics.
func runExperiment(b *testing.B, id string, scale float64, metrics map[string]string) {
	b.Helper()
	runner, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		r := runner(scale)
		for key, unit := range metrics {
			if v, ok := r.Values[key]; ok {
				b.ReportMetric(v, unit)
			}
		}
	}
}

// BenchmarkFig2Stranding regenerates Figure 2: stranded NIC/SSD/CPU/memory
// percentages vs pod size under pooled provisioning.
func BenchmarkFig2Stranding(b *testing.B) {
	runExperiment(b, "fig2", 1, map[string]string{
		"base_nic": "NICstranded-pod1",
		"pod8_nic": "NICstranded-pod8",
		"base_ssd": "SSDstranded-pod1",
		"pod8_ssd": "SSDstranded-pod8",
	})
}

// BenchmarkFig3Trace regenerates Figure 3: the bursty inbound traffic of
// four production-like hosts.
func BenchmarkFig3Trace(b *testing.B) {
	runExperiment(b, "fig3", 1, map[string]string{
		"host1_p9999":     "P99.99util",
		"host1_peak_gbps": "peakGbps",
	})
}

// BenchmarkTable1Requirements prints the device-model parameters matching
// Table 1.
func BenchmarkTable1Requirements(b *testing.B) {
	runExperiment(b, "tab1", 1, map[string]string{
		"nic_mops": "NIC-MOp/s",
		"ssd_mops": "SSD-MOp/s",
	})
}

// BenchmarkTable2Utilization regenerates Table 2: per-host and aggregated
// P99.99 NIC utilization.
func BenchmarkTable2Utilization(b *testing.B) {
	runExperiment(b, "tab2", 1, map[string]string{
		"rackA_agg": "rackA-agg-P99.99",
		"rackB_agg": "rackB-agg-P99.99",
	})
}

// BenchmarkFig6MsgChannel regenerates Figure 6: throughput and median
// latency of the four message-channel designs.
func BenchmarkFig6MsgChannel(b *testing.B) {
	runExperiment(b, "fig6", 1, map[string]string{
		"sat_0":                  "bypass-MOp/s",
		"sat_1":                  "naive-MOp/s",
		"sat_2":                  "invConsumed-MOp/s",
		"sat_3":                  "invPrefetched-MOp/s",
		"lat14_invPrefetched_us": "final-lat14-µs",
	})
}

// BenchmarkFig8WebApps regenerates Figure 8: the Oasis overhead on the
// four web applications.
func BenchmarkFig8WebApps(b *testing.B) {
	runExperiment(b, "fig8", 0.5, map[string]string{
		"nginx_c1_delta_p50_us":       "nginx-Δp50-µs",
		"python-http_c1_delta_p50_us": "python-Δp50-µs",
	})
}

// BenchmarkFig9Memcached regenerates Figure 9.
func BenchmarkFig9Memcached(b *testing.B) {
	runExperiment(b, "fig9", 1, map[string]string{
		"memcached_c1_delta_p50_us": "Δp50-µs",
		"memcached_c1_delta_p99_us": "Δp99-µs",
	})
}

// BenchmarkFig10UDPEcho regenerates Figure 10: echo overhead vs packet
// size and load.
func BenchmarkFig10UDPEcho(b *testing.B) {
	runExperiment(b, "fig10", 1, map[string]string{
		"s75_r5000_delta_p50_us":   "75B-Δp50-µs",
		"s1500_r5000_delta_p50_us": "1500B-Δp50-µs",
	})
}

// BenchmarkFig11Breakdown regenerates Figure 11: baseline vs baseline+CXL
// buffers vs Oasis.
func BenchmarkFig11Breakdown(b *testing.B) {
	runExperiment(b, "fig11", 1, map[string]string{
		"cxlbuf_minus_base_us":  "buffers-in-CXL-µs",
		"oasis_minus_cxlbuf_us": "message-passing-µs",
	})
}

// BenchmarkTable3CXLBandwidth regenerates Table 3: CXL link bandwidth by
// category under idle and busy load.
func BenchmarkTable3CXLBandwidth(b *testing.B) {
	runExperiment(b, "tab3", 1, map[string]string{
		"Idle_message":          "idle-msg-GB/s",
		"Busy (1500 B)_payload": "busy1500-payload-GB/s",
		"Busy (1500 B)_message": "busy1500-msg-GB/s",
	})
}

// BenchmarkFig12Multiplexing regenerates Figure 12: trace-replay RTTs with
// and without NIC sharing.
func BenchmarkFig12Multiplexing(b *testing.B) {
	runExperiment(b, "fig12", 0.5, map[string]string{
		"base_h1_p99_us":   "ownNIC-h1-p99-µs",
		"mux_h1_p99_us":    "shared-h1-p99-µs",
		"util_multiplexed": "agg-P99.99util",
	})
}

// BenchmarkFig13FailoverUDP regenerates Figure 13: the UDP interruption
// window around a NIC failure.
func BenchmarkFig13FailoverUDP(b *testing.B) {
	runExperiment(b, "fig13", 0.3, map[string]string{
		"outage_ms": "outage-ms",
		"lost":      "probes-lost",
	})
}

// BenchmarkFig14FailoverTCP regenerates Figure 14: memcached P99 recovery
// after the failure.
func BenchmarkFig14FailoverTCP(b *testing.B) {
	runExperiment(b, "fig14", 0.3, map[string]string{
		"recovery_ms": "recovery-ms",
		"base_p99_us": "steady-p99-µs",
	})
}

// --- ablation benches (design choices from DESIGN.md §5 and the paper's §6
// future-work extensions) ---

// BenchmarkAblCounterBatch sweeps the consumed-counter batch size (§4).
func BenchmarkAblCounterBatch(b *testing.B) {
	runExperiment(b, "abl-counter", 1, map[string]string{
		"batch1":    "perMsg-MOp/s",
		"batch4096": "batched-MOp/s",
	})
}

// BenchmarkAblBackendInspect compares flow tagging vs payload inspection
// (§3.3.1).
func BenchmarkAblBackendInspect(b *testing.B) {
	runExperiment(b, "abl-inspect", 1, map[string]string{
		"tagged_p50_us":  "tagged-p50-µs",
		"inspect_p50_us": "inspect-p50-µs",
	})
}

// BenchmarkAblFailoverMechanism compares MAC borrowing vs GARP-only (§3.3.3).
func BenchmarkAblFailoverMechanism(b *testing.B) {
	runExperiment(b, "abl-failover", 0.5, map[string]string{
		"borrow_ms": "borrow-ms",
		"garp_ms":   "garp-ms",
	})
}

// BenchmarkAblHWCoherent measures the CXL 3.0 Back-Invalidation channel (§6).
func BenchmarkAblHWCoherent(b *testing.B) {
	runExperiment(b, "abl-coherent", 1, map[string]string{
		"sw_mops": "sw-MOp/s",
		"hw_mops": "hw-MOp/s",
	})
}

// BenchmarkAblSharding measures multi-channel scaling (§6).
func BenchmarkAblSharding(b *testing.B) {
	runExperiment(b, "abl-sharding", 1, map[string]string{
		"shards1": "1shard-MOp/s",
		"shards8": "8shards-MOp/s",
	})
}

// BenchmarkAblQoS measures RDT-style bandwidth partitioning (§6).
func BenchmarkAblQoS(b *testing.B) {
	runExperiment(b, "abl-qos", 1, map[string]string{
		"noqos_p99_us": "noQoS-p99-µs",
		"qos_p99_us":   "QoS-p99-µs",
	})
}

// BenchmarkAblStorage measures the storage engine's IOPS/latency curve
// (§3.4; no paper reference numbers — the engine is unimplemented there).
func BenchmarkAblStorage(b *testing.B) {
	runExperiment(b, "abl-storage", 1, map[string]string{
		"d1_p50_us": "depth1-p50-µs",
		"d64_kiops": "depth64-kIOPS",
	})
}

// BenchmarkRacksweep measures the rack-scale sweep: a 512-host multi-pod
// cluster (placement, hot-spot migration, live traffic, serial execution)
// plus the pooling model at 2048 hosts. Its ns/op is the headline
// wall-clock number for simulator capacity at rack scale.
func BenchmarkRacksweep(b *testing.B) {
	runExperiment(b, "racksweep", 1, map[string]string{
		"hosts":      "hosts",
		"migrations": "migrations",
		"pod64_nic":  "NICstranded-pod64",
	})
}
