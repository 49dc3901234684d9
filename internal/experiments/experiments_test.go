package experiments

import (
	"testing"
)

// Tests run each experiment at a reduced scale and assert the paper's
// qualitative shapes (who wins, by roughly what factor). EXPERIMENTS.md
// records the full-scale paper-vs-measured numbers.

func TestFig2Shapes(t *testing.T) {
	r := Fig2(0.5)
	if r.Values["base_nic"] < 0.20 || r.Values["base_nic"] > 0.35 {
		t.Errorf("baseline NIC stranding = %.3f, want ≈ 0.27", r.Values["base_nic"])
	}
	if r.Values["base_ssd"] < 0.26 || r.Values["base_ssd"] > 0.40 {
		t.Errorf("baseline SSD stranding = %.3f, want ≈ 0.33", r.Values["base_ssd"])
	}
	if r.Values["pod8_nic"] >= r.Values["base_nic"] {
		t.Error("pod-8 NIC stranding should drop below baseline")
	}
	if r.Values["pod8_ssd"] >= r.Values["base_ssd"] {
		t.Error("pod-8 SSD stranding should drop below baseline")
	}
	if r.Values["pod8_nics_per_pod"] > 7.6 {
		t.Errorf("pod-8 NICs/pod = %.2f; pooling should save NICs", r.Values["pod8_nics_per_pod"])
	}
}

func TestFig3Burstiness(t *testing.T) {
	r := Fig3(0.5)
	if r.Values["host1_p9999"] < 0.39*0.6 || r.Values["host1_p9999"] > 0.39*1.4 {
		t.Errorf("host1 P99.99 = %.3f, want ≈ 0.39", r.Values["host1_p9999"])
	}
	if r.Values["host1_p99"] > 0.05 {
		t.Errorf("host1 P99 = %.3f, want near zero", r.Values["host1_p99"])
	}
	if r.Values["host1_peak_gbps"] < 20 {
		t.Errorf("host1 peak = %.1f Gbps, want ~40", r.Values["host1_peak_gbps"])
	}
}

func TestTable1DeviceModels(t *testing.T) {
	r := Table1(1)
	if r.Values["nic_mops"] < 2 || r.Values["nic_mops"] > 8 {
		t.Errorf("NIC packet rate = %.1f MOp/s, want a few MOp/s", r.Values["nic_mops"])
	}
	if r.Values["ssd_gbps"] != 5.0 {
		t.Errorf("SSD bandwidth = %.1f GB/s, want 5", r.Values["ssd_gbps"])
	}
	if r.Values["ssd_mops"] < 0.3 || r.Values["ssd_mops"] > 0.7 {
		t.Errorf("SSD op rate = %.2f MOp/s, want ≈ 0.5", r.Values["ssd_mops"])
	}
}

func TestTable2Aggregation(t *testing.T) {
	r := Table2(0.5)
	if r.Values["rackA_agg"] < 0.05 || r.Values["rackA_agg"] > 0.20 {
		t.Errorf("rack A aggregated P99.99 = %.3f, want ≈ 0.10", r.Values["rackA_agg"])
	}
	if r.Values["rackB_agg"] < 0.10 || r.Values["rackB_agg"] > 0.35 {
		t.Errorf("rack B aggregated P99.99 = %.3f, want ≈ 0.20", r.Values["rackB_agg"])
	}
}

func TestFig6DesignLadder(t *testing.T) {
	r := Fig6(0.5)
	bypass := r.Values["sat_0"]
	naive := r.Values["sat_1"]
	invC := r.Values["sat_2"]
	invP := r.Values["sat_3"]
	if !(bypass < naive && naive < invC) {
		t.Errorf("design ladder broken: %.1f / %.1f / %.1f", bypass, naive, invC)
	}
	if invC < 10*bypass {
		t.Errorf("+invalidate-consumed (%.1f) should be ~order of magnitude over bypass (%.1f)", invC, bypass)
	}
	if invP < 14 {
		t.Errorf("final design = %.1f MOp/s, must beat the 14 MOp/s target", invP)
	}
	if r.Values["lat14_invPrefetched_us"] >= r.Values["lat14_invConsumed_us"] {
		t.Errorf("④ latency at 14 MOp/s (%.2fµs) should beat ③ (%.2fµs)",
			r.Values["lat14_invPrefetched_us"], r.Values["lat14_invConsumed_us"])
	}
	if r.Values["lat14_invPrefetched_us"] > 1.0 {
		t.Errorf("④ at target load = %.2fµs, want ≲ 0.7µs", r.Values["lat14_invPrefetched_us"])
	}
}

func TestFig9MemcachedOverheadBand(t *testing.T) {
	r := Fig9(0.3)
	d := r.Values["memcached_c1_delta_p50_us"]
	if d < 1 || d > 10 {
		t.Errorf("memcached Oasis overhead = %.1f µs, want single-digit µs (paper 4-7)", d)
	}
}

func TestFig10OverheadSizeIndependent(t *testing.T) {
	r := Fig10(0.3)
	small := r.Values["s75_r5000_delta_p50_us"]
	large := r.Values["s1500_r5000_delta_p50_us"]
	if small < 1 || small > 12 {
		t.Errorf("75 B overhead = %.1f µs, want single-digit µs", small)
	}
	if large < 1 || large > 12 {
		t.Errorf("1500 B overhead = %.1f µs, want single-digit µs", large)
	}
	// Largely size-independent: within a few µs of each other.
	if diff := large - small; diff < -4 || diff > 4 {
		t.Errorf("overhead varies %.1f µs between sizes, want ≈ constant", diff)
	}
}

func TestFig11BreakdownAttribution(t *testing.T) {
	r := Fig11(0.3)
	bufCost := r.Values["cxlbuf_minus_base_us"]
	msgCost := r.Values["oasis_minus_cxlbuf_us"]
	if bufCost > 2.5 {
		t.Errorf("CXL buffers alone added %.1f µs, paper says almost nothing", bufCost)
	}
	if msgCost < bufCost {
		t.Errorf("message passing (%.1f µs) must dominate buffer placement (%.1f µs)", msgCost, bufCost)
	}
}

func TestTable3BandwidthBreakdown(t *testing.T) {
	r := Table3(0.4)
	idleMsg := r.Values["Idle_message"]
	idlePay := r.Values["Idle_payload"]
	if idlePay > 0.01 {
		t.Errorf("idle payload bandwidth = %.2f GB/s, want ~0", idlePay)
	}
	if idleMsg < 0.05 || idleMsg > 1.5 {
		t.Errorf("idle message bandwidth = %.2f GB/s, want order 0.2-1", idleMsg)
	}
	smallPay := r.Values["Busy (75 B)_payload"]
	largePay := r.Values["Busy (1500 B)_payload"]
	if largePay < 4*smallPay {
		t.Errorf("1500 B payload bandwidth (%.2f) should dwarf 75 B's (%.2f)", largePay, smallPay)
	}
	largeMsg := r.Values["Busy (1500 B)_message"]
	if largePay < 2*largeMsg {
		t.Errorf("at 1500 B, payload (%.2f) must dominate messages (%.2f)", largePay, largeMsg)
	}
}

func TestFig12MultiplexingInterference(t *testing.T) {
	r := Fig12(0.25)
	// Multiplexing must not blow up tail latency (paper: +1 µs at most).
	for _, h := range []string{"h1", "h2"} {
		base := r.Values["base_"+h+"_p99_us"]
		mux := r.Values["mux_"+h+"_p99_us"]
		if mux > base+6 {
			t.Errorf("%s: multiplexed P99 %.1fµs vs own-NIC %.1fµs — too much interference", h, mux, base)
		}
	}
	if r.Values["util_multiplexed"] < 1.8*r.Values["util_own_nics"] {
		t.Error("multiplexing should ~double aggregate utilization")
	}
}

func TestFig13FailoverWindow(t *testing.T) {
	r := Fig13(0.2) // 2 s run, failure at 1 s
	if r.Values["failovers"] != 1 {
		t.Fatalf("allocator failovers = %v, want 1", r.Values["failovers"])
	}
	outage := r.Values["outage_ms"]
	if outage < 5 || outage > 120 {
		t.Errorf("failover interruption = %.0f ms, want tens of ms (paper 38 ms)", outage)
	}
	if r.Values["lost"] < 3 {
		t.Error("expected measurable probe loss during the outage")
	}
}

func TestFig14TCPRecovery(t *testing.T) {
	r := Fig14(0.2) // 2 s run
	rec := r.Values["recovery_ms"]
	if rec <= 0 {
		t.Fatal("memcached never recovered after failover")
	}
	if rec > 400 {
		t.Errorf("recovery = %.0f ms, want low hundreds of ms (paper 133 ms)", rec)
	}
	if rec < 10 {
		t.Errorf("recovery = %.0f ms; TCP retransmission should make this slower than the UDP outage", rec)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "tab1", "tab2", "fig6", "fig8", "fig9", "fig10", "fig11", "tab3", "fig12", "fig13", "fig14",
		"abl-counter", "abl-inspect", "abl-failover", "abl-coherent", "abl-sharding", "abl-qos", "abl-storage",
		"chaos", "grayfail", "blackout", "racksweep"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if _, ok := Lookup("fig6"); !ok {
		t.Fatal("Lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup found a nonexistent experiment")
	}
}

func TestAblCounterBatchAmortizes(t *testing.T) {
	r := AblCounterBatch(0.5)
	if r.Values["batch4096"] < 2*r.Values["batch1"] {
		t.Errorf("batched counter (%.1f MOp/s) should clearly beat per-message updates (%.1f)",
			r.Values["batch4096"], r.Values["batch1"])
	}
}

func TestAblBackendInspectCosts(t *testing.T) {
	r := AblBackendInspect(0.4)
	if r.Values["inspected"] < 10 {
		t.Fatalf("inspection path never exercised: %v", r.Values["inspected"])
	}
	if r.Values["inspect_p50_us"] <= r.Values["tagged_p50_us"] {
		t.Errorf("inspection (%.2fµs) should cost more than flow tagging (%.2fµs)",
			r.Values["inspect_p50_us"], r.Values["tagged_p50_us"])
	}
}

func TestAblFailoverMechanisms(t *testing.T) {
	r := AblFailoverMechanism(0.5)
	borrow, garp := r.Values["borrow_ms"], r.Values["garp_ms"]
	if borrow < 5 || borrow > 120 {
		t.Errorf("MAC-borrow interruption = %.0f ms, want tens of ms", borrow)
	}
	if garp < borrow {
		t.Errorf("GARP-only (%.0f ms) should not recover faster than MAC borrowing (%.0f ms)", garp, borrow)
	}
}

func TestAblHWCoherentChannel(t *testing.T) {
	r := AblHWCoherent(0.5)
	if r.Values["hw_mops"] < r.Values["sw_mops"]*0.9 {
		t.Errorf("HW-coherent channel (%.1f MOp/s) should at least match software coherence (%.1f)",
			r.Values["hw_mops"], r.Values["sw_mops"])
	}
}

func TestAblShardingScalesThroughput(t *testing.T) {
	r := AblSharding(0.5)
	s1, s4 := r.Values["shards1"], r.Values["shards4"]
	if s4 < 2.5*s1 {
		t.Errorf("4 shards (%.1f MOp/s) should scale well beyond 1 shard (%.1f)", s4, s1)
	}
}

func TestAblQoSProtectsSignaling(t *testing.T) {
	r := AblQoS(0.5)
	if r.Values["qos_p99_us"] >= r.Values["noqos_p99_us"] {
		t.Errorf("QoS (%.2fµs) should beat no-QoS (%.2fµs) under an OLAP flood",
			r.Values["qos_p99_us"], r.Values["noqos_p99_us"])
	}
	if r.Values["noqos_p99_us"] < 1.5 {
		t.Errorf("no-QoS p99 = %.2fµs; the flood should visibly inflate latency", r.Values["noqos_p99_us"])
	}
}

func TestAblStorageShapes(t *testing.T) {
	r := AblStorage(0.5)
	// Depth-1 latency ≈ device read + engine signaling (≈ 90 µs).
	if d1 := r.Values["d1_p50_us"]; d1 < 80 || d1 > 130 {
		t.Errorf("depth-1 p50 = %.1f µs, want ≈ 90", d1)
	}
	// Depth lifts IOPS toward the device's 500 kIOPS ceiling, never past.
	d64 := r.Values["d64_kiops"]
	if d64 < 4*r.Values["d1_kiops"] {
		t.Errorf("depth-64 (%.0f kIOPS) should be several × depth-1 (%.0f)", d64, r.Values["d1_kiops"])
	}
	if d64 > 520 {
		t.Errorf("depth-64 = %.0f kIOPS exceeds the device's 500 kIOPS model", d64)
	}
}
