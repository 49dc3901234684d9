package experiments

import (
	"fmt"
	"time"

	"oasis"
	"oasis/internal/metrics"
)

// rrPoint measures one app × mode × concurrency cell.
func rrPoint(r *Report, mode Mode, app appModel, conc int, window time.Duration) (*metrics.Histogram, int) {
	e := buildNetPod(r, mode)
	app.serve(e.pod, e.inst.Stack, 80)
	var hist metrics.Histogram
	n := e.runRRClients(80, app, conc, window/4, window, &hist)
	return &hist, n
}

// runRRComparison produces the baseline-vs-Oasis latency table for one set
// of applications (Fig. 8 and Fig. 9 share this harness).
func runRRComparison(r *Report, apps []appModel, scale float64) {
	window := time.Duration(float64(12*time.Millisecond) * scale)
	if window < 3*time.Millisecond {
		window = 3 * time.Millisecond
	}
	concs := []int{1, 6, 16}
	r.addf("%-12s %5s %10s | %9s %9s %9s | %9s %9s %9s | %8s",
		"app", "conc", "req/s", "base p50", "base p90", "base p99",
		"oasis p50", "oasis p90", "oasis p99", "Δp50")
	// Every (app, conc, mode) cell is an independent pod run; fan them all
	// out and assemble the table serially in grid order.
	type rrCell struct {
		hist *metrics.Histogram
		n    int
	}
	cells := parRun(len(apps)*len(concs)*2, func(i int) rrCell {
		app := apps[i/(len(concs)*2)]
		conc := concs[(i/2)%len(concs)]
		mode := ModeBaseline
		if i%2 == 1 {
			mode = ModeOasis
		}
		h, n := rrPoint(r, mode, app, conc, window)
		return rrCell{h, n}
	})
	for ai, app := range apps {
		for ci, conc := range concs {
			cell := (ai*len(concs) + ci) * 2
			base, nb := cells[cell].hist, cells[cell].n
			oas, no := cells[cell+1].hist, cells[cell+1].n
			if nb == 0 || no == 0 {
				r.addf("%-12s %5d  (no completed requests)", app.Name, conc)
				continue
			}
			rps := float64(no) / window.Seconds()
			d50 := oas.Percentile(50) - base.Percentile(50)
			r.addf("%-12s %5d %10.0f | %9v %9v %9v | %9v %9v %9v | %8v",
				app.Name, conc, rps,
				base.Percentile(50), base.Percentile(90), base.Percentile(99),
				oas.Percentile(50), oas.Percentile(90), oas.Percentile(99), d50)
			key := fmt.Sprintf("%s_c%d", app.Name, conc)
			r.Values[key+"_base_p50_us"] = float64(base.Percentile(50)) / 1e3
			r.Values[key+"_oasis_p50_us"] = float64(oas.Percentile(50)) / 1e3
			r.Values[key+"_delta_p50_us"] = float64(d50) / 1e3
			r.Values[key+"_delta_p99_us"] = float64(oas.Percentile(99)-base.Percentile(99)) / 1e3
		}
	}
}

// Fig8 reproduces Figure 8: Oasis's overhead on four web applications.
func Fig8(scale float64) *Report {
	r := newReport("fig8", "Oasis network engine overhead on four web applications (TCP, closed-loop)")
	runRRComparison(r, webApps(), scale)
	r.addf("paper: Oasis adds a consistent 4-7 µs at P50/P90/P99 under low and moderate load")
	return r
}

// Fig9 reproduces Figure 9: Oasis's overhead on memcached.
func Fig9(scale float64) *Report {
	r := newReport("fig9", "Oasis network engine overhead on memcached")
	runRRComparison(r, []appModel{memcachedApp()}, scale)
	r.addf("paper: latency overhead consistently ~4-7 µs at all percentiles")
	return r
}

// udpEchoPoint measures one UDP echo cell.
func udpEchoPoint(r *Report, mode Mode, payload int, rate float64, window time.Duration) *metrics.Histogram {
	e := buildNetPod(r, mode)
	e.startUDPEcho(7)
	var hist metrics.Histogram
	e.udpEchoLoad(payload, rate, window/4, window, &hist)
	return &hist
}

// Fig10 reproduces Figure 10: UDP echo RTT for 75 B and 1500 B payloads at
// increasing load, baseline vs Oasis.
func Fig10(scale float64) *Report {
	r := newReport("fig10", "UDP echo overhead vs. packet size and load")
	window := time.Duration(float64(15*time.Millisecond) * scale)
	if window < 4*time.Millisecond {
		window = 4 * time.Millisecond
	}
	sizes := []int{75, 1500}
	rates := []float64{5e3, 20e3, 50e3}
	r.addf("%-6s %9s | %9s %9s %9s | %9s %9s %9s | %8s",
		"size", "rate", "base p50", "base p90", "base p99",
		"oasis p50", "oasis p90", "oasis p99", "Δp50")
	echoes := parRun(len(sizes)*len(rates)*2, func(i int) *metrics.Histogram {
		size := sizes[i/(len(rates)*2)]
		rate := rates[(i/2)%len(rates)]
		mode := ModeBaseline
		if i%2 == 1 {
			mode = ModeOasis
		}
		return udpEchoPoint(r, mode, udpPayload(size), rate, window)
	})
	for si, size := range sizes {
		for ri, rate := range rates {
			cell := (si*len(rates) + ri) * 2
			base, oas := echoes[cell], echoes[cell+1]
			if base.Count() == 0 || oas.Count() == 0 {
				continue
			}
			d50 := oas.Percentile(50) - base.Percentile(50)
			r.addf("%-6d %7.0f/s | %9v %9v %9v | %9v %9v %9v | %8v",
				size, rate,
				base.Percentile(50), base.Percentile(90), base.Percentile(99),
				oas.Percentile(50), oas.Percentile(90), oas.Percentile(99), d50)
			key := fmt.Sprintf("s%d_r%.0f", size, rate)
			r.Values[key+"_delta_p50_us"] = float64(d50) / 1e3
		}
	}
	r.addf("paper: 4-7 µs added RTT, largely independent of packet size")
	return r
}

// Fig11 reproduces Figure 11: the overhead breakdown across baseline,
// baseline with I/O buffers in CXL, and full Oasis.
func Fig11(scale float64) *Report {
	r := newReport("fig11", "Overhead breakdown: baseline / +CXL buffers / Oasis (UDP echo)")
	window := time.Duration(float64(15*time.Millisecond) * scale)
	if window < 4*time.Millisecond {
		window = 4 * time.Millisecond
	}
	modes := []Mode{ModeBaseline, ModeBaselineCXLBufs, ModeOasis}
	sizes := []int{75, 1500}
	rate := 20e3
	r.addf("%-22s %6s | %9s %9s %9s", "config", "size", "p50", "p90", "p99")
	var p50s [3]time.Duration
	hists := parRun(len(sizes)*len(modes), func(i int) *metrics.Histogram {
		return udpEchoPoint(r, modes[i%len(modes)], udpPayload(sizes[i/len(modes)]), rate, window)
	})
	for si, size := range sizes {
		for i, mode := range modes {
			h := hists[si*len(modes)+i]
			if h.Count() == 0 {
				continue
			}
			r.addf("%-22s %6d | %9v %9v %9v", mode, size,
				h.Percentile(50), h.Percentile(90), h.Percentile(99))
			if size == 1500 {
				p50s[i] = h.Percentile(50)
			}
			key := fmt.Sprintf("%s_s%d", mode, size)
			r.Values[key+"_p50_us"] = float64(h.Percentile(50)) / 1e3
		}
	}
	r.Values["cxlbuf_minus_base_us"] = float64(p50s[1]-p50s[0]) / 1e3
	r.Values["oasis_minus_cxlbuf_us"] = float64(p50s[2]-p50s[1]) / 1e3
	r.addf("paper: I/O buffers in CXL add almost nothing; cross-host message passing")
	r.addf("       accounts for most of Oasis's added latency")
	return r
}

// Table3 reproduces Table 3: CXL link bandwidth under idle and busy loads,
// broken down into payload vs message-channel traffic.
func Table3(scale float64) *Report {
	r := newReport("tab3", "CXL link bandwidth usage (payload vs message traffic)")
	window := time.Duration(float64(20*time.Millisecond) * scale)
	if window < 5*time.Millisecond {
		window = 5 * time.Millisecond
	}
	type row struct {
		name    string
		payload int
		rate    float64
	}
	rows := []row{
		{"Idle", 0, 0},
		{"Busy (75 B)", 75, 1.2e6},
		{"Busy (1500 B)", 1500, 1.2e6},
	}
	r.addf("%-14s %14s %14s %14s", "load", "payload GB/s", "message GB/s", "total GB/s")
	for _, row := range rows {
		var e *netPod
		if row.rate > 0 {
			e = buildNetPod(r, ModeOasis)
		} else {
			// Idle row: disable the idle-poll backoff so the busy-polling
			// CXL traffic is measured faithfully (§3.2.2, Table 3).
			e = buildNetPodCfg(r, ModeOasis, func(cfg *oasis.Config) {
				cfg.Engine.IdleBackoff = 0
			})
		}
		e.startUDPEcho(7)
		// Snapshot the port meters when the measurement window opens so
		// warmup traffic is excluded.
		snaps := make(map[*metrics.Meter]map[string]int64)
		snapshotAll := func() {
			for _, port := range e.pod.Pool.Ports() {
				for _, meter := range []*metrics.Meter{port.ReadMeter(), port.WriteMeter()} {
					snaps[meter] = meter.Snapshot()
				}
			}
		}
		achieved := 0
		if row.rate > 0 {
			e.pod.Eng.At(2*time.Millisecond, snapshotAll) // udpStreamLoad warms 2 ms
			_, achieved = e.udpStreamLoad(udpPayload(row.payload), row.rate, window)
		} else {
			snapshotAll()
			e.pod.Eng.At(window, func() { e.pod.Shutdown() })
			e.run(window + time.Millisecond)
		}
		var payload, message float64
		for _, port := range e.pod.Pool.Ports() {
			for _, meter := range []*metrics.Meter{port.ReadMeter(), port.WriteMeter()} {
				d := meter.Diff(snaps[meter])
				payload += float64(d["payload"])
				message += float64(d["message"])
			}
		}
		elapsed := window.Seconds()
		pGBs := payload / elapsed / 1e9
		mGBs := message / elapsed / 1e9
		if row.rate > 0 {
			r.addf("%-14s %14.2f %14.2f %14.2f   (%.2f M echoes/s)",
				row.name, pGBs, mGBs, pGBs+mGBs, float64(achieved)/elapsed/1e6)
		} else {
			r.addf("%-14s %14.2f %14.2f %14.2f", row.name, pGBs, mGBs, pGBs+mGBs)
		}
		key := row.name
		r.Values[key+"_payload"] = pGBs
		r.Values[key+"_message"] = mGBs
	}
	r.addf("paper: idle 0.0 + 0.2; busy 75 B: 0.7 + 1.6; busy 1500 B: 12.0 + 1.5 GB/s")
	r.addf("note: totals sum both directions over every pool port (hosts and NIC DMA)")
	return r
}
