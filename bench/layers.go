package main

import (
	"fmt"
	"os"
	"strings"

	"oasis/internal/obs"
)

// layerMetrics builds a traced rep's per-layer metrics from its three
// sources: the harness's own spans, the two CPU profiles (set-up and
// sim.run), and the final Stats() snapshots.
func layerMetrics(r *rep, out *outcome, res repResult) map[string]float64 {
	m := map[string]float64{}
	for k, v := range out.extra {
		m[k] = v
	}
	for _, s := range r.spans {
		switch s.Name {
		case phaseBuild:
			m["topology.build_s"] = s.End - s.Start
		case phaseStart:
			m["topology.start_s"] = s.End - s.Start
		case phaseSpawn:
			m["topology.spawn_s"] = s.End - s.Start
		case phaseSnapshot:
			m["obs.snapshot_ms"] = (s.End - s.Start) * 1e3
		}
	}

	setup, err := layerShares(r.setupPB.Bytes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: set-up", err)
	}
	run, err := layerShares(r.runPB.Bytes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run", err)
	}
	// Building hosts and zeroing their memory is set-up work; every other
	// share is of the Run() phase.
	m["host.cpu_frac"] = setup["host"]
	m["runtime.gc_frac"] = setup["gc"]
	m["runtime.sched_frac"] = run["sched"]
	m["runtime.run_gc_frac"] = run["gc"]
	claimed := run["sched"] + run["gc"]
	for _, layer := range []string{"sim", "core", "msgchan", "cache", "cxl", "topology", "netengine", "nic",
		"netsw", "netstack", "storengine", "ssd", "allocator", "raft", "obs"} {
		m[layer+".cpu_frac"] = run[layer]
		claimed += run[layer]
	}
	if len(run) > 0 {
		m["runtime.other_frac"] = 1 - claimed // the rest of the runtime, the harness, the standard library
	}

	foldStats(m, out.snaps)
	if it := m["core.iters"]; it > 0 {
		m["core.idle_frac"] = m["core.idle_iters"] / it
		m["sim.host_ns_per_iter"] = res.Metrics["cpu_s"] * 1e9 / it
	}
	if acc := m["cache.hits"] + m["cache.misses"]; acc > 0 {
		m["cache.hit_frac"] = m["cache.hits"] / acc
	}
	if res.Samples > 0 {
		m["cxl.bytes_per_op"] = (m["cxl.msg_bytes"] + m["cxl.payload_bytes"]) / float64(res.Samples)
	}
	return m
}

// numbered reports whether seg is prefix followed only by digits ("nic3").
func numbered(seg, prefix string) bool {
	if !strings.HasPrefix(seg, prefix) || len(seg) == len(prefix) {
		return false
	}
	for _, c := range seg[len(prefix):] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// foldStats sums the Stats() series into per-layer totals. Series names are
// slash paths whose last segments name the component and the counter
// ("pod2/host31/be1/chan/host4/sent", "nic1/tx_packets"); a pod scope
// prefix, when present, is ignored.
func foldStats(m map[string]float64, snaps []obs.Snapshot) {
	var rxLatWeighted, rxLatCount float64
	for _, snap := range snaps {
		m["obs.points"] += float64(len(snap.Points))
		for _, pt := range snap.Points {
			segs := strings.Split(pt.Name, "/")
			n := len(segs)
			if n < 2 {
				continue
			}
			last, owner := segs[n-1], segs[n-2]
			add := func(metric string, names ...string) {
				for _, name := range names {
					if last == name {
						m[metric+"."+name] += pt.Value
					}
				}
			}
			switch {
			case segs[0] == "core":
				add("core", "iters", "idle_iters", "processed")
			case segs[0] == "cxl":
				if last == "rd_bytes" || last == "wr_bytes" {
					switch pt.Label {
					case "message":
						m["cxl.msg_bytes"] += pt.Value
					case "payload":
						m["cxl.payload_bytes"] += pt.Value
					}
				}
			case n >= 3 && segs[n-3] == "chan":
				add("msgchan", "sent", "received", "send_full")
				if last == "rx_lat" && pt.Hist != nil && pt.Hist.Count > 0 {
					rxLatWeighted += float64(pt.Hist.P50) * float64(pt.Hist.Count)
					rxLatCount += float64(pt.Hist.Count)
				}
			case owner == "cache":
				add("cache", "hits", "misses", "writebacks", "prefetch_issued", "fill_waits")
			case owner == "fe":
				add("netengine", "tx_forwarded", "rx_delivered", "tx_channel_full")
			case numbered(owner, "be") || (n >= 4 && segs[n-4] == "fe" && segs[n-3] == "inst"):
				add("netengine", "buf_alloc_fails")
			case numbered(owner, "nic"):
				add("nic", "tx_packets", "rx_packets", "rx_no_desc", "tx_ring_full")
			case owner == "storage-fe":
				add("storengine", "reads", "writes", "retries")
			case n >= 4 && segs[n-4] == "storage-fe" && segs[n-3] == "vol":
				add("storengine", "io_errors")
			case numbered(owner, "ssd"):
				add("ssd", "reads", "writes", "queue_full_rejects")
			case owner == "alloc":
				add("allocator", "placements", "migrations")
			}
		}
	}
	if rxLatCount > 0 {
		// Per-channel medians weighted by message count: the snapshot keeps
		// quantiles, not samples, so this is the typical channel's median.
		m["msgchan.v_rx_lat_p50_us"] = rxLatWeighted / rxLatCount / 1e3
	}
}
