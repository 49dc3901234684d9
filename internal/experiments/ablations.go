package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	"oasis"
	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/instance"
	"oasis/internal/metrics"
	"oasis/internal/msgchan"
	"oasis/internal/sim"
	"oasis/internal/ssd"
	"oasis/internal/storengine"
)

// Ablations quantify the design choices DESIGN.md §5 calls out beyond the
// four channel designs Figure 6 already sweeps.

// AblCounterBatch sweeps the consumed-counter update batch (§4): updating
// every message forces a CXL round per message on both sides; batching to
// half the ring amortizes it to noise.
func AblCounterBatch(scale float64) *Report {
	scale = clampScale(scale)
	r := newReport("abl-counter", "Ablation: consumed-counter update batch size (§4)")
	window := time.Duration(float64(2*time.Millisecond) * scale)
	if window < 500*time.Microsecond {
		window = 500 * time.Microsecond
	}
	batches := []int{1, 16, 256, 4096}
	r.addf("%-12s %12s %14s %14s", "batch", "MOp/s", "counter wr/s", "sender rereads/s")
	type cbOut struct{ tput, updates, rereads float64 }
	results := parRun(len(batches), func(i int) cbOut {
		tput, updates, rereads := runCounterBatch(batches[i], window)
		return cbOut{tput, updates, rereads}
	})
	for i, batch := range batches {
		res := results[i]
		r.addf("%-12d %12.1f %14.0f %14.0f", batch, res.tput, res.updates, res.rereads)
		if batch == 1 {
			r.Values["batch1"] = res.tput
		}
		if batch == 4096 {
			r.Values["batch4096"] = res.tput
		}
	}
	r.addf("paper (§4): the receiver updates the counter only after a large batch")
	r.addf("(half the ring) and the sender caches it, re-reading only on exhaustion")
	return r
}

func runCounterBatch(batch int, window sim.Duration) (mops, updates, rereads float64) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<24, cxl.DefaultParams())
	cfg := msgchan.DefaultConfig()
	cfg.CounterBatch = batch
	tx, rx := rawChannel(eng, pool, cfg, pool.AttachPort("tx"), pool.AttachPort("rx"))
	eng.Go("tx", func(p *sim.Proc) {
		payload := make([]byte, 8)
		for p.Now() < window {
			if !tx.TrySend(p, payload) {
				p.Sleep(300 * time.Nanosecond)
			}
		}
	})
	eng.Go("rx", func(p *sim.Proc) {
		for p.Now() < window {
			if _, ok := rx.Poll(p); ok {
				p.Sleep(10 * time.Nanosecond)
			}
		}
	})
	eng.RunUntil(window)
	eng.Shutdown()
	sec := window.Seconds()
	return float64(rx.Received) / sec / 1e6, float64(rx.CounterUpdates) / sec, float64(tx.CounterReads) / sec
}

// AblBackendInspect quantifies §3.2.1/§3.3.1: what flow tagging buys. With
// tagging disabled, the backend inspects every RX payload, bringing buffer
// lines into its cache (extra CXL reads + invalidations on the critical
// path) and making subsequent DMA snoop its cache.
func AblBackendInspect(scale float64) *Report {
	scale = clampScale(scale)
	r := newReport("abl-inspect", "Ablation: flow tagging vs backend payload inspection (§3.3.1)")
	window := time.Duration(float64(10*time.Millisecond) * scale)
	if window < 3*time.Millisecond {
		window = 3 * time.Millisecond
	}
	run := func(disableTagging bool) (*metrics.Histogram, int64, int64) {
		e := buildNetPod(ModeOasis)
		e.startUDPEcho(7)
		if disableTagging {
			// Strip flow rules as the backend installs them: a registration
			// ack means the rule exists; remove it just after warmup.
			e.pod.Eng.At(time.Millisecond, func() {
				e.nic.Dev.RemoveFlowRule(uint32(serverIP))
			})
		}
		var hist metrics.Histogram
		e.udpEchoLoad(udpPayload(1500), 20e3, window/4, window, &hist)
		st := e.nic.BE.Host().Cache.Stats()
		return &hist, e.nic.BE.Inspected, st.SnoopWritebacks + st.SnoopDrops
	}
	type inspOut struct {
		hist      *metrics.Histogram
		inspected int64
		snoops    int64
	}
	results := parRun(2, func(i int) inspOut {
		h, n, s := run(i == 1)
		return inspOut{h, n, s}
	})
	tagged := results[0].hist
	inspected, nInspected, snoops := results[1].hist, results[1].inspected, results[1].snoops
	r.addf("%-22s %10s %10s %12s %8s", "config", "p50", "p99", "inspected", "snoops")
	r.addf("%-22s %10v %10v %12d %8s", "flow tagging", tagged.Percentile(50), tagged.Percentile(99), 0, "-")
	r.addf("%-22s %10v %10v %12d %8d", "backend inspects", inspected.Percentile(50), inspected.Percentile(99), nInspected, snoops)
	r.Values["tagged_p50_us"] = float64(tagged.Percentile(50)) / 1e3
	r.Values["inspect_p50_us"] = float64(inspected.Percentile(50)) / 1e3
	r.Values["inspected"] = float64(nInspected)
	r.Values["snoops"] = float64(snoops)
	r.addf("paper: the backend relies on NIC flow tags so it never inspects RX buffers,")
	r.addf("keeping its caches free of I/O buffer lines and DMA snoop-free (§3.2.1)")
	return r
}

// AblFailoverMechanism compares the paper's backup-NIC + MAC borrowing
// (§3.3.3) against a GARP-only strategy where the instance merely
// re-announces its new MAC after the frontends switch NICs — the path a
// design without MAC borrowing would take.
func AblFailoverMechanism(scale float64) *Report {
	scale = clampScale(scale)
	r := newReport("abl-failover", "Ablation: MAC borrowing vs GARP-only failover (§3.3.3)")
	span := time.Duration(float64(3*time.Second) * scale)
	if span < time.Second {
		span = time.Second
	}
	trials := parRun(2, func(i int) time.Duration {
		return measureFailover(span, i == 0)
	})
	borrow, garpOnly := trials[0], trials[1]
	r.addf("%-22s %14s", "mechanism", "interruption")
	r.addf("%-22s %14v", "MAC borrowing", borrow)
	r.addf("%-22s %14v", "GARP-only", garpOnly)
	r.Values["borrow_ms"] = float64(borrow) / 1e6
	r.Values["garp_ms"] = float64(garpOnly) / 1e6
	r.addf("MAC borrowing reroutes inbound traffic with a single switch-table update;")
	r.addf("GARP-only additionally waits for the instance's announcement to propagate")
	return r
}

// measureFailover runs the Fig. 13 scenario, optionally suppressing the
// backup backend's MAC borrow so recovery relies on the instance's GARP.
func measureFailover(span time.Duration, macBorrow bool) time.Duration {
	f := buildFailoverPod()
	f.pod.Go("echo-server", func(p *oasis.Proc) { instance.Echo(p, f.inst.Stack, 7) })
	failAt := span / 2
	f.pod.Eng.At(failAt, func() {
		f.pod.FailNICPort(f.nic.ID)
		if !macBorrow {
			// Suppress the borrow by yanking the backup's knowledge of the
			// failed NIC's MAC; the GARP path remains: after the frontends
			// repoint, the instance's stack announces via gratuitous ARP.
			f.backup.BE.SuppressMACBorrow()
			// GARP-only designs trigger the announcement on failover; the
			// frontends' switch to the backup changes the instance's MAC.
			f.pod.Eng.After(time.Millisecond, func() {}) // keep ordering explicit
		}
	})
	if !macBorrow {
		// In the GARP-only design the instance re-announces with the BACKUP
		// NIC's MAC after failover (like a migration); poll until the
		// frontends have switched, then announce.
		f.pod.Go("garp-kicker", func(p *oasis.Proc) {
			for p.Now() < failAt {
				p.Sleep(time.Millisecond)
			}
			for f.pod.Hosts[0].FE.FailoversApplied == 0 {
				p.Sleep(time.Millisecond)
			}
			f.inst.Stack.GratuitousARP()
		})
	}
	var probes probeStream
	f.pod.Go("client", func(p *oasis.Proc) {
		probes.run(p, f.client.Stack, serverIP, "probe", time.Millisecond, span)
		f.pod.Shutdown()
	})
	f.pod.Run(span + time.Second)
	if len(probes.lost) == 0 {
		return 0
	}
	return probes.lost[len(probes.lost)-1] - probes.lost[0] + time.Millisecond
}

// AblHWCoherent evaluates the paper's §6 "CXL 3.0 memory devices"
// discussion: with hardware Back Invalidation, channel receivers need no
// software invalidation at all. The pool's optional coherence mode models
// BI; the HW-coherent receiver then polls plainly.
func AblHWCoherent(scale float64) *Report {
	scale = clampScale(scale)
	r := newReport("abl-coherent", "Ablation: CXL 3.0 hardware coherence (Back Invalidation, §6)")
	window := time.Duration(float64(2*time.Millisecond) * scale)
	if window < 500*time.Microsecond {
		window = 500 * time.Microsecond
	}
	run := func(hw bool) (float64, time.Duration) {
		eng := sim.New()
		params := cxl.DefaultParams()
		params.HWCoherent = hw
		pool := cxl.NewPool(eng, 1<<24, params)
		cfg := msgchan.DefaultConfig()
		if hw {
			cfg.Design = msgchan.DesignHWCoherent
		}
		tx, rx := rawChannel(eng, pool, cfg, pool.AttachPort("tx"), pool.AttachPort("rx"))
		var hist metrics.Histogram
		eng.Go("tx", func(p *sim.Proc) {
			payload := make([]byte, 8)
			for p.Now() < window {
				binary.LittleEndian.PutUint64(payload, uint64(p.Now()))
				if !tx.TrySend(p, payload) {
					p.Sleep(300 * time.Nanosecond)
				}
			}
		})
		eng.Go("rx", func(p *sim.Proc) {
			for p.Now() < window {
				if msg, ok := rx.Poll(p); ok {
					hist.Record(p.Now() - sim.Duration(binary.LittleEndian.Uint64(msg[:8])))
					p.Sleep(10 * time.Nanosecond)
				}
			}
		})
		eng.RunUntil(window)
		eng.Shutdown()
		return float64(rx.Received) / window.Seconds() / 1e6, hist.Percentile(50)
	}
	type cohOut struct {
		tput float64
		lat  time.Duration
	}
	results := parRun(2, func(i int) cohOut {
		tput, lat := run(i == 1)
		return cohOut{tput, lat}
	})
	swTput, swLat := results[0].tput, results[0].lat
	hwTput, hwLat := results[1].tput, results[1].lat
	r.addf("%-34s %12s %12s", "mode", "MOp/s", "median lat")
	r.addf("%-34s %12.1f %12v", "software coherence (design ④)", swTput, swLat)
	r.addf("%-34s %12.1f %12v", "hardware Back Invalidation", hwTput, hwLat)
	r.Values["sw_mops"] = swTput
	r.Values["hw_mops"] = hwTput
	r.addf("paper (§6): Oasis is compatible with CXL 3.0 BI and \"could benefit from")
	r.addf("better message channel performance\", but must not depend on it")
	return r
}

// AblSharding evaluates §6's "Single-threaded datapath" discussion: message
// channel throughput scales linearly with additional channels, so a sharded
// multi-channel design lifts the single-core ceiling. K sender/receiver
// core pairs each drive their own channel over the same two CXL ports.
func AblSharding(scale float64) *Report {
	scale = clampScale(scale)
	r := newReport("abl-sharding", "Ablation: sharded multi-channel scaling (§6)")
	window := time.Duration(float64(2*time.Millisecond) * scale)
	if window < 500*time.Microsecond {
		window = 500 * time.Microsecond
	}
	r.addf("%-10s %14s %16s", "shards", "total MOp/s", "per-shard MOp/s")
	shardCounts := []int{1, 2, 4, 8}
	totals := parRun(len(shardCounts), func(i int) float64 {
		return runSharded(shardCounts[i], window)
	})
	var base float64
	for i, shards := range shardCounts {
		total := totals[i]
		if shards == 1 {
			base = total
		}
		r.addf("%-10d %14.1f %16.1f", shards, total, total/float64(shards))
		r.Values[fmt.Sprintf("shards%d", shards)] = total
	}
	r.addf("paper (§6): message channel throughput scales linearly with additional")
	r.addf("channels; a sharded multi-channel design lifts the single-core ceiling")
	_ = base
	return r
}

func runSharded(shards int, window sim.Duration) float64 {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<26, cxl.DefaultParams())
	txPort := pool.AttachPort("sender-host")
	rxPort := pool.AttachPort("receiver-host")
	var receivers []*msgchan.Receiver
	for i := 0; i < shards; i++ {
		tx, rx := rawChannel(eng, pool, msgchan.DefaultConfig(), txPort, rxPort)
		receivers = append(receivers, rx)
		eng.Go("tx", func(p *sim.Proc) {
			payload := make([]byte, 8)
			for p.Now() < window {
				if !tx.TrySend(p, payload) {
					p.Sleep(300 * time.Nanosecond)
				}
			}
		})
		eng.Go("rx", func(p *sim.Proc) {
			for p.Now() < window {
				if _, ok := rx.Poll(p); ok {
					p.Sleep(10 * time.Nanosecond)
				}
			}
		})
	}
	eng.RunUntil(window)
	eng.Shutdown()
	var total int64
	for _, rx := range receivers {
		total += rx.Received
	}
	return float64(total) / window.Seconds() / 1e6
}

// AblQoS evaluates §6's "QoS control for CXL bandwidth": a co-located
// bandwidth-hungry use case (an OLAP scan streaming from the pool) floods
// the host's CXL port; without QoS the message channel's line fetches queue
// behind the bulk transfers, inflating Oasis's signaling latency. Throttling
// the OLAP class (Intel RDT-style) restores it.
func AblQoS(scale float64) *Report {
	scale = clampScale(scale)
	r := newReport("abl-qos", "Ablation: CXL bandwidth QoS vs co-tenant interference (§6)")
	window := time.Duration(float64(2*time.Millisecond) * scale)
	if window < 500*time.Microsecond {
		window = 500 * time.Microsecond
	}
	run := func(qos bool) time.Duration {
		eng := sim.New()
		pool := cxl.NewPool(eng, 1<<26, cxl.DefaultParams())
		txPort := pool.AttachPort("sender")
		rxPort := pool.AttachPort("receiver")
		if qos {
			// Throttle the scan to 70% of the receiver's port.
			rxPort.SetQoS("olap", 0.7)
		}
		tx, rx := rawChannel(eng, pool, msgchan.DefaultConfig(), txPort, rxPort)
		// OLAP co-tenant: stream 64 KiB reads back-to-back on the
		// receiver's port (same host, different workload).
		scanRegion, err := pool.Alloc(1 << 20)
		if err != nil {
			panic(err)
		}
		eng.Go("olap", func(p *sim.Proc) {
			buf := make([]byte, 65536)
			for p.Now() < window {
				done := rxPort.DMARead(scanRegion.Base, buf, "olap")
				if wait := done - p.Now(); wait > 0 {
					p.Sleep(wait)
				}
			}
		})
		var hist metrics.Histogram
		eng.Go("tx", func(p *sim.Proc) {
			payload := make([]byte, 8)
			next := sim.Duration(0)
			interval := 2 * time.Microsecond // 0.5 MOp/s of signaling
			for p.Now() < window {
				if wait := next - p.Now(); wait > 0 {
					tx.Flush(p)
					p.Sleep(wait)
				}
				binary.LittleEndian.PutUint64(payload, uint64(p.Now()))
				if tx.TrySend(p, payload) {
					next += interval
				}
				if next < p.Now() {
					next = p.Now()
				}
			}
			tx.Flush(p)
		})
		eng.Go("rx", func(p *sim.Proc) {
			for p.Now() < window {
				if msg, ok := rx.Poll(p); ok {
					hist.Record(p.Now() - sim.Duration(binary.LittleEndian.Uint64(msg[:8])))
				}
			}
		})
		eng.RunUntil(window)
		eng.Shutdown()
		return hist.Percentile(99)
	}
	results := parRun(2, func(i int) time.Duration { return run(i == 1) })
	noQoS, withQoS := results[0], results[1]
	r.addf("%-28s %14s", "config", "message p99")
	r.addf("%-28s %14v", "OLAP flood, no QoS", noQoS)
	r.addf("%-28s %14v", "OLAP throttled to 70%", withQoS)
	r.Values["noqos_p99_us"] = float64(noQoS) / 1e3
	r.Values["qos_p99_us"] = float64(withQoS) / 1e3
	r.addf("paper (§6): bandwidth-intensive co-tenants may saturate CXL links;")
	r.addf("RDT-style bandwidth partitioning keeps Oasis's signaling isolated")
	return r
}

// AblStorage characterizes the storage engine (§3.4): remote 4 KiB read
// IOPS and latency vs queue depth, against the device model's Table 1
// limits (0.5 MOp/s, ~100 µs). The paper designs but does not measure this
// engine; these are this implementation's reference numbers.
func AblStorage(scale float64) *Report {
	scale = clampScale(scale)
	r := newReport("abl-storage", "Storage engine: remote 4 KiB reads vs queue depth (§3.4)")
	window := time.Duration(float64(20*time.Millisecond) * scale)
	if window < 5*time.Millisecond {
		window = 5 * time.Millisecond
	}
	r.addf("%-8s %12s %12s %12s", "depth", "kIOPS", "p50", "p99")
	depths := []int{1, 4, 16, 64}
	type sdOut struct {
		iops     float64
		p50, p99 time.Duration
	}
	results := parRun(len(depths), func(i int) sdOut {
		iops, p50, p99 := runStorageDepth(depths[i], window)
		return sdOut{iops, p50, p99}
	})
	for i, depth := range depths {
		iops, p50, p99 := results[i].iops, results[i].p50, results[i].p99
		r.addf("%-8d %12.1f %12v %12v", depth, iops/1e3, p50, p99)
		r.Values[fmt.Sprintf("d%d_kiops", depth)] = iops / 1e3
		if depth == 1 {
			r.Values["d1_p50_us"] = float64(p50) / 1e3
		}
		if depth == 64 {
			r.Values["d64_kiops"] = iops / 1e3
		}
	}
	r.addf("device model (Table 1): 0.5 MOp/s, ~82 µs media reads; the engine adds")
	r.addf("single-digit-µs signaling per I/O, hidden at depth by the SSD's parallelism")
	return r
}

func runStorageDepth(depth int, window time.Duration) (iops float64, p50, p99 time.Duration) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<30, cxl.DefaultParams())
	hA := hostNew(eng, 0, "hostA", pool)
	hB := hostNew(eng, 1, "hostB", pool)
	scfg := storengine.DefaultConfig()
	dev := ssd.New(eng, "ssd0", pool.AttachPort("ssd0-dma"), ssd.DefaultParams())
	fe := storengine.NewFrontend(hA, pool, scfg)
	be := storengine.NewBackend(hB, 1, dev, 1<<20, scfg)
	feEnd, beEnd, err := core.NewDuplexLink(pool, hA, hB, scfg.Chan)
	if err != nil {
		panic(err)
	}
	fe.ConnectBackend(1, feEnd)
	be.ConnectFrontend(hA.ID, beEnd)
	dev.Start()
	fe.Start()
	be.Start()
	vol, err := fe.AddVolume(serverIP, 1, 1<<18)
	if err != nil {
		panic(err)
	}
	var hist metrics.Histogram
	completed := 0
	var measureStart sim.Duration
	for w := 0; w < depth; w++ {
		w := w
		eng.Go("worker", func(p *sim.Proc) {
			if !vol.WaitReady(p, 100*time.Millisecond) {
				return
			}
			if measureStart == 0 {
				measureStart = p.Now()
			}
			lba := uint64(w * 1024)
			for p.Now()-measureStart < window {
				t0 := p.Now()
				if _, err := vol.Read(p, lba, 1); err != nil {
					return
				}
				hist.Record(p.Now() - t0)
				completed++
			}
			eng.Shutdown()
		})
	}
	eng.RunUntil(window + time.Second)
	eng.Shutdown()
	return float64(completed) / window.Seconds(), hist.Percentile(50), hist.Percentile(99)
}

// hostNew is a local helper avoiding an import cycle on the host package's
// default config.
func hostNew(eng *sim.Engine, id int, name string, pool *cxl.Pool) *host.Host {
	return host.New(eng, id, name, pool, host.DefaultConfig())
}
