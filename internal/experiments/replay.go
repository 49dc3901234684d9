package experiments

import (
	"time"

	"oasis"
	"oasis/internal/instance"
	"oasis/internal/metrics"
	"oasis/internal/netstack"
	"oasis/internal/trace"
)

// Fig12 reproduces Figure 12: replay the rack-A host-1/host-2 inbound
// traces against two hosts, comparing each-host-has-its-own-NIC against
// both sharing host 1's NIC. Both setups run the full Oasis datapath so the
// comparison isolates multiplexing interference (§5.2).
func Fig12(scale float64) *Report {
	scale = clampScale(scale)
	r := newReport("fig12", "Trace replay: two hosts with own NICs vs. sharing one NIC")
	span := time.Duration(float64(400*time.Millisecond) * scale)
	if span < 50*time.Millisecond {
		span = 50 * time.Millisecond
	}
	traces := trace.RackA(span)[:2]

	baseH1, baseH2 := replayRun(traces, false)
	muxH1, muxH2 := replayRun(traces, true)

	r.addf("%-26s %10s %10s %10s", "setup", "p50", "p99", "count")
	rows := []struct {
		name string
		h    *metrics.Histogram
	}{
		{"own NIC, host 1", baseH1},
		{"own NIC, host 2", baseH2},
		{"multiplexed, host 1", muxH1},
		{"multiplexed, host 2", muxH2},
	}
	for _, row := range rows {
		r.addf("%-26s %10v %10v %10d", row.name, row.h.Percentile(50), row.h.Percentile(99), row.h.Count())
	}
	r.Values["base_h1_p99_us"] = float64(baseH1.Percentile(99)) / 1e3
	r.Values["mux_h1_p99_us"] = float64(muxH1.Percentile(99)) / 1e3
	r.Values["base_h2_p99_us"] = float64(baseH2.Percentile(99)) / 1e3
	r.Values["mux_h2_p99_us"] = float64(muxH2.Percentile(99)) / 1e3

	// Utilization accounting: the replayed traffic is identical, so the
	// aggregate P99.99 utilization doubles when one NIC serves what two
	// hosts' NICs served (the paper's 18 % -> 37 %).
	bucket := 10 * time.Microsecond
	agg := trace.Merge(100e9, traces...)
	aggOne := agg.UtilizationAt(99.99, bucket) // one shared 100 Gbit NIC
	aggTwo := aggOne / 2                       // same traffic over two NICs
	r.Values["util_own_nics"] = aggTwo
	r.Values["util_multiplexed"] = aggOne
	r.addf("aggregated P99.99 NIC utilization: own NICs %.0f%%  ->  multiplexed %.0f%%",
		aggTwo*100, aggOne*100)
	r.addf("paper: P99 unchanged for host 1, +1 µs for host 2; utilization 18%% -> 37%%")
	return r
}

// replayRun replays the traces as UDP echo traffic to two instances. With
// multiplex, both instances are served by the NIC on host 1's serving
// host; otherwise each gets its own NIC.
func replayRun(traces []*trace.PacketTrace, multiplex bool) (*metrics.Histogram, *metrics.Histogram) {
	cfg := oasis.DefaultConfig()
	cfg.NoAllocator = true
	pod := oasis.NewPod(cfg)
	hostA := pod.AddHost() // runs instance 1
	hostB := pod.AddHost() // runs instance 2
	nic1 := pod.AddNIC(hostA, false)
	nic2 := pod.AddNIC(hostB, false)
	inst1 := pod.AddInstance(hostA, oasis.IP(10, 0, 0, 1))
	inst2 := pod.AddInstance(hostB, oasis.IP(10, 0, 0, 2))
	client1 := pod.AddClient(oasis.IP(10, 0, 99, 1))
	client2 := pod.AddClient(oasis.IP(10, 0, 99, 2))
	pod.Start()
	if multiplex {
		inst1.Assign(nic1.ID, 0)
		inst2.Assign(nic1.ID, 0)
		_ = nic2
	} else {
		inst1.Assign(nic1.ID, 0)
		inst2.Assign(nic2.ID, 0)
	}
	for _, inst := range []*oasis.Instance{inst1, inst2} {
		inst := inst
		pod.Go("echo", func(p *oasis.Proc) { instance.Echo(p, inst.Stack, 7) })
	}
	h1 := &metrics.Histogram{}
	h2 := &metrics.Histogram{}
	running := 2
	replay := func(cl *oasis.Client, tr *trace.PacketTrace, dst netstack.IP, hist *metrics.Histogram) {
		pod.Go("replay", func(p *oasis.Proc) {
			defer func() {
				running--
				if running == 0 {
					pod.Shutdown()
				}
			}()
			conn, err := cl.Stack.ListenUDP(0)
			if err != nil {
				return
			}
			// Track in-flight sends: a drain process records RTTs from
			// payload-embedded ids (open loop, as a trace replay must be).
			sendTimes := make(map[uint32]oasis.Duration)
			pod.Go("replay-drain", func(p *oasis.Proc) {
				for {
					dg := conn.Recv(p)
					if len(dg.Data) < 4 {
						continue
					}
					id := uint32(dg.Data[0]) | uint32(dg.Data[1])<<8 | uint32(dg.Data[2])<<16 | uint32(dg.Data[3])<<24
					if t0, ok := sendTimes[id]; ok {
						hist.Record(p.Now() - t0)
						delete(sendTimes, id)
					}
				}
			})
			p.Sleep(2 * time.Millisecond)
			start := p.Now()
			var id uint32
			for _, ev := range tr.Events {
				at := start + ev.At
				if wait := at - p.Now(); wait > 0 {
					p.Sleep(wait)
				}
				size := ev.Size - netstack.EthHeaderLen - netstack.IPv4HeaderLen - netstack.UDPHeaderLen
				if size < 4 {
					size = 4
				}
				buf := make([]byte, size)
				id++
				buf[0], buf[1], buf[2], buf[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
				sendTimes[id] = p.Now()
				if conn.SendTo(p, dst, 7, buf) != nil {
					return
				}
			}
			// Let stragglers drain.
			p.Sleep(5 * time.Millisecond)
		})
	}
	replay(client1, traces[0], inst1.IPAddr(), h1)
	replay(client2, traces[1], inst2.IPAddr(), h2)
	pod.Run(10 * time.Minute)
	return h1, h2
}
