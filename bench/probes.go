package main

import (
	"encoding/binary"
	"runtime"
	"sort"
	"strconv"
	"time"

	"oasis/internal/bufpool"
	"oasis/internal/cache"
	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/metrics"
	"oasis/internal/msgchan"
	"oasis/internal/netengine"
	"oasis/internal/netstack"
	"oasis/internal/netsw"
	"oasis/internal/nic"
	"oasis/internal/obs"
	"oasis/internal/sim"
	"oasis/internal/ssd"
)

// Layer probes: host cost per call into each layer's exported API, on rigs
// small enough that nothing else is on the path. They are independent of
// the workloads and exist so that a per-layer claim ("an empty poll got
// cheaper") has a number of its own, and so that probe × count can be
// checked against a workload's cpu_s and alloc_mb (README, "Probes").

// probe measures one or more metrics. run performs n operations and
// returns, per metric, the total over all n in the metric's base unit: host
// nanoseconds, or bytes. The first value is always host nanoseconds; it
// sizes n. per divides a per-operation base value into the reported unit
// (1: ns, 1e3: us or kB).
type probe struct {
	metrics []metricDef
	run     func(n int) []float64
	per     float64
}

func nsProbe(name string, run func(n int) time.Duration) probe {
	return probe{
		metrics: []metricDef{{name: name, unit: "ns", better: "lower"}},
		run:     func(n int) []float64 { return []float64{float64(run(n))} },
		per:     1,
	}
}

// timed runs the engine to completion and returns the host time it took.
func timed(eng *sim.Engine) time.Duration {
	t0 := time.Now()
	eng.Run()
	return time.Since(t0)
}

var probes = []probe{
	nsProbe("sim.probe_callback_ns", func(n int) time.Duration {
		eng := sim.New()
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.After(time.Nanosecond, tick)
			}
		}
		eng.After(time.Nanosecond, tick)
		return timed(eng)
	}),
	nsProbe("sim.probe_switch_ns", func(n int) time.Duration {
		// Two processes hand a token back and forth: every op is one
		// park/resume pair, the cost of each non-fast-path Sleep.
		eng := sim.New()
		q1, q2 := sim.NewQueue[int](eng), sim.NewQueue[int](eng)
		eng.Go("a", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				q1.Push(i)
				q2.Pop(p)
			}
		})
		eng.Go("b", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				q1.Pop(p)
				q2.Push(i)
			}
		})
		return timed(eng)
	}),
	nsProbe("sim.probe_sleep_fast_ns", func(n int) time.Duration {
		eng := sim.New()
		eng.Go("spin", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Nanosecond)
			}
		})
		return timed(eng)
	}),
	nsProbe("sim.probe_group_window_ns", func(n int) time.Duration {
		// Four partitions in a ring of 1 µs links, each with one timer per
		// microsecond and nothing else: an op is one barrier round.
		const lat = time.Microsecond
		g := sim.NewGroup()
		parts := make([]*sim.Engine, 4)
		for i := range parts {
			parts[i] = g.AddPartition()
		}
		for i, e := range parts {
			g.Link(e, parts[(i+1)%len(parts)], lat)
			e := e
			var tick func()
			tick = func() { e.After(lat, tick) }
			e.After(lat, tick)
		}
		t0 := time.Now()
		g.RunUntil(time.Duration(n) * lat)
		d := time.Since(t0)
		g.Shutdown()
		return d
	}),
	nsProbe("cache.probe_read_hit_ns", func(n int) time.Duration {
		eng, _, c := cacheRig()
		eng.Go("reader", func(p *sim.Proc) {
			var buf [8]byte
			for i := 0; i < n; i++ {
				c.Read(p, 0, buf[:], "message")
			}
		})
		return timed(eng)
	}),
	nsProbe("cache.probe_read_miss_ns", func(n int) time.Duration {
		// Walks 8× the cache's capacity, so every read is a demand fill
		// and, once warm, an LRU eviction.
		eng, _, c := cacheRig()
		eng.Go("reader", func(p *sim.Proc) {
			var buf [8]byte
			span := int64(8 * cache.DefaultCapacityLines * cxl.LineSize)
			for i := 0; i < n; i++ {
				c.Read(p, int64(i)*cxl.LineSize%span, buf[:], "message")
			}
		})
		return timed(eng)
	}),
	nsProbe("cache.probe_flush_fence_ns", func(n int) time.Duration {
		eng, _, c := cacheRig()
		eng.Go("flusher", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				c.FlushLine(p, 0, "message")
				c.Fence(p)
			}
		})
		return timed(eng)
	}),
	nsProbe("cxl.probe_fetch_line_ns", func(n int) time.Duration {
		eng, port, _ := cacheRig()
		eng.Go("fetcher", func(p *sim.Proc) {
			var line [cxl.LineSize]byte
			for i := 0; i < n; i++ {
				arrive := port.FetchLine(0, "message")
				p.Sleep(arrive - p.Now())
				port.CollectLine(0, line[:])
			}
		})
		return timed(eng)
	}),
	{
		// One process alternately fills the ring with a batch of sends and
		// drains it again, timing the two halves apart.
		metrics: []metricDef{
			{name: "msgchan.probe_send_ns", unit: "ns", better: "lower"},
			{name: "msgchan.probe_poll_hit_ns", unit: "ns", better: "lower"},
		},
		per: 1,
		run: func(n int) []float64 {
			const batch = 64
			eng, tx, rx := chanRig()
			var send, poll time.Duration
			eng.Go("both", func(p *sim.Proc) {
				payload := make([]byte, 8)
				for done := 0; done < n; done += batch {
					t0 := time.Now()
					for i := 0; i < batch; i++ {
						binary.LittleEndian.PutUint64(payload, uint64(done+i))
						if !tx.TrySend(p, payload) {
							panic("probe: ring full after a full drain")
						}
					}
					tx.Flush(p)
					t1 := time.Now()
					p.Sleep(2 * time.Microsecond) // posted writes land in the pool
					t2 := time.Now()
					for got := 0; got < batch; {
						if _, ok := rx.Poll(p); ok {
							got++
						}
					}
					send += t1.Sub(t0)
					poll += time.Since(t2)
				}
			})
			eng.Run()
			return []float64{float64(send), float64(poll)}
		},
	},
	nsProbe("msgchan.probe_poll_empty_ns", func(n int) time.Duration {
		eng, _, rx := chanRig()
		eng.Go("poller", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				rx.Poll(p)
			}
		})
		return timed(eng)
	}),
	nsProbe("core.probe_idle_iter_ns", func(n int) time.Duration {
		// One driver core over 8 links nobody sends on, paced like a
		// network-engine driver: an op is one idle loop iteration.
		eng := sim.New()
		pool := cxl.NewPool(eng, 1<<26, cxl.DefaultParams())
		hcfg := host.DefaultConfig()
		hcfg.LocalMemBytes = 1 << 20
		a := host.New(eng, 0, "a", pool, hcfg)
		b := host.New(eng, 1, "b", pool, hcfg)
		loop := &idleLoop{links: core.NewLinkSet(core.DefaultPendingLimit)}
		ecfg := netengine.DefaultConfig()
		for i := uint32(0); i < 8; i++ {
			end, _, err := core.NewDuplexLink(pool, a, b, ecfg.Chan)
			if err != nil {
				panic(err)
			}
			loop.links.Add(i, end)
		}
		d := core.NewDriver(a, "probe", core.DriverConfig{LoopCost: ecfg.LoopCost, IdleBackoff: ecfg.IdleBackoff})
		d.Attach(loop)
		d.Start()
		t0 := time.Now()
		// At the backoff cap an idle iteration sleeps IdleBackoff, so this
		// many iterations need about n × IdleBackoff of virtual time.
		eng.RunUntil(time.Duration(n) * ecfg.IdleBackoff)
		elapsed := time.Since(t0)
		eng.Shutdown()
		return time.Duration(float64(elapsed) * float64(n) / float64(d.Iterations))
	}),
	nsProbe("nic.probe_tx_ns", func(n int) time.Duration {
		// A NIC with no cable: PostTx, WQE fetch, DMA read, completion.
		eng, pool, dev := nicRig()
		frame := make([]byte, 128)
		pool.Poke(0, frame)
		eng.Go("driver", func(p *sim.Proc) {
			for done := 0; done < n; {
				for i := 0; i < 256 && dev.PostTx(p, nic.WQE{Addr: 0, Len: len(frame)}); i++ {
				}
				p.Sleep(time.Microsecond)
				for {
					if _, ok := dev.PollTxCompletion(); !ok {
						break
					}
					done++
				}
			}
		})
		return timed(eng)
	}),
	nsProbe("nic.probe_rx_ns", func(n int) time.Duration {
		// Frames handed straight to the NIC: descriptor claim, DMA write,
		// flow classification, completion, descriptor repost.
		eng, _, dev := nicRig()
		f := &netsw.Frame{Bytes: make([]byte, 128)}
		eng.Go("driver", func(p *sim.Proc) {
			for done := 0; done < n; {
				for i := 0; i < 256; i++ {
					dev.PostRx(p, nic.RxDesc{Addr: int64(i) * 2048, Cap: 2048})
					dev.DeliverFrame(f)
				}
				p.Sleep(time.Microsecond)
				for {
					if _, ok := dev.PollRxCompletion(); !ok {
						break
					}
					done++
				}
			}
		})
		return timed(eng)
	}),
	nsProbe("ssd.probe_io_ns", func(n int) time.Duration {
		eng := sim.New()
		pool := cxl.NewPool(eng, 1<<26, cxl.DefaultParams())
		dev := ssd.New(eng, "ssd", pool.AttachPort("ssd-dma"), ssd.DefaultParams())
		dev.AddNamespace(1, 1<<16)
		dev.Start()
		eng.Go("driver", func(p *sim.Proc) {
			for done := 0; done < n; {
				for i := 0; i < 64; i++ {
					dev.Submit(p, ssd.Command{Opcode: ssd.OpRead, CID: uint16(i), NSID: 1,
						LBA: uint64(i), Blocks: 1, Buf: int64(i) * ssd.BlockSize})
				}
				for got := 0; got < 64; {
					if _, ok := dev.PollCompletion(); ok {
						got++
					} else {
						p.Sleep(10 * time.Microsecond)
					}
				}
				done += 64
			}
			eng.Shutdown()
		})
		return timed(eng)
	}),
	nsProbe("netsw.probe_forward_ns", func(n int) time.Duration {
		eng := sim.New()
		sw := netsw.New(eng, netsw.DefaultParams())
		var sink countSink
		macA, macB := netsw.MAC{2, 0, 0, 0, 0, 1}, netsw.MAC{2, 0, 0, 0, 0, 2}
		pa := sw.AttachPort("a", &sink)
		pb := sw.AttachPort("b", &sink)
		pb.Send(&netsw.Frame{Src: macB, Dst: netsw.Broadcast, Bytes: make([]byte, 64)}) // teaches the switch where B is
		f := &netsw.Frame{Src: macA, Dst: macB, Bytes: make([]byte, 128)}
		eng.Go("sender", func(p *sim.Proc) {
			p.Sleep(10 * time.Microsecond)
			for i := 0; i < n; i++ {
				pa.Send(f)
				p.Sleep(20 * time.Nanosecond) // above the 128 B serialization time: no queue builds
			}
		})
		return timed(eng)
	}),
	nsProbe("netstack.probe_udp_ns", func(n int) time.Duration {
		// Two stacks wired back to back; an op is one datagram sent,
		// carried and received (half an echo round trip).
		eng := sim.New()
		wa, wb := &wire{}, &wire{}
		macA, macB := netsw.MAC{2, 0, 0, 0, 0, 1}, netsw.MAC{2, 0, 0, 0, 0, 2}
		ipA, ipB := netstack.IPv4(10, 0, 0, 1), netstack.IPv4(10, 0, 0, 2)
		sa := netstack.NewStack(eng, "a", ipA, func() netsw.MAC { return macA }, wa, netstack.DefaultConfig())
		sb := netstack.NewStack(eng, "b", ipB, func() netsw.MAC { return macB }, wb, netstack.DefaultConfig())
		wa.peer, wb.peer = sb, sa
		sa.Start()
		sb.Start()
		eng.Go("echo", echoServer(&rep{}, sb))
		eng.Go("client", func(p *sim.Proc) {
			conn, err := sa.ListenUDP(0)
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 64)
			for i := 0; i < n/2; i++ {
				if conn.SendTo(p, ipB, echoPort, buf) != nil {
					panic("probe: UDP send refused")
				}
				conn.Recv(p)
			}
			eng.Shutdown()
		})
		return timed(eng)
	}),
	{
		// One host.New with the default 1 GiB of modelled DDR, as every pod
		// host is built: time and bytes allocated.
		metrics: []metricDef{
			{name: "host.probe_new_us", unit: "us", better: "lower"},
			{name: "host.probe_new_kb", unit: "kB", better: "lower"},
		},
		per: 1e3,
		run: func(n int) []float64 {
			eng := sim.New()
			pool := cxl.NewPool(eng, 1<<26, cxl.DefaultParams())
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				host.New(eng, i, "h", pool, host.DefaultConfig())
			}
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			return []float64{float64(d), float64(ms1.TotalAlloc - ms0.TotalAlloc)}
		},
	},
	{
		// Snapshot of a registry the size of a 32-host pod's (~4 000
		// counters, ~250 histograms).
		metrics: []metricDef{{name: "obs.probe_snapshot_us", unit: "us", better: "lower"}},
		per:     1e3,
		run: func(n int) []float64 {
			reg := obs.New()
			for i := 0; i < 4000; i++ {
				c := reg.NewCounter("probe/c" + strconv.Itoa(i))
				c.Add(int64(i))
			}
			for i := 0; i < 250; i++ {
				h := &metrics.Histogram{}
				for j := 1; j <= 100; j++ {
					h.Record(time.Duration(j) * time.Microsecond)
				}
				reg.Histogram("probe/h"+strconv.Itoa(i), h)
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				reg.Snapshot(0)
			}
			return []float64{float64(time.Since(t0))}
		},
	},
	nsProbe("bufpool.probe_getput_ns", func(n int) time.Duration {
		pool := bufpool.New()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pool.Put(pool.Get(1500))
		}
		return time.Since(t0)
	}),
}

func cacheRig() (*sim.Engine, *cxl.Port, *cache.Cache) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<26, cxl.DefaultParams())
	port := pool.AttachPort("probe")
	return eng, port, cache.New(eng, port, cache.DefaultParams())
}

func chanRig() (*sim.Engine, *msgchan.Sender, *msgchan.Receiver) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<24, cxl.DefaultParams())
	cfg := msgchan.DefaultConfig()
	region, err := pool.Alloc(msgchan.RegionBytes(cfg))
	if err != nil {
		panic(err)
	}
	ch, err := msgchan.New(region, cfg)
	if err != nil {
		panic(err)
	}
	rxCache := cache.New(eng, pool.AttachPort("rx"), cache.DefaultParams())
	return eng, msgchan.NewSender(ch, pool.AttachPort("tx"), cache.DefaultParams()), msgchan.NewReceiver(ch, rxCache)
}

func nicRig() (*sim.Engine, *cxl.Pool, *nic.NIC) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<22, cxl.DefaultParams())
	dev := nic.New(eng, "nic", netsw.MAC{2, 0, 0, 0, 0, 1}, pool.AttachPort("nic-dma"), netstack.FlowKey, nic.DefaultParams())
	dev.Start()
	return eng, pool, dev
}

// idleLoop is an engine loop that only polls its links.
type idleLoop struct{ links *core.LinkSet }

func (l *idleLoop) LoopName() string { return "probe/idle" }
func (l *idleLoop) PollOnce(p *sim.Proc) int {
	return l.links.PollEach(p, 32, func(*sim.Proc, *core.Link, []byte) {})
}

// countSink is a switch port's device that only counts what it is handed.
type countSink struct{ n int }

func (s *countSink) DeliverFrame(*netsw.Frame) { s.n++ }

// wire is a netstack endpoint cabled straight to another stack.
type wire struct{ peer *netstack.Stack }

func (w *wire) Transmit(_ *sim.Proc, frame []byte) { w.peer.DeliverFrame(frame) }

// probeDefs lists the probe metrics in reporting order.
func probeDefs() []metricDef {
	var defs []metricDef
	for _, pr := range probes {
		defs = append(defs, pr.metrics...)
	}
	return defs
}

// allPerLayer is every metric a traced run reports.
func allPerLayer() []metricDef { return append(append([]metricDef(nil), perLayer...), probeDefs()...) }

// runProbes runs every probe three times within roughly budget and returns
// the median per-call cost of each metric.
func runProbes(budget time.Duration) map[string]float64 {
	slice := float64(budget) / float64(len(probes)*5) // three timed runs plus sizing
	out := map[string]float64{}
	for _, pr := range probes {
		// Grow n until a run is long enough to extrapolate from, then size
		// it so that one run fills a slice.
		n := 256
		for {
			ns := pr.run(n)[0]
			if ns >= slice/8 || n >= 1<<24 {
				n = int(float64(n) * slice / ns)
				break
			}
			n *= 8
		}
		if n < 16 {
			n = 16
		}
		runs := make([][]float64, len(pr.metrics))
		for i := 0; i < 3; i++ {
			for m, total := range pr.run(n) {
				runs[m] = append(runs[m], total/float64(n)/pr.per)
			}
		}
		for m, def := range pr.metrics {
			sort.Float64s(runs[m])
			out[def.name] = runs[m][1]
		}
	}
	return out
}
