package experiments

import (
	"encoding/binary"
	"time"

	"oasis"
	"oasis/internal/instance"
	"oasis/internal/metrics"
	"oasis/internal/sim"
)

// timeQueue is a FIFO of send timestamps shared between a pipelined sender
// and its reader process. The pop timeout is derived from the run length at
// construction: a hardcoded timeout shorter than the span would make
// readers give up mid-run at full scale, and one longer would leave scaled
// CI runs idling after shutdown.
type timeQueue struct {
	q       *sim.Queue[oasis.Duration]
	timeout oasis.Duration
}

func newTimeQueue(pod *oasis.Pod, timeout oasis.Duration) *timeQueue {
	return &timeQueue{q: sim.NewQueue[oasis.Duration](pod.Eng), timeout: timeout}
}

func (t *timeQueue) push(v oasis.Duration) { t.q.Push(v) }

func (t *timeQueue) pop(p *oasis.Proc) (oasis.Duration, bool) {
	return t.q.PopTimeout(p, t.timeout)
}

// failoverPod builds the §5.3 topology: instance on host A, its NIC on
// host B, a reserved backup NIC on host C, with the pod-wide allocator
// orchestrating. It runs once for a report.
type failoverPod struct {
	r      *Report
	pod    *oasis.Pod
	inst   *oasis.Instance
	nic    *oasis.NIC
	backup *oasis.NIC
	client *oasis.Client
}

// failoverIdleBackoff is the failover pods' idle backoff. Failover timing
// is millisecond-scale, and a generous backoff keeps the 10-second virtual
// runs fast without moving an outage or a recovery time. It does move
// fig14's microsecond-scale latencies: four lockstep clients send every
// 400 µs into driver cores that sleep up to this long when idle, so the
// pre-failure P50/P99 carry the phase of that sleep, not the datapath's
// cost — 47.4/62.2 µs at scale 0.2, where the default 1 µs backoff reads
// 13.0/14.3 µs (EXPERIMENTS.md, deviation 6).
const failoverIdleBackoff = 20 * time.Microsecond

func buildFailoverPod(r *Report) *failoverPod {
	cfg := oasis.DefaultConfig()
	cfg.Engine.IdleBackoff = failoverIdleBackoff
	pod := oasis.NewPod(cfg)
	hostA := pod.AddHost()
	hostB := pod.AddHost()
	hostC := pod.AddHost()
	f := &failoverPod{r: r, pod: pod}
	f.nic = pod.AddNIC(hostB, false)
	f.backup = pod.AddNIC(hostC, true)
	f.inst = pod.AddInstance(hostA, serverIP)
	f.client = pod.AddClient(clientIP)
	pod.Start()
	f.inst.RequestAllocation()
	return f
}

// run runs the pod until d and adds its engine's costs to the report.
func (f *failoverPod) run(d oasis.Duration) {
	f.pod.Run(d)
	f.r.count(f.pod.Eng)
}

// Fig13 reproduces Figure 13: packet loss during a NIC failure with a 10 s
// UDP echo stream; the switch port is disabled at t = 5 s.
func Fig13(scale float64) *Report {
	r := newReport("fig13", "UDP packet loss during NIC failover (10 s run, failure at 5 s)")
	span := time.Duration(float64(10*time.Second) * scale)
	if span < time.Second {
		span = time.Second
	}
	failAt := span / 2
	f := buildFailoverPod(r)
	f.pod.Go("echo-server", func(p *oasis.Proc) { instance.Echo(p, f.inst.Stack, 7) })
	f.pod.Eng.At(failAt, func() { f.pod.FailNICPort(f.nic.ID) })

	var probes probeStream // 1 kHz
	f.pod.Go("client", func(p *oasis.Proc) {
		probes.run(p, f.client.Stack, serverIP, "probe-probe-probe", time.Millisecond, span)
		f.pod.Shutdown()
	})
	f.run(span + time.Second)

	sent, lost := probes.sent, len(probes.lost)
	losses := metrics.NewSeries(10 * time.Millisecond) // Fig. 13a bins
	var firstLoss, lastLoss, outage oasis.Duration
	for _, at := range probes.lost {
		losses.Add(at, 1)
	}
	if lost > 0 {
		firstLoss, lastLoss = probes.lost[0], probes.lost[lost-1]
	}
	if lastLoss > firstLoss {
		outage = lastLoss - firstLoss + time.Millisecond
	}
	r.addf("probes sent: %d, lost: %d (%.2f%%)", sent, lost, 100*float64(lost)/float64(sent))
	r.addf("failure injected at %v; loss window [%v, %v] -> interruption ≈ %v",
		failAt, firstLoss, lastLoss, outage)
	r.addf("loss per 10 ms bucket around the failure:")
	lo := int(failAt/(10*time.Millisecond)) - 2
	for i := lo; i < lo+12 && i < losses.Len()+2; i++ {
		if i < 0 {
			continue
		}
		r.addf("  t=%6v: %3.0f lost", time.Duration(i)*10*time.Millisecond, losses.At(i))
	}
	r.Values["outage_ms"] = float64(outage) / 1e6
	r.Values["lost"] = float64(lost)
	r.Values["failovers"] = float64(f.pod.Alloc.Failovers)
	r.addf("paper: total failure time ≈ 38 ms, then service resumes on the backup NIC")
	return r
}

// Fig14 reproduces Figure 14: memcached (TCP) P99 latency through the same
// failure; lost segments retransmit after failover, briefly inflating P99.
func Fig14(scale float64) *Report {
	r := newReport("fig14", "memcached P99 latency through NIC failover (TCP)")
	span := time.Duration(float64(10*time.Second) * scale)
	if span < 2*time.Second {
		span = 2 * time.Second
	}
	failAt := span / 2
	f := buildFailoverPod(r)
	app := memcachedApp()
	app.serve(f.pod, f.inst.Stack, 11211) // the RR server is the memcached model
	f.pod.Eng.At(failAt, func() { f.pod.FailNICPort(f.nic.ID) })

	// Per-100ms-window latency collection (Fig. 14's x-axis).
	winSize := 100 * time.Millisecond
	nWins := int(span/winSize) + 1
	wins := make([]*metrics.Histogram, nWins)
	for i := range wins {
		wins[i] = &metrics.Histogram{}
	}
	// Open-loop pipelined clients: requests are issued at a fixed rate
	// regardless of responses, so requests sent during the interruption
	// accumulate in the TCP stream and surface as the post-failover P99
	// spike the paper shows. A paired reader records per-request latency
	// (responses are FIFO on each connection).
	conc := 4
	perConnRate := 2500.0 // 10 kreq/s total
	running := conc
	for c := 0; c < conc; c++ {
		f.pod.Go("mc-client", func(p *oasis.Proc) {
			defer func() {
				running--
				if running == 0 {
					f.pod.Shutdown()
				}
			}()
			p.Sleep(5 * time.Millisecond)
			conn, err := f.client.Stack.DialTCP(p, serverIP, 11211)
			if err != nil {
				return
			}
			sendTimes := newTimeQueue(f.pod, span+2*time.Second)
			f.pod.Go("mc-reader", func(p *oasis.Proc) {
				for {
					if _, err := conn.Read(p, 4+app.RespSize); err != nil {
						return
					}
					t0, ok := sendTimes.pop(p)
					if !ok {
						return
					}
					w := int(t0 / winSize)
					if w < nWins {
						wins[w].Record(p.Now() - t0)
					}
				}
			})
			req := make([]byte, 4+app.ReqSize)
			binary.LittleEndian.PutUint32(req, uint32(app.ReqSize))
			interval := oasis.Duration(float64(time.Second) / perConnRate)
			next := p.Now()
			for p.Now() < span {
				if wait := next - p.Now(); wait > 0 {
					p.Sleep(wait)
				}
				next += interval
				sendTimes.push(p.Now())
				if conn.Send(p, req) != nil {
					return
				}
			}
			p.Sleep(500 * time.Millisecond) // drain stragglers
		})
	}
	f.run(span + 2*time.Second)

	// Baseline P99 from the windows before the failure.
	var pre metrics.Histogram
	failWin := int(failAt / winSize)
	for i := 2; i < failWin-1; i++ {
		pre.Merge(wins[i])
	}
	baseP99 := pre.Percentile(99)
	r.addf("pre-failure P99 = %v (includes the phase of the driver cores' %v idle backoff)", baseP99, failoverIdleBackoff)
	recoveredAt := oasis.Duration(0)
	r.addf("P99 per 100 ms window around the failure:")
	for i := failWin - 2; i < nWins && i < failWin+25; i++ {
		if i < 0 || wins[i].Count() == 0 {
			continue
		}
		p99 := wins[i].Percentile(99)
		r.addf("  t=%6v: p99=%9v  (n=%d)", time.Duration(i)*winSize, p99, wins[i].Count())
		if i > failWin && recoveredAt == 0 && p99 < 3*baseP99 {
			recoveredAt = time.Duration(i) * winSize
		}
	}
	if recoveredAt > 0 {
		r.Values["recovery_ms"] = float64(recoveredAt-failAt) / 1e6
		r.addf("P99 recovered to <3x baseline ≈ %v after the failure", recoveredAt-failAt)
	} else {
		r.Values["recovery_ms"] = -1
		r.addf("P99 did not recover within the observed windows")
	}
	r.Values["base_p99_us"] = float64(baseP99) / 1e3
	r.addf("paper: P99 recovers within ~133 ms — longer than UDP because retransmitted")
	r.addf("       segments accumulate during the interruption and drain afterwards")
	return r
}
