package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"oasis"
	"oasis/internal/cxl"
)

// echo_ladder: one pod, instance on host 0, pooled NIC on host 1, one raw
// client on the ToR switch, no allocator. Open-loop UDP echo at four fixed
// rates, each on a fresh pod so an overloaded rung's backlog cannot leak
// into the next.
var ladderKpps = []int{300, 600, 750, 900}

const (
	ladderRefKpps  = 600 // the rung v_p50_us / v_p99_us / failed are reported at
	ladderSmall    = 75  // UDP payload bytes, 75% of requests
	ladderLarge    = 1458
	ladderLimitP99 = 100 * time.Microsecond
	ladderFailFrac = 0.001
)

var (
	ladderServerIP = oasis.IP(10, 0, 0, 10)
	ladderClientIP = oasis.IP(10, 0, 99, 1)
)

// datapath selects what the instance is attached to (Fig. 11's three
// configurations). Only the traced rep's model runs use the baselines.
type datapath int

const (
	pathOasis       datapath = iota // NIC on another host, everything over the CXL pool
	pathLocal                       // Junction-style local NIC, rings and buffers at DDR latency
	pathLocalCXLBuf                 // local NIC, DDR-latency rings, I/O buffers at CXL latency
)

// rung is one fixed-rate open-loop run on its own pod.
type rung struct {
	kpps   int
	window time.Duration
	pod    *oasis.Pod
	inst   *oasis.Instance
	nic    *oasis.NIC
	client *oasis.Client

	// Generator ledger, indexed by request number. Requests are timed from
	// when they were due, not from when the generator got round to them.
	due       []time.Duration
	size      []uint16
	done      []bool
	attempted int64
	lat       []time.Duration
	late      []time.Duration // send time − due time
	corrupt   int64
	windowEnd time.Duration
	inWindow  int // verified replies that arrived before the window closed
}

func buildRung(path datapath, kpps int, window time.Duration) *rung {
	cfg := oasis.DefaultConfig()
	cfg.NoAllocator = true
	switch path {
	case pathLocal:
		cfg.CXL.LoadLatency = 90 * time.Nanosecond
		cfg.CXL.WriteLatency = 40 * time.Nanosecond
		cfg.CXL.PortBandwidth = 64e9
	case pathLocalCXLBuf:
		cfg.Engine.Chan.MemClass = cxl.LocalClass()
	}
	g := &rung{kpps: kpps, window: window, pod: oasis.NewPod(cfg)}
	hostA := g.pod.AddHost()
	if path == pathOasis {
		g.nic = g.pod.AddNIC(g.pod.AddHost(), false)
		g.inst = g.pod.AddInstance(hostA, ladderServerIP)
	} else {
		g.nic = g.pod.AddLocalNIC(hostA)
		g.inst = g.pod.AddLocalInstance(hostA, ladderServerIP)
	}
	g.client = g.pod.AddClient(ladderClientIP)
	return g
}

func (g *rung) start() {
	g.pod.Start()
	if g.inst.IsPooled() {
		if err := g.inst.Assign(g.nic.ID, 0); err != nil {
			panic(err)
		}
	}
}

// Virtual time a rung runs for: settle, one unmeasured echo, the window,
// then a tail in which late replies may still arrive.
const (
	ladderSettle = 100 * time.Microsecond
	ladderPing   = 100 * time.Microsecond
	ladderTail   = 500 * time.Microsecond
)

func (g *rung) deadline() time.Duration {
	return ladderSettle + ladderPing + g.window + ladderTail
}

// spawn starts the echo server, the paced sender and the drain process.
func (g *rung) spawn(r *rep) {
	n := int(float64(g.kpps) * 1e3 * g.window.Seconds())
	g.due = make([]time.Duration, n)
	g.size = make([]uint16, n)
	g.done = make([]bool, n)
	interval := float64(time.Second) / (float64(g.kpps) * 1e3)
	// The size mix is one stream for the whole ladder: rung k sees a prefix
	// of the same sequence, so rungs differ by rate alone.
	gen := newRNG(r.seed, 0)
	for i := range g.size {
		g.size[i] = ladderSmall
		if gen.intn(4) == 0 {
			g.size[i] = ladderLarge
		}
	}
	g.pod.Go("echo-server", echoServer(r, g.inst.Stack))
	g.pod.Go("sender", func(p *oasis.Proc) {
		conn, err := g.client.Stack.ListenUDP(0)
		if err != nil {
			return
		}
		buf := make([]byte, ladderLarge)
		p.Sleep(ladderSettle)
		echoOnce(p, conn, ladderServerIP, buf[:ladderSmall], r.seed, 1<<63, ladderPing) // unmeasured: resolves ARP
		// Replies are drained by their own process so that sending never
		// waits for receiving.
		g.pod.Go("drain", func(p *oasis.Proc) {
			want := make([]byte, ladderLarge)
			for {
				dg := conn.Recv(p)
				if len(dg.Data) < 8 {
					g.corrupt++
					continue
				}
				i := binary.LittleEndian.Uint64(dg.Data)
				if i >= uint64(n) || g.done[i] {
					continue // the warm-up echo, or a duplicate
				}
				fillPayload(want[:g.size[i]], r.seed, i)
				if !bytes.Equal(dg.Data, want[:g.size[i]]) {
					g.corrupt++
					continue
				}
				g.done[i] = true
				g.lat = append(g.lat, p.Now()-g.due[i])
				if p.Now() <= g.windowEnd {
					g.inWindow++
				}
			}
		})
		start := p.Now()
		g.windowEnd = start + g.window
		for i := 0; i < n; i++ {
			g.due[i] = start + time.Duration(float64(i)*interval)
			if wait := g.due[i] - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
			g.late = append(g.late, p.Now()-g.due[i])
			g.attempted++
			req := buf[:g.size[i]]
			fillPayload(req, r.seed, uint64(i))
			_ = conn.SendTo(p, ladderServerIP, echoPort, req) // a refused send stays !done: failed
		}
	})
}

func (g *rung) sortLat() {
	sort.Slice(g.lat, func(i, j int) bool { return g.lat[i] < g.lat[j] })
	sort.Slice(g.late, func(i, j int) bool { return g.late[i] < g.late[j] })
}

func (g *rung) failFrac() float64 {
	if g.attempted == 0 {
		return 1
	}
	return float64(g.attempted-int64(len(g.lat))) / float64(g.attempted)
}

// meetsLimit is the ladder's service-level test: p99 from due time within
// the limit and (almost) nothing lost.
func (g *rung) meetsLimit() bool {
	return g.failFrac() <= ladderFailFrac && quantileUS(g.lat, 0.99) <= float64(ladderLimitP99)/1e3
}

func (g *rung) kops() float64 { return float64(len(g.lat)) / g.window.Seconds() / 1e3 }

func runEchoLadder(r *rep) outcome {
	var out outcome
	window := r.pick(10*time.Millisecond, 400*time.Microsecond)
	rungs := make([]*rung, len(ladderKpps))
	r.phase(phaseBuild, func() {
		for i, kpps := range ladderKpps {
			rungs[i] = buildRung(pathOasis, kpps, window)
		}
	})
	r.phase(phaseStart, func() {
		for _, g := range rungs {
			g.start()
		}
	})
	r.phase(phaseSpawn, func() {
		for _, g := range rungs {
			g.spawn(r)
		}
	})
	r.phase(phaseRun, func() {
		for _, g := range rungs {
			g.pod.Run(g.deadline())
		}
	})
	r.phase(phaseSnapshot, func() {
		for _, g := range rungs {
			out.snaps = append(out.snaps, g.pod.Stats())
		}
	})
	r.phase(phaseShutdown, func() {
		for _, g := range rungs {
			g.pod.Shutdown()
		}
	})

	out.extra = map[string]float64{}
	var worstLate float64
	for _, g := range rungs {
		g.sortLat()
		if g.corrupt > 0 {
			out.errorf("%d kpps rung: %d echo replies differ from the request", g.kpps, g.corrupt)
		}
		late := quantileUS(g.late, 0.99)
		if late > worstLate {
			worstLate = late
		}
		out.extra[fmt.Sprintf("model.r%d_p50_us", g.kpps)] = quantileUS(g.lat, 0.50)
		out.extra[fmt.Sprintf("model.r%d_p99_us", g.kpps)] = quantileUS(g.lat, 0.99)
		out.extra[fmt.Sprintf("model.r%d_gen_late_p99_us", g.kpps)] = late
		if g.kpps == ladderRefKpps {
			out.attempted, out.lat, out.window = g.attempted, g.lat, g.window
		}
		if g.meetsLimit() {
			out.goodput = g.kops() // rungs ascend: the last one meeting the limit wins
		}
	}
	if out.goodput == 0 {
		out.errorf("no rung meets the latency limit (p99 <= %v, fail_frac <= %g)", ladderLimitP99, ladderFailFrac)
	}
	// What the top rung sustained while load was still arriving; the backlog
	// it drains in the tail does not count.
	top := rungs[len(rungs)-1]
	out.extra["model.capacity_kops"] = float64(top.inWindow) / top.window.Seconds() / 1e3
	out.extra["model.gen_late_p99_us"] = worstLate
	if r.traced {
		ladderModel(r, rungs[0], out.extra)
	}
	return out
}

// ladderModel reruns the lowest rung's inputs on the two baseline datapaths
// (virtual time only; host time is not measured) and differences the
// medians, as Fig. 11 does: local NIC → +I/O buffers in CXL → full Oasis.
func ladderModel(r *rep, oasisRung *rung, extra map[string]float64) {
	p50 := func(path datapath) float64 {
		g := buildRung(path, oasisRung.kpps, oasisRung.window)
		g.start()
		g.spawn(r)
		g.pod.Run(g.deadline())
		g.pod.Shutdown()
		g.sortLat()
		return quantileUS(g.lat, 0.50)
	}
	local, cxlBuf, full := p50(pathLocal), p50(pathLocalCXLBuf), quantileUS(oasisRung.lat, 0.50)
	extra["model.overhead_p50_us"] = full - local
	extra["model.bufs_cxl_us"] = cxlBuf - local
	extra["model.msgpass_us"] = full - cxlBuf
}
