package experiments

import (
	"time"

	"oasis"
	"oasis/internal/instance"
	"oasis/internal/metrics"
	"oasis/internal/netstack"
)

// Mode selects the datapath configuration under test (§5.1, Fig. 11).
type Mode int

const (
	// ModeOasis: instance on host A, NIC on host B, everything over the
	// CXL pool — the full Oasis datapath.
	ModeOasis Mode = iota
	// ModeBaseline: Junction-style local datapath — instance and NIC on the
	// same host, IPC rings and I/O buffers in DDR-latency memory.
	ModeBaseline
	// ModeBaselineCXLBufs: Fig. 11's middle configuration — local NIC and
	// DDR-latency rings, but I/O buffer areas at CXL latency.
	ModeBaselineCXLBufs
)

func (m Mode) String() string {
	switch m {
	case ModeOasis:
		return "Oasis"
	case ModeBaseline:
		return "Baseline"
	case ModeBaselineCXLBufs:
		return "Baseline+CXL-buffers"
	default:
		return "?"
	}
}

// netPod is the standard single-instance evaluation topology, run once for
// a report.
type netPod struct {
	r      *Report
	pod    *oasis.Pod
	inst   *oasis.Instance
	nic    *oasis.NIC
	client *oasis.Client
}

var (
	serverIP = oasis.IP(10, 0, 0, 10)
	clientIP = oasis.IP(10, 0, 99, 1)
)

// buildNetPod assembles the §5.1 topology for a mode.
func buildNetPod(r *Report, mode Mode) *netPod { return buildNetPodCfg(r, mode, nil) }

// buildNetPodCfg is buildNetPod with a config hook (e.g. Table 3 disables
// the idle-poll backoff for a faithful idle-bandwidth measurement).
func buildNetPodCfg(r *Report, mode Mode, mutate func(*oasis.Config)) *netPod {
	cfg := oasis.DefaultConfig()
	cfg.NoAllocator = true
	switch mode {
	case ModeBaseline:
		// The whole "pool" is host shared memory at DDR latency: Junction's
		// IPC rings and packet buffers.
		cfg.CXL.LoadLatency = 90 * time.Nanosecond
		cfg.CXL.WriteLatency = 40 * time.Nanosecond
		cfg.CXL.PortBandwidth = 64e9
	case ModeBaselineCXLBufs:
		// Buffers at CXL latency: the pool default. The rings need no
		// override — the local driver's instance rings are host IPC, priced
		// by Host.IPCCost, and this pod builds no message channel.
	}
	if mutate != nil {
		mutate(&cfg)
	}
	pod := oasis.NewPod(cfg)
	e := &netPod{r: r, pod: pod}
	hostA := pod.AddHost()
	if mode == ModeOasis {
		nicHost := pod.AddHost()
		e.nic = pod.AddNIC(nicHost, false)
		e.inst = pod.AddInstance(hostA, serverIP)
	} else {
		// Baseline: Junction-style local driver, one intermediary core.
		e.nic = pod.AddLocalNIC(hostA)
		e.inst = pod.AddLocalInstance(hostA, serverIP)
	}
	e.client = pod.AddClient(clientIP)
	pod.Start()
	if mode == ModeOasis {
		e.inst.Assign(e.nic.ID, 0)
	}
	return e
}

// run runs the pod until d and adds its engine's costs to the report.
func (e *netPod) run(d oasis.Duration) {
	e.pod.Run(d)
	e.r.count(e.pod.Eng)
}

// startUDPEcho runs the echo server app on the instance.
func (e *netPod) startUDPEcho(port uint16) {
	e.pod.Go("echo-server", func(p *oasis.Proc) { instance.Echo(p, e.inst.Stack, port) })
}

// udpEchoLoad drives fixed-size echoes at a fixed offered rate from the
// client for the window and records RTTs. Returns sent/received counts.
func (e *netPod) udpEchoLoad(payload int, rate float64, warmup, window oasis.Duration, hist *metrics.Histogram) (sent, recv int) {
	e.pod.Go("client", func(p *oasis.Proc) {
		conn, err := e.client.Stack.ListenUDP(0)
		if err != nil {
			return
		}
		buf := make([]byte, payload)
		interval := oasis.Duration(float64(time.Second) / rate)
		p.Sleep(2 * time.Millisecond) // registration / ARP warmup
		start := p.Now()
		next := start
		for p.Now()-start < warmup+window {
			if wait := next - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
			next += interval
			t0 := p.Now()
			if conn.SendTo(p, serverIP, 7, buf) != nil {
				continue
			}
			inWindow := t0-start >= warmup
			if inWindow {
				sent++
			}
			if _, ok := conn.RecvTimeout(p, 10*time.Millisecond); !ok {
				continue
			}
			if inWindow {
				recv++
				hist.Record(p.Now() - t0)
			}
		}
		e.pod.Shutdown()
	})
	e.run(time.Minute)
	return sent, recv
}

// udpPayload converts the paper's nominal packet size to a UDP payload
// that fits one MTU frame (the paper's "1500 B packets" are full frames).
func udpPayload(nominal int) int {
	if max := 1500 - 42; nominal > max { // Eth+IPv4+UDP headers
		return max
	}
	return nominal
}

// udpStreamLoad drives an open-loop UDP stream (no per-packet wait): a
// sender paces requests at the offered rate while a drain process counts
// echoes. Used for the saturating Table 3 rows. Returns sent and echoed
// counts within the window.
func (e *netPod) udpStreamLoad(payload int, rate float64, window oasis.Duration) (sent, recv int) {
	warm := 2 * time.Millisecond
	e.pod.Go("stream-client", func(p *oasis.Proc) {
		conn, err := e.client.Stack.ListenUDP(0)
		if err != nil {
			return
		}
		// Drain echoes on a separate process so sending never blocks.
		e.pod.Go("stream-drain", func(p *oasis.Proc) {
			for {
				conn.Recv(p)
				recv++
			}
		})
		buf := make([]byte, payload)
		interval := oasis.Duration(float64(time.Second) / rate)
		p.Sleep(warm)
		start := p.Now()
		next := start
		for p.Now()-start < window {
			if wait := next - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
			next += interval
			if conn.SendTo(p, serverIP, 7, buf) == nil {
				sent++
			}
			if next < p.Now() {
				next = p.Now()
			}
		}
		e.pod.Shutdown()
	})
	e.run(time.Minute)
	return sent, recv
}

// --- request/response application models (Fig. 8, Fig. 9) ---

// appModel captures one of the paper's server applications by its service
// time and message sizes; the latency *overhead* Oasis adds is what the
// experiment isolates, the model supplies the app-specific floor.
type appModel struct {
	Name     string
	Service  oasis.Duration
	ReqSize  int
	RespSize int
}

// webApps are the four §5.1 applications with representative service times
// for a single-threaded request loop.
func webApps() []appModel {
	return []appModel{
		{"python-http", 150 * time.Microsecond, 200, 2048},
		{"rocket", 25 * time.Microsecond, 200, 512},
		{"nginx", 15 * time.Microsecond, 200, 1024},
		{"tomcat", 60 * time.Microsecond, 200, 4096},
	}
}

// memcachedApp models the §5.1 memcached run: tiny service time, small
// GET responses, TCP transport.
func memcachedApp() appModel {
	return appModel{"memcached", 3 * time.Microsecond, 40, 120}
}

// serve runs the application's request/response server (instance.ServeRR)
// on a stack of pod's.
func (app appModel) serve(pod *oasis.Pod, st *netstack.Stack, port uint16) {
	if err := instance.ServeRR(pod.Eng, st, port, instance.RRConfig{Service: app.Service, RespSize: app.RespSize}); err != nil {
		panic(err)
	}
}

// runRRClients drives conc closed-loop persistent TCP connections for the
// window, recording per-request latency. Returns completed request count.
func (e *netPod) runRRClients(port uint16, app appModel, conc int, warmup, window oasis.Duration, hist *metrics.Histogram) int {
	done := 0
	finished := 0
	for c := 0; c < conc; c++ {
		e.pod.Go("rr-client", func(p *oasis.Proc) {
			defer func() {
				finished++
				if finished == conc {
					e.pod.Shutdown()
				}
			}()
			p.Sleep(2 * time.Millisecond)
			conn, err := e.client.Stack.DialTCP(p, serverIP, port)
			if err != nil {
				return
			}
			start := p.Now()
			for p.Now()-start < warmup+window {
				t0 := p.Now()
				if _, err := instance.RRCall(p, conn, app.ReqSize); err != nil {
					return
				}
				if t0-start >= warmup {
					hist.Record(p.Now() - t0)
					done++
				}
			}
		})
	}
	e.run(time.Minute)
	return done
}
