package experiments

import (
	"fmt"
	"runtime"
	"time"

	"oasis"
	"oasis/internal/instance"
	"oasis/internal/strand"
)

// racksweepSim runs the simulated rack (Part 1) into r: 8 pods x 64 hosts
// (512 hosts) on one virtual clock. Instances are routed by the cluster's
// least-loaded placement, a deliberate hot-spot is piled onto pod 0, and the
// rebalancer migrates instances off it (epoch-fenced, §3.5 lifted to rack
// scope) while three echo flows per pod run throughout. The run is
// fixed-length: every process either finishes before the deadline or is
// unwound by the post-run Shutdown, so the virtual timeline — and with it
// every counter — is identical whether the pods execute serially on one
// partition or in parallel on one each (same modeled topology, different
// execution).
func racksweepSim(r *Report, scale float64, partitioned bool) {
	const (
		pods        = 8
		hostsPerPod = 64 // 512 hosts total
		nicsPerPod  = 3
		instPerPod  = 6
		flowsPerPod = 3
		hotspot     = 6 // extra instances piled onto pod 0
	)
	window := oasis.Duration(float64(20*time.Millisecond) * scale)
	if window < 2*time.Millisecond {
		window = 2 * time.Millisecond
	}
	// Client warmup (2 ms) + measurement window + the last RecvTimeout tail
	// (5 ms) + margin. Nobody shuts the cluster down mid-run: a variable-
	// time Shutdown from inside one partition would not be a single global
	// instant in partitioned mode.
	deadline := window + 8*time.Millisecond

	c := oasis.NewCluster()
	if partitioned {
		c = oasis.NewPartitionedCluster()
	}
	clients := make([]*oasis.Client, pods*flowsPerPod)
	for i := 0; i < pods; i++ {
		p := c.AddPod(oasis.DefaultConfig())
		for h := 0; h < hostsPerPod; h++ {
			p.AddHost()
		}
		for n := 0; n < nicsPerPod; n++ {
			// Spread device backends across the pod's tail hosts.
			p.AddNIC(p.Hosts[hostsPerPod-1-n], false)
		}
		p.AddSSD(p.Hosts[hostsPerPod-1], 1<<16)
		for f := 0; f < flowsPerPod; f++ {
			clients[i*flowsPerPod+f] = p.AddClient(oasis.IP(10, byte(i), 99, byte(1+f)))
		}
	}
	c.Start()

	// Balanced placement through the cluster router (post-Start: exercises
	// the incremental wiring path at rack scale).
	for i := 0; i < pods*instPerPod; i++ {
		c.PlaceInstance(oasis.IP(10, 200, byte(i/200), byte(10+i%200)))
	}
	perPod := func() []int {
		out := make([]int, pods)
		for i := 0; i < pods; i++ {
			out[i] = c.Pod(i).Instances()
		}
		return out
	}
	balanced := perPod()

	// Hot-spot: bypass the router and pile extra instances onto pod 0.
	p0 := c.Pod(0)
	for i := 0; i < hotspot; i++ {
		p0.AddInstance(p0.Hosts[i%4], oasis.IP(10, 201, 0, byte(10+i)))
	}
	skewed := perPod()

	// Echo flows per pod, running across the rebalance. These are pod-local
	// (client i talks to an instance in its own pod), so they spawn with
	// GoPod — the workload partitioned execution runs in parallel. The
	// rebalancer only ever migrates a pod's newest placement, so the flow
	// instances (the oldest) never move mid-flow.
	echoes := make([]int, pods*flowsPerPod)
	for i := 0; i < pods; i++ {
		pod := c.Pod(i)
		for f := 0; f < flowsPerPod; f++ {
			i, f := i, f
			inst := pod.InstanceAt(f)
			inst.RequestAllocation()
			client := clients[i*flowsPerPod+f]
			c.GoPod(i, fmt.Sprintf("rack-echo%d-%d", i, f), func(p *oasis.Proc) {
				if !inst.WaitReady(p, 50*time.Millisecond) {
					return
				}
				instance.Echo(p, inst.Stack, 7)
			})
			c.GoPod(i, fmt.Sprintf("rack-client%d-%d", i, f), func(p *oasis.Proc) {
				conn, err := client.Stack.ListenUDP(0)
				if err != nil {
					return
				}
				buf := make([]byte, 64)
				p.Sleep(2 * time.Millisecond)
				start := p.Now()
				for p.Now()-start < window {
					if conn.SendTo(p, inst.IPAddr(), 7, buf) != nil {
						continue
					}
					if _, ok := conn.RecvTimeout(p, 5*time.Millisecond); ok {
						echoes[i*flowsPerPod+f]++
					}
					p.Sleep(20 * time.Microsecond)
				}
			})
		}
	}

	// The rebalancer is the only cross-pod actor: spawned with Cluster.Go,
	// it is a mobile process, hopping between pods for each migration step.
	// It returns when the rack is even; from then on no cross-pod coupling
	// remains and the conservative windows open to the full deadline.
	migrations := 0
	var final []int
	c.Go("rack-balancer", func(p *oasis.Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 2*hotspot; i++ {
			inst, err := c.RebalanceOnce(p, 1.2)
			if err != nil || inst == nil {
				break
			}
			migrations++
		}
		final = perPod()
	})
	c.Run(deadline)
	r.countCluster(c)
	c.Shutdown()

	spread := func(v []int) int {
		min, max := v[0], v[0]
		for _, n := range v {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		return max - min
	}
	totalEchoes := 0
	for _, n := range echoes {
		totalEchoes += n
	}
	r.addf("rack: %d pods x %d hosts = %d hosts, %d NICs + 1 SSD per pod, one virtual clock",
		pods, hostsPerPod, pods*hostsPerPod, nicsPerPod)
	r.addf("placement: %d instances routed least-loaded -> per-pod %v (spread %d)",
		pods*instPerPod, balanced, spread(balanced))
	r.addf("hot-spot:  +%d on pod0 -> %v (spread %d)", hotspot, skewed, spread(skewed))
	r.addf("rebalance: %d cross-pod migrations -> %v (spread %d)", migrations, final, spread(final))
	r.addf("traffic:   %d echo flows alive throughout, %d echoes total", pods*flowsPerPod, totalEchoes)
	r.Values["hosts"] = float64(pods * hostsPerPod)
	r.Values["pods"] = float64(pods)
	r.Values["spread_balanced"] = float64(spread(balanced))
	r.Values["spread_skewed"] = float64(spread(skewed))
	r.Values["spread_final"] = float64(spread(final))
	r.Values["migrations"] = float64(migrations)
	r.Values["echoes"] = float64(totalEchoes)
}

// racksweepModel appends Part 2 to r: the §2.2 pooling model at 1000s of
// hosts, pod sizes 8-64, trials fanned out over internal/par. Per-worker
// results reduce in trial order, so the report is byte-identical at any
// thread count.
func racksweepModel(r *Report, scale float64) {
	sc := strand.DefaultConfig()
	sc.Hosts = int(2048 * scale)
	if sc.Hosts < 512 {
		sc.Hosts = 512
	}
	sc.Trials = 4
	sc.PodSizes = []int{8, 16, 32, 64}
	results := strand.Run(sc)
	r.addf("pooling model: %d hosts, %d trials/size (workers between engines only)", sc.Hosts, sc.Trials)
	r.addf("%-8s %8s %8s %10s %11s", "pod", "NIC%", "SSD%", "NICs/pod", "drives/pod")
	for _, res := range results {
		r.addf("%-8d %8.1f %8.1f %10.2f %11.1f",
			res.PodSize, res.StrandedNIC*100, res.StrandedSSD*100, res.NICsPerPod, res.DrivesPerPod)
		r.Values[fmt.Sprintf("pod%d_nic", res.PodSize)] = res.StrandedNIC
		r.Values[fmt.Sprintf("pod%d_ssd", res.PodSize)] = res.StrandedSSD
	}
	r.addf("paper: stranding keeps falling as the pooling domain grows; composing pods")
	r.addf("       extends §2.2's single-pod gains to the whole rack")
}

// Racksweep extends Table 2 / Figure 2 from a single pod to a rack: a
// real multi-pod Cluster simulation of 512 hosts (placement, hot-spot
// migration, live traffic — every pod on one virtual clock), paired with
// the analytic stranding model pushed to thousands of hosts. Given more
// than one thread, each pod advances on a partition of its own; on one, the
// whole rack is one event loop, which a partitioned cluster would only slow
// down. The two shapes print byte-identical reports at any GOMAXPROCS —
// only wall-clock time changes.
func Racksweep(scale float64) *Report { return racksweepRun(scale, runtime.GOMAXPROCS(0) > 1) }

func racksweepRun(scale float64, partitioned bool) *Report {
	r := newReport("racksweep", "Rack-scale utilization sweep (multi-pod cluster + pooling model)")
	racksweepSim(r, scale, partitioned)
	racksweepModel(r, scale)
	return r
}
