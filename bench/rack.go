package main

import (
	"fmt"
	"time"

	"oasis"
	"oasis/internal/netstack"
)

// Rack shape shared by rack_idle and rack_par.
const (
	rackPods          = 4
	rackHostsPerPod   = 32
	rackNICsPerPod    = 3
	rackClientsPerPod = 3
	rackInstPerPod    = 6
	rackHotspot       = 4 // extra instances piled onto pod 0, drained by RebalanceOnce
	rackPayload       = 64
	rackReplyTimeout  = 200 * time.Microsecond
)

// runRack is rack_idle (serial cluster) and rack_par (one sim partition per
// pod plus the control partition). Everything but the cluster constructor
// is identical, so the two must produce the same virtual results.
func runRack(r *rep, partitioned bool) outcome {
	var out outcome
	// Instances need ~0.13 ms of virtual time to obtain a NIC from the pod
	// allocator; clients wait out warmup, make one unmeasured echo (ARP),
	// then issue requests for window. The run ends after the last request's
	// reply timeout, so every attempted op either completes or fails.
	const warmup = 400 * time.Microsecond
	window := r.pick(4200*time.Microsecond, 300*time.Microsecond)
	deadline := warmup + 100*time.Microsecond + window + rackReplyTimeout + 50*time.Microsecond

	var c *oasis.Cluster
	clients := make([]*oasis.Client, 0, rackPods*rackClientsPerPod)
	r.phase(phaseBuild, func() {
		if partitioned {
			c = oasis.NewPartitionedCluster()
		} else {
			c = oasis.NewCluster()
		}
		for i := 0; i < rackPods; i++ {
			cfg := oasis.DefaultConfig()
			cfg.PoolBytes = 256 << 20 // no volumes here; NIC queues and instance state fit easily
			p := c.AddPod(cfg)
			for h := 0; h < rackHostsPerPod; h++ {
				p.AddHost()
			}
			for n := 0; n < rackNICsPerPod; n++ {
				p.AddNIC(p.Hosts[rackHostsPerPod-1-n], false)
			}
			p.AddSSD(p.Hosts[rackHostsPerPod-1], 1<<16)
			for f := 0; f < rackClientsPerPod; f++ {
				clients = append(clients, p.AddClient(oasis.IP(10, byte(i), 99, byte(1+f))))
			}
		}
	})
	r.phase(phaseStart, c.Start)

	stats := make([]closedLoopStats, len(clients))
	r.phase(phaseSpawn, func() {
		for i := 0; i < rackPods*rackInstPerPod; i++ {
			c.PlaceInstance(oasis.IP(10, 200, 0, byte(10+i)))
		}
		p0 := c.Pod(0)
		for i := 0; i < rackHotspot; i++ {
			p0.AddInstance(p0.Hosts[i%4], oasis.IP(10, 201, 0, byte(10+i)))
		}
		// One echo flow per client, to the pod's oldest instances: the
		// rebalancer only ever moves a pod's newest placement, so flow
		// targets never migrate mid-flow.
		for i := 0; i < rackPods; i++ {
			pod := c.Pod(i)
			for f := 0; f < rackClientsPerPod; f++ {
				idx := i*rackClientsPerPod + f
				inst := pod.InstanceAt(f)
				c.GoPod(i, fmt.Sprintf("echo%d-%d", i, f), echoServer(r, inst.Stack))
				client, st := clients[idx], &stats[idx]
				client.Go(fmt.Sprintf("client%d-%d", i, f), func(p *oasis.Proc) {
					rackClient(p, r, client, inst.IPAddr(), idx, warmup, window, st)
				})
			}
		}
		// The only cross-pod actor; a mobile process when partitioned.
		c.Go("balancer", func(p *oasis.Proc) {
			p.Sleep(warmup)
			for i := 0; i < 2*rackHotspot; i++ {
				if inst, err := c.RebalanceOnce(p, 1.2); err != nil || inst == nil {
					return
				}
			}
		})
	})
	r.phase(phaseRun, func() { c.Run(deadline) })
	r.phase(phaseSnapshot, func() { out.snaps = append(out.snaps, c.Stats()) })
	r.phase(phaseShutdown, c.Shutdown)

	min, max := c.Pod(0).Instances(), c.Pod(0).Instances()
	for i := 1; i < rackPods; i++ {
		n := c.Pod(i).Instances()
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		out.errorf("rebalance left spread %d (want <= 1)", max-min)
	}
	for i := range stats {
		out.attempted += stats[i].attempted
		out.lat = append(out.lat, stats[i].lat...)
		if stats[i].corrupt > 0 {
			out.errorf("client %d: %d echo replies differ from the request", i, stats[i].corrupt)
		}
	}
	out.window = window
	out.extra = map[string]float64{"sim.partitions": float64(c.Partitions())}
	return out
}

// rackClient is one closed-loop client: 64 B UDP echoes with a seeded
// 10–30 µs think time between a reply and the next request.
func rackClient(p *oasis.Proc, r *rep, client *oasis.Client, server netstack.IP, idx int,
	warmup, window time.Duration, st *closedLoopStats) {
	conn, err := client.Stack.ListenUDP(0)
	if err != nil {
		return
	}
	gen := newRNG(r.seed, uint64(idx))
	buf := make([]byte, rackPayload)
	echo := func(id uint64) (ok, corrupt bool) {
		return echoOnce(p, conn, server, buf, r.seed, id, rackReplyTimeout)
	}
	p.Sleep(warmup)
	for try := 0; try < 2; try++ { // unmeasured: resolves ARP both ways
		if ok, _ := echo(uint64(idx)<<40 | 1<<39 | uint64(try)); ok {
			break
		}
	}
	start := p.Now()
	for seq := uint64(0); p.Now()-start < window; seq++ {
		t0 := p.Now()
		st.attempted++
		ok, corrupt := echo(uint64(idx)<<40 | seq)
		if corrupt {
			st.corrupt++
		}
		if ok {
			st.lat = append(st.lat, p.Now()-t0)
		}
		p.Sleep(10*time.Microsecond + time.Duration(gen.intn(20_000)))
	}
}
