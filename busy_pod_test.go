package oasis

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"oasis/internal/sim"
	"oasis/internal/ssd"
)

// Exact costs of three busy pods, the shapes of the benchmark's echo_ladder
// (pooled, and on the baseline's local datapath) and store_mixed workloads at
// a smaller scale: every counter of the run phase. Events, FastSleeps and
// HeapEvents were captured before coroutine switching and the cache's line
// table replaced channel hand-offs and the Go map, and before the packet
// path moved into event context; every such change is exact by construction
// — the same events in the same (time, sequence) order — so they may not
// move with a simulator-speed change. Switches and SteppedLegs count how the
// run is executed, and were pinned when the datapath's handlers, the NIC's
// pipeline and the stacks became chains of steps: 17 279, 11 927 and 3 713
// switches before.
var busyPodCounts = map[string]sim.Counters{
	"echo":  {Events: 73317, Switches: 1684, FastSleeps: 33433, SteppedLegs: 75314, HeapEvents: 2},
	"local": {Events: 34674, Switches: 1663, FastSleeps: 11738, SteppedLegs: 30799, HeapEvents: 2},
	"store": {Events: 76925, Switches: 1236, FastSleeps: 43287, SteppedLegs: 99598, HeapEvents: 381},
}

func TestBusyPodExactCounts(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T) (c sim.Counters, requests int)
	}{
		{"echo", func(t *testing.T) (sim.Counters, int) { return busyEchoCounts(t, false) }},
		{"local", func(t *testing.T) (sim.Counters, int) { return busyEchoCounts(t, true) }},
		{"store", busyStoreCounts},
	} {
		t.Run(row.name, func(t *testing.T) {
			got, requests := row.run(t)
			want := busyPodCounts[row.name]
			t.Logf("counters %+v", got)
			t.Logf("%d requests, %.2f switches per request", requests, float64(got.Switches)/float64(requests))
			if sim.Checking() {
				// OASIS_SIMCHECK=1 runs every stage from the process to check
				// the idle predicates: more switches, the same events.
				got.Switches = want.Switches
			}
			if got != want {
				t.Errorf("counters %+v\n            want %+v: a simulator-speed change moved the event sequence", got, want)
			}
		})
	}
}

// runCounted runs the pod to the deadline and returns the counters of that
// run alone.
func runCounted(pod *Pod, until time.Duration) sim.Counters {
	c0 := pod.Eng.Counters()
	pod.Run(until)
	c := pod.Eng.Counters()
	return sim.Counters{
		Events:      c.Events - c0.Events,
		Switches:    c.Switches - c0.Switches,
		FastSleeps:  c.FastSleeps - c0.FastSleeps,
		SteppedLegs: c.SteppedLegs - c0.SteppedLegs,
		HeapEvents:  c.HeapEvents - c0.HeapEvents,
	}
}

// busyEchoCounts is one echo_ladder rung: an instance on host A, its pooled
// NIC on host B, no allocator, and an open-loop UDP echo at 600 kpps for
// 1 ms, a quarter of the requests 1 458 B and the rest 75 B. With local, the
// instance and its NIC are the baseline's instead (AddLocalNIC and
// AddLocalInstance on host A: the benchmark's DDR-latency local datapath).
func busyEchoCounts(t *testing.T, local bool) (sim.Counters, int) {
	cfg := DefaultConfig()
	cfg.NoAllocator = true
	if local {
		cfg.CXL.LoadLatency = 90 * time.Nanosecond
		cfg.CXL.WriteLatency = 40 * time.Nanosecond
		cfg.CXL.PortBandwidth = 64e9
	}
	pod := NewPod(cfg)
	hostA := pod.AddHost()
	var nic *NIC
	var inst *Instance
	if local {
		nic = pod.AddLocalNIC(hostA)
		inst = pod.AddLocalInstance(hostA, IP(10, 0, 0, 10))
	} else {
		nic = pod.AddNIC(pod.AddHost(), false)
		inst = pod.AddInstance(hostA, IP(10, 0, 0, 10))
	}
	client := pod.AddClient(IP(10, 0, 99, 1))
	pod.Start()
	if inst.IsPooled() {
		if err := inst.Assign(nic.ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	const (
		n        = 600
		interval = time.Second / 600e3
		settle   = 100 * time.Microsecond
	)
	pod.Go("echo-server", func(p *Proc) {
		conn, err := inst.Stack.ListenUDP(7)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			dg := conn.Recv(p)
			if conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data) != nil {
				return
			}
		}
	})
	echoed := 0
	pod.Go("sender", func(p *Proc) {
		conn, err := client.Stack.ListenUDP(0)
		if err != nil {
			t.Error(err)
			return
		}
		pod.Go("drain", func(p *Proc) {
			for {
				if dg := conn.Recv(p); len(dg.Data) >= 8 {
					echoed++
				}
			}
		})
		buf := make([]byte, 1458)
		p.Sleep(settle)
		start := p.Now()
		for i := 0; i < n; i++ {
			if wait := start + time.Duration(i)*interval - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
			req := buf[:75]
			if i%4 == 3 {
				req = buf
			}
			binary.LittleEndian.PutUint64(req, uint64(i))
			_ = conn.SendTo(p, inst.IPAddr(), 7, req)
		}
	})
	c := runCounted(pod, settle+time.Millisecond+300*time.Microsecond)
	pod.Shutdown()
	if echoed != n {
		t.Errorf("%d of %d echoes came back", echoed, n)
	}
	return c, n
}

// busyStoreCounts is store_mixed on two hosts: a NIC on host 0, an SSD on
// host 1, one instance with a volume served by four workers, and four
// closed-loop clients issuing seeded 70/30 reads and writes of one 4 KiB
// block for 2 ms.
func busyStoreCounts(t *testing.T) (sim.Counters, int) {
	pod := NewPod(DefaultConfig())
	h0, h1 := pod.AddHost(), pod.AddHost()
	pod.AddNIC(h0, false)
	d := pod.AddSSD(h1, 1<<12)
	inst := pod.AddInstance(h0, IP(10, 0, 0, 10))
	vol := pod.AddVolume(inst, d.ID, 1<<10)
	clients := make([]*Client, 4)
	for i := range clients {
		clients[i] = pod.AddClient(IP(10, 0, 99, byte(1+i)))
	}
	pod.Start()
	inst.RequestAllocation()
	conn, err := inst.Stack.ListenUDP(9000)
	if err != nil {
		t.Fatal(err)
	}
	const (
		warmup = 400 * time.Microsecond
		window = 2 * time.Millisecond
	)
	for range clients {
		pod.Go("store-worker", func(p *Proc) {
			vol.WaitReady(p, time.Millisecond)
			for {
				dg := conn.Recv(p)
				lba := binary.LittleEndian.Uint64(dg.Data)
				var block []byte
				var err error
				if dg.Data[8] == 1 {
					block = bytes.Repeat(dg.Data[:1], ssd.BlockSize)
					err = vol.Write(p, lba, block)
				} else {
					block, err = vol.Read(p, lba, 1)
				}
				if err != nil || conn.SendTo(p, dg.Src, dg.SrcPort, block[:8]) != nil {
					return
				}
			}
		})
	}
	done := 0
	for i, client := range clients {
		client.Go("store-client", func(p *Proc) {
			conn, err := client.Stack.ListenUDP(0)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(i + 1)))
			req := make([]byte, 9)
			p.Sleep(warmup)
			for start := p.Now(); p.Now()-start < window; {
				binary.LittleEndian.PutUint64(req, uint64(rng.Intn(256)*len(clients)+i))
				req[8] = 0
				if rng.Intn(100) >= 70 {
					req[8] = 1
				}
				if conn.SendTo(p, inst.IPAddr(), 9000, req) != nil {
					continue
				}
				if _, ok := conn.RecvTimeout(p, 500*time.Microsecond); ok {
					done++
				}
			}
		})
	}
	c := runCounted(pod, warmup+window+600*time.Microsecond)
	pod.Shutdown()
	if done < 100 {
		t.Errorf("only %d block requests completed", done)
	}
	return c, done
}
