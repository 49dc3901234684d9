package oasis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"oasis/internal/sim"
	"oasis/internal/ssd"
)

// TestBusyPodExactCounts pins every counter of three busy pods' run phase —
// the shapes of the benchmark's echo_ladder (pooled, and on the baseline's
// local datapath) and store_mixed workloads at a smaller scale — to their
// rows of testdata/counts.txt, each with the requests it served, so switches
// per request read off the row. Events, FastSleeps and HeapEvents were
// captured before coroutine switching and the cache's line table replaced
// channel hand-offs and the Go map, and before the packet path moved into
// event context; every such change is exact by construction — the same
// events in the same (time, sequence) order — so they may not move with a
// simulator-speed change. Switches and SteppedLegs count how the run is
// executed, and were pinned when the datapath's handlers, the NIC's pipeline
// and the stacks became chains of steps: 17 279, 11 927 and 3 713 switches
// before.
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
			c, requests := row.run(t)
			checkCounts(t, fmt.Sprintf("%s requests=%d", countLine(row.name, c, sim.GroupCounters{}), requests))
		})
	}
}

// runCounted runs the pod to the deadline and returns the counters of that
// run alone.
func runCounted(pod *Pod, until time.Duration) sim.Counters {
	c0 := pod.Eng.Counters()
	pod.Run(until)
	return since(c0, pod.Eng.Counters())
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
