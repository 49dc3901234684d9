package oasis

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"oasis/internal/metrics"
)

func perHostConfig() Config {
	cfg := DefaultConfig()
	cfg.PerHostPartitions = true
	return cfg
}

// buildPerHostEchoPod is buildEchoPod's per-host twin: the pod core on
// partition 0, the client on a partition of its own behind a RemotePort.
func buildPerHostEchoPod() *echoPod {
	pod := NewPod(perHostConfig())
	hostA := pod.AddHost()
	hostB := pod.AddHost()
	n1 := pod.AddNIC(hostB, false)
	e := &echoPod{pod: pod, hostA: hostA, hostB: hostB, nic1: n1}
	e.inst = pod.AddInstance(hostA, IP(10, 0, 0, 10))
	e.client = pod.AddClient(IP(10, 0, 99, 1))
	pod.Start()
	return e
}

// perHostEchoRun drives one fixed-length per-host echo run and returns its
// observable timeline: every RTT plus the final clock. Per-host runs are
// fixed-length with an external Shutdown — a mid-window Shutdown from
// inside a partition is not a single global instant.
func perHostEchoRun(t *testing.T) (rtts []time.Duration, end Duration) {
	e := buildPerHostEchoPod()
	e.inst.RequestAllocation()
	e.startEchoServer(t)
	payload := bytes.Repeat([]byte{0xEE}, 64)
	e.client.Go("client", func(p *Proc) {
		conn, _ := e.client.Stack.ListenUDP(0)
		p.Sleep(2 * time.Millisecond) // registration warmup
		for i := 0; i < 20; i++ {
			start := p.Now()
			if err := conn.SendTo(p, e.inst.IPAddr(), 7, payload); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			dg, ok := conn.RecvTimeout(p, 10*time.Millisecond)
			if !ok {
				t.Errorf("echo %d timed out", i)
				return
			}
			if !bytes.Equal(dg.Data, payload) {
				t.Errorf("echo %d corrupted", i)
				return
			}
			rtts = append(rtts, p.Now()-start)
			p.Sleep(100 * time.Microsecond)
		}
	})
	end = e.pod.Run(50 * time.Millisecond)
	e.pod.Shutdown()
	return rtts, end
}

// TestPerHostPodUDPEcho runs the evaluation echo flow with the client on
// its own partition: the datapath must work end to end through the
// RemotePort relay, and the RTT must stay in the same low-µs regime as the
// single-engine pod (the remote attachment adds ~1.4 µs of cable both
// ways).
func TestPerHostPodUDPEcho(t *testing.T) {
	rtts, _ := perHostEchoRun(t)
	if len(rtts) != 20 {
		t.Fatalf("completed %d echoes, want 20", len(rtts))
	}
	med := metrics.ExactPercentile(rtts, 50)
	if med < time.Microsecond || med > 40*time.Microsecond {
		t.Fatalf("median RTT = %v, want low µs", med)
	}
	t.Logf("per-host echo RTT: median=%v", med)
}

// TestPerHostPodDeterministic re-runs the per-host echo flow and insists
// the full RTT timeline is byte-identical: partitioned execution's windows
// derive purely from virtual state, so worker interleaving must not leak.
// verify.sh re-runs this at GOMAXPROCS=1, 2, and 8.
func TestPerHostPodDeterministic(t *testing.T) {
	trace := func() string {
		rtts, end := perHostEchoRun(t)
		return fmt.Sprintf("%v@%v", rtts, end)
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("per-host pod not deterministic across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestPerHostPodShape checks the partition layout: pod core + one
// partition per client.
func TestPerHostPodShape(t *testing.T) {
	pod := NewPod(perHostConfig())
	pod.AddHost()
	if got := pod.group.Partitions(); got != 1 {
		t.Fatalf("pod core alone should be 1 partition, got %d", got)
	}
	c1 := pod.AddClient(IP(10, 0, 99, 1))
	c2 := pod.AddClient(IP(10, 0, 99, 2))
	if !c1.Remote() || !c2.Remote() {
		t.Fatal("per-host clients should attach remotely")
	}
	if got := pod.group.Partitions(); got != 3 {
		t.Fatalf("pod + 2 clients should be 3 partitions, got %d", got)
	}
}

// TestPerHostGuestChannel exercises a guest-compute partition: a guest
// process ping-pongs RPCs with a pod-side responder over the CXL-pool
// channel, whose latency is the pool's intrinsic cross-host minimum.
func TestPerHostGuestChannel(t *testing.T) {
	pod := NewPod(perHostConfig())
	h := pod.AddHost()
	g := pod.AddGuest(h)
	if got := pod.group.Partitions(); got != 2 {
		t.Fatalf("pod + guest should be 2 partitions, got %d", got)
	}
	if lat := g.Chan.Latency(); lat != pod.Pool.CrossLatency() {
		t.Fatalf("guest channel latency = %v, want pool cross latency %v", lat, pod.Pool.CrossLatency())
	}
	pod.Start()
	pod.Go("responder", func(p *Proc) {
		for {
			if msg, ok := g.PodChan.Poll(p); ok {
				g.PodChan.Send(p, msg)
			} else {
				p.Sleep(5 * time.Microsecond)
			}
		}
	})
	roundTrips := 0
	g.Go("guest", func(p *Proc) {
		deadline := 5 * Duration(time.Millisecond)
		for p.Now() < deadline {
			g.Chan.Send(p, []byte("ping"))
			for {
				if _, ok := g.Chan.Poll(p); ok {
					roundTrips++
					break
				}
				if p.Now() >= deadline {
					return
				}
				p.Sleep(5 * time.Microsecond)
			}
		}
	})
	pod.Run(10 * time.Millisecond)
	pod.Shutdown()
	if roundTrips < 10 {
		t.Fatalf("guest completed %d round trips, want >= 10", roundTrips)
	}
}

// TestAddGuestNeedsPerHostPod: a guest is a partition by definition, so a
// pod that keeps everything on one refuses it and names the field to set.
func TestAddGuestNeedsPerHostPod(t *testing.T) {
	pod := NewPod(DefaultConfig())
	h := pod.AddHost()
	if _, err := pod.AddGuestErr(h); err == nil || !strings.Contains(err.Error(), "Config.PerHostPartitions") {
		t.Fatalf("AddGuestErr on a serial pod: err %v, want one naming Config.PerHostPartitions", err)
	}
	if c := pod.AddClient(IP(10, 0, 99, 1)); c.Remote() || pod.group.Partitions() != 1 {
		t.Fatal("a serial pod's client must share the pod's only partition")
	}
}
