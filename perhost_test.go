package oasis

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"oasis/internal/metrics"
	"oasis/internal/sim"
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
// observable timeline — every RTT plus the final clock — and the barrier
// loop's exact counts. Per-host runs are
// fixed-length with an external Shutdown — a mid-window Shutdown from
// inside a partition is not a single global instant.
func perHostEchoRun(t *testing.T) (rtts []time.Duration, end Duration, ctr sim.GroupCounters) {
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
	ctr = e.pod.group.Counters()
	e.pod.Shutdown()
	return rtts, end, ctr
}

// TestPerHostPodUDPEcho runs the evaluation echo flow with the client on
// its own partition: the datapath must work end to end through the
// RemotePort relay, and the RTT must stay in the same low-µs regime as the
// single-engine pod (the remote attachment adds ~1.4 µs of cable both
// ways).
func TestPerHostPodUDPEcho(t *testing.T) {
	rtts, _, _ := perHostEchoRun(t)
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
		rtts, end, _ := perHostEchoRun(t)
		return fmt.Sprintf("%v@%v", rtts, end)
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("per-host pod not deterministic across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestPerHostPodExactCounts pins what the barrier loop did for that run: the
// counts derive from virtual state alone, so they repeat on any machine at
// any GOMAXPROCS, and a change to the window math shows up here as a number
// rather than as seconds.
func TestPerHostPodExactCounts(t *testing.T) {
	_, _, got := perHostEchoRun(t)
	want := sim.GroupCounters{Barriers: 35477, Windows: 35547, IdleCommits: 35407, CrossEvents: 42, FixpointPasses: 106359}
	if got != want {
		t.Fatalf("per-host echo pod's barrier loop:\n got %+v\nwant %+v", got, want)
	}
}

// TestPerHostPodShape checks the partition layout: pod core + one
// partition per client, and without the field one partition for everything.
func TestPerHostPodShape(t *testing.T) {
	serial := NewPod(DefaultConfig())
	serial.AddHost()
	if c := serial.AddClient(IP(10, 0, 99, 1)); c.Remote() || serial.group.Partitions() != 1 {
		t.Fatal("a serial pod's client must share the pod's only partition")
	}
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
