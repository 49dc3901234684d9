package oasis

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"oasis/internal/ssd"
	"oasis/internal/storengine"
)

// The wiring goldens: sha256(Stats().JSON()) of small fixed topologies after
// a short fixed workload. Every other "byte-identical" test in this package
// compares a run with its own rerun, which cannot notice a change that moves
// both; these constants can. They pin the order of pool allocations, process
// spawns and shared-core attaches that Start and the post-Start adds make, so
// a wiring refactor that is meant to be invisible has to leave them alone.
// Regenerate them (go test -run TestWiringDigests -v prints the got values)
// only with a change that is meant to move simulated results.
const (
	digestDefaultPod  = "235ab2be3bfc6f251ec2ae17223d27e286af5022fffa0e8d099a75e543542bcf"
	digestSharedCore  = "180e6483947593b21d3c2a59eb60b67405232ed53f77c49316cd5652ecdef1ce"
	digestRaftBackups = "ef0fdc5d587d14d64fbd94aae0a9f53bfea23cce5322ff77fe4afac8dd19bace"
	digestBaseline    = "73a166277bf75a949cf6af2126806608c541c8de5337ab417327e7e664f2070c"
	digestLateAdds    = "d9fc6c477e14628592a11240e6aaf8d86cd6e42e1d8719d8e231a3ef4376b9f8"
	digestClusterMove = "5446d82f4978eb00b421cecb01090cb2869eee7955eb038540543c4a85e439cb"
)

// digestEcho spawns a UDP echo server on inst and a client process that
// sends n pings to it once the instance is ready.
func digestEcho(t *testing.T, pod *Pod, inst *Instance, client *Client, n int) {
	t.Helper()
	inst.RequestAllocation()
	pod.Go("echo", func(p *Proc) {
		if !inst.WaitReady(p, 100*time.Millisecond) {
			t.Error("instance never became ready")
			return
		}
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
	client.Go("client", func(p *Proc) {
		conn, err := client.Stack.ListenUDP(0)
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(2 * time.Millisecond)
		payload := bytes.Repeat([]byte{0xEE}, 64)
		echoed := 0
		for i := 0; i < n; i++ {
			if conn.SendTo(p, inst.IPAddr(), 7, payload) != nil {
				continue
			}
			if dg, ok := conn.RecvTimeout(p, 2*time.Millisecond); ok && bytes.Equal(dg.Data, payload) {
				echoed++
			}
		}
		if echoed == 0 {
			t.Error("no echo came back")
		}
	})
}

// digestVolumeRW spawns a process that writes two blocks to vol and reads
// them back.
func digestVolumeRW(t *testing.T, pod *Pod, vol *storengine.Volume) {
	t.Helper()
	pod.Go("volume-rw", func(p *Proc) {
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("volume never became ready")
			return
		}
		data := bytes.Repeat([]byte{0x42}, 2*ssd.BlockSize)
		if err := vol.Write(p, 3, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if got, err := vol.Read(p, 3, 2); err != nil || !bytes.Equal(got, data) {
			t.Errorf("read back failed (err=%v)", err)
		}
	})
}

// digestRun runs the pod for d, snapshots, and shuts it down.
func digestRun(pod *Pod, d Duration) []byte {
	pod.Run(d)
	snap := pod.Stats().JSON()
	pod.Shutdown()
	return snap
}

func TestWiringDigests(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func(t *testing.T) []byte
	}{
		{"default-pod", digestDefaultPod, func(t *testing.T) []byte {
			pod := NewPod(DefaultConfig())
			hA, hB := pod.AddHost(), pod.AddHost()
			pod.AddNIC(hB, false)
			inst := pod.AddInstance(hA, IP(10, 0, 0, 10))
			client := pod.AddClient(IP(10, 0, 99, 1))
			pod.Start()
			digestEcho(t, pod, inst, client, 20)
			return digestRun(pod, 10*time.Millisecond)
		}},
		{"shared-host-core", digestSharedCore, func(t *testing.T) []byte {
			cfg := DefaultConfig()
			cfg.SharedHostCore = true
			pod := NewPod(cfg)
			hA, hB := pod.AddHost(), pod.AddHost()
			pod.AddNIC(hB, false)
			d := pod.AddSSD(hB, 1<<12)
			inst := pod.AddInstance(hA, IP(10, 0, 0, 10))
			vol := pod.AddVolume(inst, d.ID, 64)
			client := pod.AddClient(IP(10, 0, 99, 1))
			pod.Start()
			digestEcho(t, pod, inst, client, 20)
			digestVolumeRW(t, pod, vol)
			return digestRun(pod, 10*time.Millisecond)
		}},
		{"raft-and-backups", digestRaftBackups, func(t *testing.T) []byte {
			cfg := DefaultConfig()
			cfg.RaftReplicas = 3
			pod := NewPod(cfg)
			hA, hB, hC := pod.AddHost(), pod.AddHost(), pod.AddHost()
			pod.AddNIC(hB, false)
			pod.AddNIC(hC, true)
			d := pod.AddSSD(hB, 1<<12)
			pod.AddBackupSSD(hC, 1<<12)
			inst := pod.AddInstance(hA, IP(10, 0, 0, 10))
			vol := pod.AddVolume(inst, d.ID, 64)
			client := pod.AddClient(IP(10, 0, 99, 1))
			pod.Start()
			digestEcho(t, pod, inst, client, 20)
			digestVolumeRW(t, pod, vol)
			return digestRun(pod, 40*time.Millisecond)
		}},
		{"baseline-local-driver", digestBaseline, func(t *testing.T) []byte {
			pod := NewPod(DefaultConfig())
			h := pod.AddHost()
			pod.AddLocalNIC(h)
			inst := pod.AddLocalInstance(h, IP(10, 0, 0, 10))
			client := pod.AddClient(IP(10, 0, 99, 1))
			pod.Start()
			digestEcho(t, pod, inst, client, 20)
			return digestRun(pod, 10*time.Millisecond)
		}},
		{"everything-added-late", digestLateAdds, func(t *testing.T) []byte {
			pod := NewPod(DefaultConfig())
			hA := pod.AddHost()
			pod.AddHost()
			pod.Start()
			pod.Run(time.Millisecond)
			hC := pod.AddHost()
			pod.AddNIC(hC, false)
			d := pod.AddSSD(hC, 1<<12)
			inst := pod.AddInstance(hA, IP(10, 0, 0, 10))
			vol := pod.AddVolume(inst, d.ID, 64)
			client := pod.AddClient(IP(10, 0, 99, 1))
			digestEcho(t, pod, inst, client, 20)
			digestVolumeRW(t, pod, vol)
			return digestRun(pod, 11*time.Millisecond)
		}},
		{"cluster-migration-serial", digestClusterMove, func(t *testing.T) []byte {
			return runClusterScenario(t, false, 0).snap
		}},
		{"cluster-migration-partitioned", digestClusterMove, func(t *testing.T) []byte {
			return runClusterScenario(t, true, 0).snap
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := sha256.Sum256(tc.run(t))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("sha256(Stats().JSON()) = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestLateAddOnSharedCore grows a running SharedHostCore pod: a NIC, an SSD
// and a host's first volume (which creates its storage frontend) all arrive
// after Start, so their loops have to join shared cores that are already
// polling. Traffic must then flow through each of them.
func TestLateAddOnSharedCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SharedHostCore = true
	pod := NewPod(cfg)
	hA, hB := pod.AddHost(), pod.AddHost()
	inst := pod.AddInstance(hA, IP(10, 0, 0, 10))
	client := pod.AddClient(IP(10, 0, 99, 1))
	pod.Start()
	pod.Run(time.Millisecond)
	if a, b := len(hA.Driver.Loops()), len(hB.Driver.Loops()); a != 1 || b != 1 {
		t.Fatalf("shared cores run %d and %d loops before the late adds, want 1 and 1", a, b)
	}

	n, err := pod.AddNICErr(hB, false)
	if err != nil {
		t.Fatalf("late AddNIC: %v", err)
	}
	d, err := pod.AddSSDErr(hB, 1<<12)
	if err != nil {
		t.Fatalf("late AddSSD: %v", err)
	}
	vol, err := pod.AddVolumeErr(inst, d.ID, 64)
	if err != nil {
		t.Fatalf("late AddVolume: %v", err)
	}
	if n.BE.Driver() != hB.Driver || d.BE.Driver() != hB.Driver || hA.SFE.Driver() != hA.Driver {
		t.Fatal("late engines did not join their hosts' shared cores")
	}
	if a, b := len(hA.Driver.Loops()), len(hB.Driver.Loops()); a != 2 || b != 3 {
		t.Fatalf("shared cores run %d and %d loops after the late adds, want 2 (fe + storage fe) and 3 (fe + nic be + ssd be)", a, b)
	}

	digestEcho(t, pod, inst, client, 10)
	digestVolumeRW(t, pod, vol)
	pod.Run(12 * time.Millisecond)
	defer pod.Shutdown()
	if n.Dev.TxPackets == 0 || n.Dev.RxPackets == 0 {
		t.Errorf("late NIC carried tx=%d rx=%d packets, want both > 0", n.Dev.TxPackets, n.Dev.RxPackets)
	}
	if d.Dev.Reads == 0 || d.Dev.Writes == 0 {
		t.Errorf("late SSD served reads=%d writes=%d, want both > 0", d.Dev.Reads, d.Dev.Writes)
	}
}
