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
// both; these constants can. They pin the order of pool allocations and
// process spawns that Start and the post-Start adds make, so
// a wiring refactor that is meant to be invisible has to leave them alone.
// Regenerate them (go test -run TestWiringDigests -v prints the got values)
// only with a change that is meant to move simulated results.
const (
	digestDefaultPod  = "82e9ff754d326226fb2864986d50e87dcb40a4340d3dd444382d4f8f94e9ca6a"
	digestNetStorage  = "c086d2b4d2e74167f8964a61d51ea5a2548192fa8dec07278fe39b9b00794aa6"
	digestRaftBackups = "d298438e8d46d17e2c85d39dd257d0c0ccd89d071171eb0241eb8135a7e157f0"
	digestBaseline    = "664752c374dd2387c051749425ea40605153fd4f6bb628228aed2b750c889f47"
	digestLateAdds    = "8651dca767f10a0464dc169490e4f7f9ccbdbc3d7ccecb097881bc5071979315"
	digestClusterMove = "c5805cacb8c51c205b5f65c418ed9f5297c0f688bf743935ae45e14392720161"
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
		{"net-and-storage", digestNetStorage, func(t *testing.T) []byte {
			pod := NewPod(DefaultConfig())
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
