package oasis

import (
	"bytes"
	"testing"
	"time"
)

// A host's network frontend core serves the host's instances, so it starts
// with the first of them: a host that has none polls nothing, yet lists its
// core/<host>/fe/* series like any other. Each row is a 3-host pod with the
// allocator on host0, nic1 on host1 and an instance on host0:
//   - with nothing else, host1's and host2's cores never run;
//   - an instance placed on host2 after Start starts host2's core, which
//     gets the instance its NIC from the allocator and echoes a datagram;
//   - the same after nic1 has failed over to a backup NIC, whose CtlFailover
//     broadcast sits in host2's control ring from before its core started.
func TestFrontendCoreStartsWithFirstInstance(t *testing.T) {
	tests := []struct {
		name     string
		late     bool // place an instance on host2 after Start
		failover bool // fail nic1 over to the backup nic2 first (nic3 is a spare)
		wantNIC  uint16
	}{
		{"instance-on-host0-only", false, false, 0},
		{"instance-added-after-start", true, false, 1},
		{"instance-added-after-failover", true, true, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pod := NewPod(DefaultConfig())
			h0, h1, h2 := pod.AddHost(), pod.AddHost(), pod.AddHost()
			nic1 := pod.AddNIC(h1, false)
			if tt.failover {
				pod.AddNIC(h1, true)
				pod.AddNIC(h1, false)
			}
			inst0 := pod.AddInstance(h0, IP(10, 0, 0, 10))
			client := pod.AddClient(IP(10, 0, 99, 1))
			pod.Start()
			inst0.RequestAllocation()
			if tt.failover {
				pod.Eng.At(5*time.Millisecond, func() { pod.FailNICPort(nic1.ID) })
			}
			pod.Run(100 * time.Millisecond)

			iters := func(name string) float64 {
				t.Helper()
				pt, ok := pod.Stats().Point("core/" + name + "/iters")
				if !ok {
					t.Fatalf("core/%s/iters is not listed in Stats()", name)
				}
				return pt.Value
			}
			for _, idle := range []string{"host1/fe", "host2/fe"} {
				if n := iters(idle); n != 0 {
					t.Fatalf("%s made %v iterations with no instance on its host, want 0", idle, n)
				}
			}
			for _, busy := range []string{"host0/fe", "host1/be1"} {
				if iters(busy) == 0 {
					t.Fatalf("%s never ran", busy)
				}
			}
			// The allocator broadcasts a failover on every frontend's
			// control link, host2's included: wired at Start, read by no
			// one until host2's core starts.
			if tt.failover && pod.Alloc.Failovers != 1 {
				t.Fatalf("allocator failovers = %d, want 1", pod.Alloc.Failovers)
			}
			if !tt.late {
				pod.Shutdown()
				return
			}

			inst2 := pod.AddInstance(h2, IP(10, 0, 0, 12))
			inst2.RequestAllocation()
			payload := bytes.Repeat([]byte{0x5A, 0xC3}, 40)
			echoed := false
			pod.Go("echo-server", func(p *Proc) {
				conn, err := inst2.Stack.ListenUDP(7)
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
				if !inst2.WaitReady(p, 50*time.Millisecond) {
					t.Error("host2's instance never became ready")
					return
				}
				conn, err := client.Stack.ListenUDP(0)
				if err != nil {
					t.Error(err)
					return
				}
				if err := conn.SendTo(p, inst2.IPAddr(), 7, payload); err != nil {
					t.Error(err)
					return
				}
				dg, ok := conn.RecvTimeout(p, 10*time.Millisecond)
				echoed = ok && bytes.Equal(dg.Data, payload)
			})
			pod.Run(200 * time.Millisecond)
			pod.Shutdown()
			if iters("host2/fe") == 0 {
				t.Fatal("host2's frontend core did not start with its first instance")
			}
			if nic, ok := pod.Alloc.PrimaryOf(inst2.IPAddr()); !ok || nic != tt.wantNIC {
				t.Fatalf("host2's instance placed on nic%d (placed %v), want nic%d", nic, ok, tt.wantNIC)
			}
			if !echoed {
				t.Fatal("no byte-exact echo from host2's instance")
			}
		})
	}
}
