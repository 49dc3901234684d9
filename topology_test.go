package oasis

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// --- topology mutation edges ---

func TestRemoveHostWithLiveInstances(t *testing.T) {
	pod := NewPod(DefaultConfig())
	h0 := pod.AddHost()
	h1 := pod.AddHost()
	h2 := pod.AddHost()
	h3 := pod.AddHost() // safely removable: no allocator, no raft replica
	_ = h2
	pod.AddNIC(h1, false)
	inst := pod.AddInstance(h3, IP(10, 0, 0, 10))

	if err := pod.RemoveHostErr(h3); !errors.Is(err, ErrHostNotEmpty) {
		t.Fatalf("remove host with live instance: got %v, want ErrHostNotEmpty", err)
	}
	if err := pod.RemoveHostErr(h0); !errors.Is(err, ErrNodeInUse) {
		t.Fatalf("remove allocator host: got %v, want ErrNodeInUse", err)
	}
	if err := pod.RemoveHostErr(h1); !errors.Is(err, ErrHostNotEmpty) {
		t.Fatalf("remove NIC backend host: got %v, want ErrHostNotEmpty", err)
	}
	if err := pod.RemoveInstanceErr(inst); err != nil {
		t.Fatalf("remove instance: %v", err)
	}
	if err := pod.RemoveHostErr(h3); err != nil {
		t.Fatalf("remove emptied host: %v", err)
	}
	if !h3.Removed() {
		t.Fatal("host not marked removed")
	}
	if err := pod.RemoveHostErr(h3); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("double host removal: got %v, want ErrNoSuchNode", err)
	}
	// Host slots stay index-stable after removal.
	if len(pod.Hosts) != 4 || pod.Hosts[3] != h3 {
		t.Fatal("removal perturbed host indices")
	}
}

func TestDoubleAddSameID(t *testing.T) {
	pod := NewPod(DefaultConfig())
	h := pod.AddHost()
	pod.AddNIC(h, false)
	pod.AddInstance(h, IP(10, 0, 0, 10))
	if _, err := pod.AddInstanceErr(h, IP(10, 0, 0, 10)); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate instance IP: got %v, want ErrDuplicateNode", err)
	}
	// Removal releases the id for reuse.
	inst := pod.instances[0]
	if err := pod.RemoveInstanceErr(inst); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := pod.AddInstanceErr(h, IP(10, 0, 0, 10)); err != nil {
		t.Fatalf("re-add after removal: %v", err)
	}
}

// TestAddDeviceAfterRunStarted verifies the incremental path end-to-end:
// a NIC and an instance added after virtual time has already advanced get
// wired into the live pod and carry real traffic.
func TestAddDeviceAfterRunStarted(t *testing.T) {
	pod := NewPod(DefaultConfig())
	hA := pod.AddHost()
	hB := pod.AddHost()
	pod.AddNIC(hB, false)
	client := pod.AddClient(IP(10, 0, 99, 1))
	pod.Start()
	pod.Run(5 * time.Millisecond) // the pod is live; time has passed

	hC, err := pod.AddHostErr()
	if err != nil {
		t.Fatalf("late AddHost: %v", err)
	}
	if _, err := pod.AddNICErr(hC, false); err != nil {
		t.Fatalf("late AddNIC: %v", err)
	}
	inst, err := pod.AddInstanceErr(hA, IP(10, 0, 0, 20))
	if err != nil {
		t.Fatalf("late AddInstance: %v", err)
	}
	inst.RequestAllocation()

	echoed := false
	pod.Go("late-echo", func(p *Proc) {
		if !inst.WaitReady(p, 100*time.Millisecond) {
			t.Error("late instance never became ready")
			pod.Shutdown()
			return
		}
		conn, err := inst.Stack.ListenUDP(7)
		if err != nil {
			t.Errorf("listen: %v", err)
			pod.Shutdown()
			return
		}
		dg := conn.Recv(p)
		conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data)
	})
	pod.Go("late-client", func(p *Proc) {
		defer pod.Shutdown()
		conn, err := client.Stack.ListenUDP(0)
		if err != nil {
			return
		}
		p.Sleep(2 * time.Millisecond)
		for try := 0; try < 20 && !echoed; try++ {
			if conn.SendTo(p, inst.IPAddr(), 7, []byte("late")) != nil {
				continue
			}
			if _, ok := conn.RecvTimeout(p, 2*time.Millisecond); ok {
				echoed = true
			}
		}
	})
	pod.Run(time.Second)
	if !echoed {
		t.Fatal("late-added instance carried no traffic")
	}
}

// pollCensus is what a frontend-only host's cores have done so far: the
// iterations of its network and storage frontends' cores (one and the same
// core under SharedHostCore) and the demand fills of the host's cache. On an
// idle host every fill is an empty poll of one link, so the fills per
// iteration count the links a frontend polls.
type pollCensus struct{ fe, sfe, fills int64 }

func takeCensus(ph *Host) pollCensus {
	c := pollCensus{fe: ph.FE.Driver().Iterations, fills: ph.H.Cache.Stats().Misses}
	if ph.SFE != nil {
		c.sfe = ph.SFE.Driver().Iterations
	}
	return c
}

// TestRemoveDevice is the NIC and SSD removers' table, before and after
// Start, with dedicated cores and with one shared core per host: an unknown
// id is ErrNoSuchNode, a device in use is ErrNodeInUse, and an idle one goes —
// after which no frontend polls a link to it, no instance can be assigned to
// it, a second removal is ErrNoSuchNode, and the rest of the pod still works.
func TestRemoveDevice(t *testing.T) {
	for _, shared := range []bool{false, true} {
		for _, started := range []bool{false, true} {
			name := map[bool]string{false: "dedicated", true: "shared"}[shared] + map[bool]string{false: "/before-start", true: "/after-start"}[started]
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.SharedHostCore = shared
				pod := NewPod(cfg)
				h0, h1, h2, h3 := pod.AddHost(), pod.AddHost(), pod.AddHost(), pod.AddHost()
				n1, n2 := pod.AddNIC(h0, false), pod.AddNIC(h1, false)
				s1, s2 := pod.AddSSD(h0, 1<<12), pod.AddSSD(h1, 1<<12)
				inst := pod.AddInstance(h2, IP(10, 0, 0, 10))
				pod.AddVolume(inst, s1.ID, 16)
				if err := inst.Assign(n1.ID, 0); err != nil {
					t.Fatal(err)
				}
				defer pod.Shutdown()
				var before pollCensus
				if started {
					pod.Start()
					pod.Run(2 * time.Millisecond)
					before = takeCensus(h2)
					pod.Run(4 * time.Millisecond)
					d := takeCensus(h2)
					// Two NIC links and the control link; two SSD links and the control link.
					if want := (d.fe-before.fe)*3 + (d.sfe-before.sfe)*3; abs64(d.fills-before.fills-want) > 6 {
						t.Fatalf("with every device present: %d fills over %d+%d iterations, want %d", d.fills-before.fills, d.fe-before.fe, d.sfe-before.sfe, want)
					}
				}

				for _, tc := range []struct {
					what   string
					remove func(uint16) error
					id     uint16
					want   error
				}{
					{"unknown NIC", pod.RemoveNICErr, 99, ErrNoSuchNode},
					{"NIC an instance is assigned to", pod.RemoveNICErr, n1.ID, ErrNodeInUse},
					{"idle NIC", pod.RemoveNICErr, n2.ID, nil},
					{"NIC removed already", pod.RemoveNICErr, n2.ID, ErrNoSuchNode},
					{"unknown SSD", pod.RemoveSSDErr, 99, ErrNoSuchNode},
					{"SSD a volume is bound to", pod.RemoveSSDErr, s1.ID, ErrNodeInUse},
					{"idle SSD", pod.RemoveSSDErr, s2.ID, nil},
					{"SSD removed already", pod.RemoveSSDErr, s2.ID, ErrNoSuchNode},
				} {
					if err := tc.remove(tc.id); !errors.Is(err, tc.want) {
						t.Fatalf("remove %s: got %v, want %v", tc.what, err, tc.want)
					}
				}
				if pod.NICs[n2.ID] != nil || pod.SSDs[s2.ID] != nil || pod.NICs[n1.ID] == nil || pod.SSDs[s1.ID] == nil {
					t.Fatalf("device tables after removal: NICs %v SSDs %v", pod.NICs, pod.SSDs)
				}
				if err := inst.Assign(n2.ID, 0); !errors.Is(err, ErrNoSuchNode) {
					t.Fatalf("assign to the removed NIC: got %v, want ErrNoSuchNode", err)
				}
				if err := inst.Assign(n1.ID, n2.ID); !errors.Is(err, ErrNoSuchNode) {
					t.Fatalf("removed NIC as backup: got %v, want ErrNoSuchNode", err)
				}
				if _, err := pod.AddVolumeErr(pod.AddInstance(h3, IP(10, 0, 0, 11)), s2.ID, 16); !errors.Is(err, ErrNoSuchNode) || h3.SFE != nil {
					t.Fatalf("volume on the removed SSD: got %v, want ErrNoSuchNode and no storage frontend made", err)
				}

				pod.Start() // idempotent after Start
				settle := pod.Now() + 2*time.Millisecond
				pod.Run(settle)
				before = takeCensus(h2)
				pod.Run(settle + 4*time.Millisecond)
				d := takeCensus(h2)
				// One NIC link and the control link; one SSD link and the control link.
				if want := (d.fe-before.fe)*2 + (d.sfe-before.sfe)*2; abs64(d.fills-before.fills-want) > 4 || d.fe == before.fe || d.sfe == before.sfe {
					t.Fatalf("after the removals: %d fills over %d+%d iterations, want %d: a frontend still polls a removed device",
						d.fills-before.fills, d.fe-before.fe, d.sfe-before.sfe, want)
				}
				if !inst.Port.Ready() {
					t.Fatal("the instance on the surviving NIC is not ready")
				}
			})
		}
	}
}

func abs64(v int64) int64 { return max(v, -v) }

// TestAssignUnknownNIC: an assignment the pod cannot honour is refused at
// the facade with nothing queued — it used to return nil and take the
// frontend's process down on its next iteration (unknown id), or leave the
// instance holding a removed NIC's MAC, never ready (removed id).
func TestAssignUnknownNIC(t *testing.T) {
	cfg := DefaultConfig()
	pod := NewPod(cfg)
	h0, h1 := pod.AddHost(), pod.AddHost()
	n1, n2 := pod.AddNIC(h0, false), pod.AddNIC(h0, false)
	local := pod.AddLocalNIC(h1)
	inst := pod.AddInstance(h1, IP(10, 0, 0, 10))
	defer pod.Shutdown()
	pod.Start()
	pod.Run(time.Millisecond)
	if err := inst.Assign(99, 0); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("assign to unknown NIC 99: got %v, want ErrNoSuchNode", err)
	}
	if err := inst.Assign(local.ID, 0); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("assign to a baseline local NIC: got %v, want ErrNoSuchNode", err)
	}
	if err := pod.RemoveNICErr(n2.ID); err != nil {
		t.Fatal(err)
	}
	if err := inst.Assign(n2.ID, 0); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("assign to removed NIC: got %v, want ErrNoSuchNode", err)
	}
	pod.Run(2 * time.Millisecond) // the frontend iterates: nothing was queued
	if inst.Port.Ready() || inst.Port.UsesNIC(n2.ID) {
		t.Fatal("a refused assignment took effect")
	}
	if err := inst.Assign(n1.ID, 0); err != nil {
		t.Fatal(err)
	}
	pod.Run(4 * time.Millisecond)
	if !inst.Port.Ready() {
		t.Fatal("instance not ready on the NIC that does exist")
	}
}

// --- wrapper equivalence ---

// TestPanicWrappersMatchErrForms pins down that the legacy panic wrappers
// are pure pass-throughs: a pod built with AddHost/AddNIC/... and one
// built with the Err forms run the same workload to byte-identical
// observability snapshots.
func TestPanicWrappersMatchErrForms(t *testing.T) {
	workload := func(pod *Pod, inst *Instance, client *Client) []byte {
		pod.Start()
		inst.RequestAllocation()
		pod.Go("echo", func(p *Proc) {
			if !inst.WaitReady(p, 100*time.Millisecond) {
				return
			}
			conn, err := inst.Stack.ListenUDP(7)
			if err != nil {
				return
			}
			for {
				dg := conn.Recv(p)
				if conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data) != nil {
					return
				}
			}
		})
		pod.Go("client", func(p *Proc) {
			defer pod.Shutdown()
			conn, err := client.Stack.ListenUDP(0)
			if err != nil {
				return
			}
			p.Sleep(2 * time.Millisecond)
			for i := 0; i < 50; i++ {
				if conn.SendTo(p, inst.IPAddr(), 7, []byte("ping")) != nil {
					continue
				}
				conn.RecvTimeout(p, 2*time.Millisecond)
			}
		})
		pod.Run(time.Second)
		return pod.Stats().JSON()
	}

	viaPanic := func() []byte {
		pod := NewPod(DefaultConfig())
		hA := pod.AddHost()
		hB := pod.AddHost()
		pod.AddNIC(hB, false)
		pod.AddSSD(hB, 1<<12)
		inst := pod.AddInstance(hA, IP(10, 0, 0, 10))
		pod.AddVolume(inst, 1, 16)
		client := pod.AddClient(IP(10, 0, 99, 1))
		return workload(pod, inst, client)
	}
	viaErr := func() []byte {
		pod := NewPod(DefaultConfig())
		hA, err := pod.AddHostErr()
		if err != nil {
			t.Fatal(err)
		}
		hB, err := pod.AddHostErr()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pod.AddNICErr(hB, false); err != nil {
			t.Fatal(err)
		}
		if _, err := pod.AddSSDErr(hB, 1<<12); err != nil {
			t.Fatal(err)
		}
		inst, err := pod.AddInstanceErr(hA, IP(10, 0, 0, 10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pod.AddVolumeErr(inst, 1, 16); err != nil {
			t.Fatal(err)
		}
		client, err := pod.AddClientErr(IP(10, 0, 99, 1))
		if err != nil {
			t.Fatal(err)
		}
		return workload(pod, inst, client)
	}

	a, b := viaPanic(), viaErr()
	if !bytes.Equal(a, b) {
		t.Fatalf("panic-wrapper pod and Err-form pod diverged:\n--- wrappers ---\n%s\n--- Err forms ---\n%s", a, b)
	}
}
