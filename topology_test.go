package oasis

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// --- topology mutation edges ---

// TestForeignNodesRefused: in a cluster every builder refuses a host of
// another pod — and AddVolumeErr an instance of another pod — with
// ErrNoSuchNode and nothing built. Each used to succeed: a NIC built on pod
// 1's pool from pod 0's host snooped pod 0's cache, and the volume made a
// storage frontend on pod 0's host linked through pod 1's pool.
func TestForeignNodesRefused(t *testing.T) {
	_, p0, p1 := twoPodCluster(t)
	foreign := p0.Hosts[0]
	inst0 := p0.AddInstance(foreign, IP(10, 0, 0, 10))
	type census struct {
		nics, ssds, insts, ips int
		nextNIC, nextSSD       uint16
		sfe                    bool
	}
	take := func(p *Pod) census {
		return census{len(p.NICs), len(p.SSDs), p.Instances(), len(p.ips), p.nextNICID, p.nextSSDID, foreign.SFE != nil}
	}
	for _, tc := range []struct {
		builder string
		add     func() error
	}{
		{"AddNICErr", func() error { _, err := p1.AddNICErr(foreign, false); return err }},
		{"AddSSDErr", func() error { _, err := p1.AddSSDErr(foreign, 1<<12); return err }},
		{"AddInstanceErr", func() error { _, err := p1.AddInstanceErr(foreign, IP(10, 0, 1, 10)); return err }},
		{"AddLocalNICErr", func() error { _, err := p1.AddLocalNICErr(foreign); return err }},
		{"AddLocalInstanceErr", func() error { _, err := p1.AddLocalInstanceErr(foreign, IP(10, 0, 1, 11)); return err }},
		{"AddVolumeErr", func() error { _, err := p1.AddVolumeErr(inst0, 1, 16); return err }},
	} {
		before0, before1 := take(p0), take(p1)
		if err := tc.add(); !errors.Is(err, ErrNoSuchNode) {
			t.Errorf("pod1.%s with pod 0's node: got %v, want ErrNoSuchNode", tc.builder, err)
		}
		if after0, after1 := take(p0), take(p1); after0 != before0 || after1 != before1 {
			t.Errorf("pod1.%s with pod 0's node built something: pod0 %+v -> %+v, pod1 %+v -> %+v",
				tc.builder, before0, after0, before1, after1)
		}
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

// An instance and the clients share the pod's switch: one IP held twice
// would leave two stacks answering ARP for it, so a client claims its IP as
// an instance does, against both.
func TestClientClaimsItsIP(t *testing.T) {
	pod := NewPod(DefaultConfig())
	h := pod.AddHost()
	pod.AddNIC(h, false)
	pod.AddInstance(h, IP(10, 0, 0, 10))
	pod.AddClient(IP(10, 0, 99, 1))
	for _, tc := range []struct {
		what string
		add  func() error
	}{
		{"client on an instance's IP", func() error { _, err := pod.AddClientErr(IP(10, 0, 0, 10)); return err }},
		{"client on a client's IP", func() error { _, err := pod.AddClientErr(IP(10, 0, 99, 1)); return err }},
		{"instance on a client's IP", func() error { _, err := pod.AddInstanceErr(h, IP(10, 0, 99, 1)); return err }},
	} {
		if err := tc.add(); !errors.Is(err, ErrDuplicateNode) {
			t.Errorf("%s: got %v, want ErrDuplicateNode", tc.what, err)
		}
	}
	if len(pod.clients) != 1 || pod.Instances() != 1 {
		t.Fatalf("refused adds built nodes: %d clients, %d instances", len(pod.clients), pod.Instances())
	}
	if _, err := pod.AddClientErr(IP(10, 0, 99, 2)); err != nil {
		t.Fatalf("client on a free IP: %v", err)
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

// TestUnknownDeviceIDs: a device id the pod does not pool is refused at the
// facade with nothing queued or built. An Assign to an unknown NIC used to
// return nil and take the frontend's process down on its next iteration.
func TestUnknownDeviceIDs(t *testing.T) {
	cfg := DefaultConfig()
	pod := NewPod(cfg)
	h0, h1 := pod.AddHost(), pod.AddHost()
	n1 := pod.AddNIC(h0, false)
	pod.AddSSD(h0, 1<<12)
	local := pod.AddLocalNIC(h1)
	inst := pod.AddInstance(h1, IP(10, 0, 0, 10))
	defer pod.Shutdown()
	pod.Start()
	pod.Run(time.Millisecond)
	for _, tc := range []struct {
		what string
		try  func() error
	}{
		{"unknown NIC as primary", func() error { return inst.Assign(99, 0) }},
		{"unknown NIC as backup", func() error { return inst.Assign(n1.ID, 99) }},
		{"baseline local NIC as primary", func() error { return inst.Assign(local.ID, 0) }},
		{"baseline local NIC as backup", func() error { return inst.Assign(n1.ID, local.ID) }},
		{"volume on an unknown SSD", func() error { _, err := pod.AddVolumeErr(inst, 99, 16); return err }},
	} {
		if err := tc.try(); !errors.Is(err, ErrNoSuchNode) {
			t.Errorf("%s: got %v, want ErrNoSuchNode", tc.what, err)
		}
	}
	if h1.SFE != nil {
		t.Fatal("a refused volume made a storage frontend")
	}
	pod.Run(2 * time.Millisecond) // the frontend iterates: nothing was queued
	if inst.Port.Ready() {
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
