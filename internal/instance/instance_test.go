package instance

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/netstack"
	"oasis/internal/netsw"
	"oasis/internal/sim"
	"oasis/internal/ssd"
	"oasis/internal/storengine"
)

// node attaches a stack straight to a switch port (raw endpoint).
type node struct {
	stack *netstack.Stack
	port  *netsw.Port
}

func (n *node) Transmit(p *sim.Proc, frame []byte) { n.port.SendOwned(frame) }

func (n *node) DeliverFrame(f *netsw.Frame) { n.stack.DeliverFrame(f.Bytes) }

func twoNodes(eng *sim.Engine) (*node, *node) {
	sw := netsw.New(eng, netsw.DefaultParams())
	mk := func(name string, ip netstack.IP, macLow byte) *node {
		n := &node{}
		mac := netsw.MAC{0x02, 0, 0, 0, 0, macLow}
		n.port = sw.AttachPort(name, n)
		n.stack = netstack.NewStack(eng, name, ip, func() netsw.MAC { return mac }, n, netstack.DefaultConfig())
		n.stack.Start()
		return n
	}
	return mk("server", netstack.IPv4(10, 0, 0, 1), 1), mk("client", netstack.IPv4(10, 0, 0, 2), 2)
}

func TestEchoServer(t *testing.T) {
	eng := sim.New()
	server, client := twoNodes(eng)
	eng.Go("echo", func(p *sim.Proc) { Echo(p, server.stack, 7) })
	eng.Go("client", func(p *sim.Proc) {
		conn, _ := client.stack.ListenUDP(0)
		conn.SendTo(p, server.stack.IP(), 7, []byte("ping"))
		dg, ok := conn.RecvTimeout(p, 10*time.Millisecond)
		if !ok || !bytes.Equal(dg.Data, []byte("ping")) {
			t.Error("echo failed")
		}
		eng.Shutdown()
	})
	eng.Run()
}

func TestRRServerServiceTime(t *testing.T) {
	eng := sim.New()
	server, client := twoNodes(eng)
	svc := 100 * time.Microsecond
	if err := ServeRR(eng, server.stack, 80, RRConfig{Service: svc, RespSize: 1024}); err != nil {
		t.Fatal(err)
	}
	eng.Go("client", func(p *sim.Proc) {
		conn, err := client.stack.DialTCP(p, server.stack.IP(), 80)
		if err != nil {
			t.Error(err)
			eng.Shutdown()
			return
		}
		start := p.Now()
		resp, err := RRCall(p, conn, 128)
		if err != nil || len(resp) != 1024 {
			t.Errorf("RRCall: %v, %d bytes", err, len(resp))
		}
		if el := p.Now() - start; el < svc {
			t.Errorf("request completed in %v, faster than the %v service time", el, svc)
		}
		eng.Shutdown()
	})
	eng.Run()
}

func TestKVMemoryOnly(t *testing.T) {
	eng := sim.New()
	server, client := twoNodes(eng)
	store := NewStore(nil, 2*time.Microsecond)
	if err := ServeKV(eng, server.stack, 11211, store); err != nil {
		t.Fatal(err)
	}
	eng.Go("client", func(p *sim.Proc) {
		defer eng.Shutdown()
		kv, err := DialKV(p, client.stack, server.stack.IP(), 11211)
		if err != nil {
			t.Error(err)
			return
		}
		if _, found, _ := kv.Get(p, "missing"); found {
			t.Error("phantom key")
		}
		if err := kv.Set(p, "alpha", []byte("one")); err != nil {
			t.Error(err)
		}
		if err := kv.Set(p, "beta", bytes.Repeat([]byte{7}, 10000)); err != nil {
			t.Error(err)
		}
		v, found, err := kv.Get(p, "alpha")
		if err != nil || !found || string(v) != "one" {
			t.Errorf("get alpha = %q/%v/%v", v, found, err)
		}
		v, found, _ = kv.Get(p, "beta")
		if !found || len(v) != 10000 || v[500] != 7 {
			t.Error("large value corrupted")
		}
		if err := kv.Del(p, "alpha"); err != nil {
			t.Error(err)
		}
		if _, found, _ := kv.Get(p, "alpha"); found {
			t.Error("deleted key still present")
		}
	})
	eng.Run()
	if store.Sets != 2 || store.Dels != 1 || store.Hits != 2 || store.Misses != 2 {
		t.Fatalf("stats: %+v", *store)
	}
}

// volRig builds a cross-host storage-engine volume for persistence tests.
func volRig(t *testing.T) (*sim.Engine, *storengine.Volume) {
	t.Helper()
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<28, cxl.DefaultParams())
	hA := host.New(eng, 0, "hostA", pool, host.DefaultConfig())
	hB := host.New(eng, 1, "hostB", pool, host.DefaultConfig())
	dev := ssd.New(eng, "ssd0", pool.AttachPort("ssd0-dma"), ssd.DefaultParams())
	fe := storengine.NewFrontend(hA, pool)
	be := storengine.NewBackend(hB, 1, dev, 1<<18)
	if err := fe.ConnectBackend(be); err != nil {
		t.Fatal(err)
	}
	dev.Start()
	fe.Start()
	be.Start()
	vol, err := fe.AddVolume(netstack.IPv4(10, 0, 0, 1), 1, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	return eng, vol
}

// smallVolRig returns a tiny volume so exhaustion paths run fast.
func smallVolRig(t *testing.T) (*sim.Engine, *storengine.Volume) {
	t.Helper()
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<28, cxl.DefaultParams())
	hA := host.New(eng, 0, "hostA", pool, host.DefaultConfig())
	hB := host.New(eng, 1, "hostB", pool, host.DefaultConfig())
	dev := ssd.New(eng, "ssd0", pool.AttachPort("ssd0-dma"), ssd.DefaultParams())
	fe := storengine.NewFrontend(hA, pool)
	be := storengine.NewBackend(hB, 1, dev, 1<<12)
	if err := fe.ConnectBackend(be); err != nil {
		t.Fatal(err)
	}
	dev.Start()
	fe.Start()
	be.Start()
	vol, err := fe.AddVolume(netstack.IPv4(10, 0, 0, 1), 1, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	return eng, vol
}

func TestKVPersistenceAndRecovery(t *testing.T) {
	eng, vol := volRig(t)
	eng.Go("app", func(p *sim.Proc) {
		defer eng.Shutdown()
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("volume not ready")
			return
		}
		store := NewStore(vol, 2*time.Microsecond)
		want := map[string][]byte{}
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("key-%02d", i)
			val := bytes.Repeat([]byte{byte(i + 1)}, 100*(i+1))
			if err := store.Set(p, key, val); err != nil {
				t.Errorf("set %s: %v", key, err)
				return
			}
			want[key] = val
		}
		// Overwrite one and delete one: recovery must reflect both.
		store.Set(p, "key-03", []byte("rewritten"))
		want["key-03"] = []byte("rewritten")
		store.Del(p, "key-07")
		delete(want, "key-07")

		// "Soft reboot": a fresh store recovers from the same volume (§3.4
		// ephemeral-storage semantics).
		fresh := NewStore(vol, 2*time.Microsecond)
		if err := fresh.Recover(p); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		if fresh.Len() != len(want) {
			t.Errorf("recovered %d keys, want %d", fresh.Len(), len(want))
		}
		for key, val := range want {
			got, ok := fresh.Get(p, key)
			if !ok || !bytes.Equal(got, val) {
				t.Errorf("recovered %s mismatch (found=%v, %d bytes)", key, ok, len(got))
			}
		}
		if _, ok := fresh.Get(p, "key-07"); ok {
			t.Error("deleted key resurrected by recovery")
		}
		// New writes after recovery must not clobber existing slots.
		if err := fresh.Set(p, "post-recovery", []byte("x")); err != nil {
			t.Errorf("post-recovery set: %v", err)
		}
		got, _ := fresh.Get(p, "key-19")
		if !bytes.Equal(got, want["key-19"]) {
			t.Error("post-recovery write clobbered an existing slot")
		}
	})
	eng.Run()
}

func TestKVValueSizeLimits(t *testing.T) {
	eng, vol := volRig(t)
	eng.Go("app", func(p *sim.Proc) {
		defer eng.Shutdown()
		vol.WaitReady(p, 100*time.Millisecond)
		store := NewStore(vol, 0)
		if err := store.Set(p, "max", make([]byte, MaxValueLen)); err != nil {
			t.Errorf("max-size value rejected: %v", err)
		}
		if err := store.Set(p, "over", make([]byte, MaxValueLen+1)); err == nil {
			t.Error("oversized value accepted")
		}
		if err := store.Set(p, string(make([]byte, MaxKeyLen+1)), []byte("v")); err == nil {
			t.Error("oversized key accepted")
		}
	})
	eng.Run()
}

func TestKVVolumeFull(t *testing.T) {
	eng, vol := smallVolRig(t)
	eng.Go("app", func(p *sim.Proc) {
		defer eng.Shutdown()
		vol.WaitReady(p, 100*time.Millisecond)
		store := NewStore(vol, 0)
		// Volume: 1<<10 blocks; slots of 16 blocks after 64 index blocks →
		// (1024-64)/16 = 60 slots. Filling must eventually error cleanly.
		var err error
		for i := 0; i < 70; i++ {
			if err = store.Set(p, fmt.Sprintf("k%05d", i), []byte("v")); err != nil {
				break
			}
		}
		if err == nil {
			t.Error("volume never reported full")
		}
		// Earlier keys stay intact after the failure.
		if v, ok := store.Get(p, "k00000"); !ok || string(v) != "v" {
			t.Error("existing key damaged by exhaustion")
		}
	})
	eng.RunUntil(30 * time.Second)
	eng.Shutdown()
}
