package storengine

import (
	"bytes"
	"testing"
	"time"

	"oasis/internal/bufpool"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/netstack"
	"oasis/internal/sim"
	"oasis/internal/ssd"
)

// storRig: host A runs the frontend (instance side), host B owns the SSD.
type storRig struct {
	eng  *sim.Engine
	pool *cxl.Pool
	hA   *host.Host
	hB   *host.Host
	fe   *Frontend
	be   *Backend
	dev  *ssd.SSD
}

func newStorRig(t *testing.T) *storRig {
	t.Helper()
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<28, cxl.DefaultParams())
	hA := host.New(eng, 0, "hostA", pool, host.DefaultConfig())
	hB := host.New(eng, 1, "hostB", pool, host.DefaultConfig())
	dev := ssd.New(eng, "ssd0", pool.AttachPort("ssd0-dma"), ssd.DefaultParams())
	fe := NewFrontend(hA, pool)
	be := NewBackend(hB, 1, dev, 1<<18)
	if err := fe.ConnectBackend(be); err != nil {
		t.Fatal(err)
	}
	dev.Start()
	fe.Start()
	be.Start()
	return &storRig{eng: eng, pool: pool, hA: hA, hB: hB, fe: fe, be: be, dev: dev}
}

func TestVolumeWriteReadRoundTrip(t *testing.T) {
	r := newStorRig(t)
	vol, err := r.fe.AddVolume(netstack.IPv4(10, 0, 0, 1), 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A, 0xA5, 0x11, 0x22}, 2*ssd.BlockSize/4)
	r.eng.Go("app", func(p *sim.Proc) {
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("volume never ready")
			return
		}
		if err := vol.Write(p, 10, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got, err := vol.Read(p, 10, 2)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("remote-SSD round trip mismatch")
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.fe.Reads != 1 || r.fe.Writes != 1 {
		t.Fatalf("fe counters: reads=%d writes=%d", r.fe.Reads, r.fe.Writes)
	}
	if r.be.Submitted != 2 || r.be.Completed != 2 {
		t.Fatalf("be counters: submitted=%d completed=%d", r.be.Submitted, r.be.Completed)
	}
}

func TestVolumeIsolationBounds(t *testing.T) {
	r := newStorRig(t)
	v1, _ := r.fe.AddVolume(netstack.IPv4(10, 0, 0, 1), 1, 100)
	v2, _ := r.fe.AddVolume(netstack.IPv4(10, 0, 0, 2), 1, 100)
	r.eng.Go("app", func(p *sim.Proc) {
		v1.WaitReady(p, 100*time.Millisecond)
		v2.WaitReady(p, 100*time.Millisecond)
		if v1.base == v2.base {
			t.Error("volumes overlap on the device")
		}
		// v1 writes its block 0; v2's block 0 must stay zero.
		blk := bytes.Repeat([]byte{7}, ssd.BlockSize)
		if err := v1.Write(p, 0, blk); err != nil {
			t.Errorf("v1 write: %v", err)
		}
		got, err := v2.Read(p, 0, 1)
		if err != nil {
			t.Errorf("v2 read: %v", err)
			return
		}
		for _, b := range got {
			if b != 0 {
				t.Error("v2 sees v1's data: isolation broken")
				return
			}
		}
		// Out-of-bounds access is refused by the backend.
		if _, err := v1.Read(p, 99, 2); err == nil {
			t.Error("cross-boundary read allowed")
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

func TestDriveFailurePropagatesErrors(t *testing.T) {
	r := newStorRig(t)
	vol, _ := r.fe.AddVolume(netstack.IPv4(10, 0, 0, 1), 1, 1024)
	r.eng.Go("app", func(p *sim.Proc) {
		vol.WaitReady(p, 100*time.Millisecond)
		blk := make([]byte, ssd.BlockSize)
		if err := vol.Write(p, 0, blk); err != nil {
			t.Errorf("pre-failure write: %v", err)
		}
		r.dev.Fail()
		// §3.4: the engine propagates an I/O error to the guest.
		if err := vol.Write(p, 1, blk); err == nil {
			t.Error("write on failed drive succeeded")
		}
		if _, err := vol.Read(p, 0, 1); err == nil {
			t.Error("read on failed drive succeeded")
		}
		if vol.IOErrors != 2 {
			t.Errorf("volume IO errors = %d, want 2", vol.IOErrors)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

func TestRegistrationDeniedWhenFull(t *testing.T) {
	r := newStorRig(t)
	// Capacity is 1<<18 blocks; ask for more across two volumes.
	v1, _ := r.fe.AddVolume(netstack.IPv4(10, 0, 0, 1), 1, 1<<18)
	v2, _ := r.fe.AddVolume(netstack.IPv4(10, 0, 0, 2), 1, 1)
	r.eng.Go("app", func(p *sim.Proc) {
		v1.WaitReady(p, 100*time.Millisecond)
		v2.WaitReady(p, 100*time.Millisecond)
		if v1.Blocks() != 1<<18 {
			t.Errorf("v1 blocks = %d", v1.Blocks())
		}
		if v2.Blocks() != 0 {
			t.Errorf("v2 should have been denied, got %d blocks", v2.Blocks())
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
	if r.be.RegistrationsDenied != 1 {
		t.Fatalf("denied = %d", r.be.RegistrationsDenied)
	}
}

func TestRemoteReadLatency(t *testing.T) {
	r := newStorRig(t)
	vol, _ := r.fe.AddVolume(netstack.IPv4(10, 0, 0, 1), 1, 1024)
	r.eng.Go("app", func(p *sim.Proc) {
		vol.WaitReady(p, 100*time.Millisecond)
		blk := make([]byte, ssd.BlockSize)
		vol.Write(p, 0, blk)
		start := p.Now()
		if _, err := vol.Read(p, 0, 1); err != nil {
			t.Errorf("read: %v", err)
		}
		lat := p.Now() - start
		// Device ~100 µs dominates; Oasis adds single-digit µs (§5.1's
		// thesis applied to storage).
		if lat < 80*time.Microsecond || lat > 150*time.Microsecond {
			t.Errorf("remote read latency = %v, want ~100µs + small overhead", lat)
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}

func TestCodecRoundTrip(t *testing.T) {
	msgs := []smsg{
		{op: sOpRead, cid: 7, lba: 123456789, blocks: 16, buf: 0x1234567, ip: netstack.IPv4(10, 0, 0, 9)},
		{op: sOpWrite, cid: 65535, lba: 1 << 40, blocks: 1, buf: 1 << 30, ip: 1},
		{op: sOpComplete, cid: 42, status: ssd.StatusDeviceFault},
		{op: sOpComplete, cid: 43, status: ssd.StatusOK, epoch: 65535},
		{op: sOpRegister, ip: netstack.IPv4(1, 2, 3, 4), size: 1 << 20, epoch: 3},
		{op: sOpRegisterAck, ip: 5, base: 777, size: 888},
	}
	var buf [63]byte
	for i, m := range msgs {
		payload := m.encode(buf[:])
		if len(payload) > 63 {
			t.Fatalf("msg %d: %d bytes exceeds payload", i, len(payload))
		}
		// Pad to full payload size as the channel would deliver it.
		full := make([]byte, 63)
		copy(full, payload)
		got := sdecode(full)
		if got != m {
			t.Fatalf("msg %d round trip:\n got %+v\nwant %+v", i, got, m)
		}
	}
}

// TestDirtyTrackingMarksAndCoalesces exercises the pre-copy migration
// primitive: tracking marks exactly the blocks of acked writes, TakeDirty
// drains them as sorted, coalesced ranges, and stopping the tracker both
// disarms marking and clears any residue.
func TestDirtyTrackingMarksAndCoalesces(t *testing.T) {
	r := newStorRig(t)
	vol, err := r.fe.AddVolume(netstack.IPv4(10, 0, 0, 1), 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Go("app", func(p *sim.Proc) {
		defer r.eng.Shutdown()
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("volume never ready")
			return
		}
		blk := bytes.Repeat([]byte{3}, ssd.BlockSize)
		// Writes before tracking arms must not be recorded.
		if err := vol.Write(p, 0, blk); err != nil {
			t.Errorf("pre-tracking write: %v", err)
		}
		vol.StartDirtyTracking()
		if vol.DirtyCount() != 0 {
			t.Errorf("fresh tracker has %d dirty blocks", vol.DirtyCount())
		}
		// 10,11,12 coalesce; 30 stands alone; a two-block write spans 40-41.
		for _, lba := range []uint64{11, 30, 10, 12} {
			if err := vol.Write(p, lba, blk); err != nil {
				t.Errorf("write lba %d: %v", lba, err)
			}
		}
		wide := bytes.Repeat([]byte{4}, 2*ssd.BlockSize)
		if err := vol.Write(p, 40, wide); err != nil {
			t.Errorf("write lba 40-41: %v", err)
		}
		if got := vol.DirtyCount(); got != 6 {
			t.Errorf("DirtyCount = %d, want 6", got)
		}
		dirty := vol.TakeDirty()
		want := []DirtyRange{{LBA: 10, Blocks: 3}, {LBA: 30, Blocks: 1}, {LBA: 40, Blocks: 2}}
		if len(dirty) != len(want) {
			t.Fatalf("TakeDirty = %v, want %v", dirty, want)
		}
		for i := range want {
			if dirty[i] != want[i] {
				t.Fatalf("TakeDirty[%d] = %v, want %v", i, dirty[i], want[i])
			}
		}
		// TakeDirty drains: the set restarts empty but tracking stays armed.
		if vol.DirtyCount() != 0 {
			t.Errorf("dirty set not drained by TakeDirty: %d left", vol.DirtyCount())
		}
		if err := vol.Write(p, 5, blk); err != nil {
			t.Errorf("post-drain write: %v", err)
		}
		if vol.DirtyCount() != 1 {
			t.Errorf("tracking disarmed by TakeDirty: count = %d, want 1", vol.DirtyCount())
		}
		// Stop disarms and clears.
		vol.StopDirtyTracking()
		if err := vol.Write(p, 6, blk); err != nil {
			t.Errorf("post-stop write: %v", err)
		}
		if vol.DirtyCount() != 0 {
			t.Errorf("StopDirtyTracking left %d dirty blocks", vol.DirtyCount())
		}
	})
	r.eng.Run()
}

// pooled reports whether buf's array is on the pool's free list, putting back
// what it draws to look.
func pooled(pool *bufpool.Pool, buf []byte) bool {
	var drawn [][]byte
	found := false
	for {
		hits := pool.Hits
		b := pool.Get(len(buf))
		if pool.Hits == hits {
			break // the free list is empty: b is new
		}
		drawn = append(drawn, b)
		found = found || &b[0] == &buf[0]
	}
	for i := len(drawn) - 1; i >= 0; i-- {
		pool.Put(drawn[i])
	}
	return found
}

// TestVolumeReadLentToItsReader pins the lending rule on one volume read by
// two processes: each one's data stays byte-exact and out of the pool while
// the other reads and while it sleeps, and goes back at its own next Read.
func TestVolumeReadLentToItsReader(t *testing.T) {
	r := newStorRig(t)
	vol, _ := r.fe.AddVolume(netstack.IPv4(10, 0, 0, 1), 1, 64)
	bufs := r.eng.Bufs()
	block := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, ssd.BlockSize) }
	// read reads block i, checks it, sleeps, and checks it again.
	read := func(p *sim.Proc, i int, sleep sim.Duration) []byte {
		got, err := vol.Read(p, uint64(i), 1)
		if err != nil {
			t.Errorf("read %d: %v", i, err)
			return make([]byte, ssd.BlockSize)
		}
		p.Sleep(sleep)
		if !bytes.Equal(got, block(i)) || pooled(bufs, got) {
			t.Errorf("block %d changed or went back to the pool before its reader's next Read", i)
		}
		return got
	}
	r.eng.Go("app", func(p *sim.Proc) {
		if !vol.WaitReady(p, 100*time.Millisecond) {
			t.Error("volume never ready")
			return
		}
		for i := 0; i < 8; i++ {
			if err := vol.Write(p, uint64(i), block(i)); err != nil {
				t.Error(err)
				return
			}
		}
		r.eng.Go("two", func(p *sim.Proc) {
			for i := 1; i < 8; i++ {
				read(p, i, 20*time.Microsecond)
			}
		})
		got := read(p, 0, 5*time.Millisecond) // "two" reads seven blocks meanwhile
		next := read(p, 1, 0)
		if &next[0] != &got[0] && !pooled(bufs, got) {
			t.Error("the next Read did not give the last one's data back to the pool")
		}
		r.eng.Shutdown()
	})
	r.eng.Run()
}
