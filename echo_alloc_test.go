package oasis

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"
)

// TestEchoMallocsPerRequest pins what a steady-state echo request costs the
// host allocator on the busy pod's pooled echo pair (an instance on host A,
// its NIC on host B, a raw client at 600 kpps, a quarter of the requests
// 1 458 B): nothing. Every frame is drawn from the engine's buffer pool and
// goes back to it — the switch recycles what it carries, stacks decode in
// place, a datagram is lent to the process that received it until its next
// receive — and a cache line dropped mid-fill is reused. The bound, one
// malloc per hundred requests, leaves room for a stray runtime malloc. Each
// echo is checked byte for byte, so under OASIS_SIMCHECK=1 a consumer that
// reads a frame after its release (the pool scribbles what it takes back)
// fails here.
func TestEchoMallocsPerRequest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoAllocator = true
	pod := NewPod(cfg)
	hostA := pod.AddHost()
	nic := pod.AddNIC(pod.AddHost(), false)
	inst := pod.AddInstance(hostA, IP(10, 0, 0, 10))
	client := pod.AddClient(IP(10, 0, 99, 1))
	pod.Start()
	if err := inst.Assign(nic.ID, 0); err != nil {
		t.Fatal(err)
	}
	const (
		interval = time.Second / 600e3
		settle   = 100 * time.Microsecond
		warm     = settle + 20*time.Millisecond
		window   = 2 * time.Millisecond
	)
	// request i is 75 B, or 1 458 B for every fourth; its bytes are a
	// function of i, so each echo can be checked whole.
	request := func(buf []byte, i uint64) []byte {
		req := buf[:75]
		if i%4 == 3 {
			req = buf[:1458]
		}
		binary.LittleEndian.PutUint64(req, i)
		for j := 8; j < len(req); j++ {
			req[j] = byte(i) + byte(j)
		}
		return req
	}
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
	var sent, echoed, wrong uint64
	pod.Go("sender", func(p *Proc) {
		conn, err := client.Stack.ListenUDP(0)
		if err != nil {
			t.Error(err)
			return
		}
		pod.Go("drain", func(p *Proc) {
			want := make([]byte, 1458)
			for {
				dg := conn.Recv(p)
				if len(dg.Data) < 8 || string(request(want, binary.LittleEndian.Uint64(dg.Data))) != string(dg.Data) {
					wrong++
					continue
				}
				echoed++
			}
		})
		buf := make([]byte, 1458)
		p.Sleep(settle)
		start := p.Now()
		for i := uint64(0); ; i++ {
			if wait := start + time.Duration(i)*interval - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
			if err := conn.SendTo(p, inst.IPAddr(), 7, request(buf, i)); err != nil {
				t.Error(err)
				return
			}
			sent++
		}
	})
	pod.Run(warm) // past the first touch of every pool page and cache line
	// One thread, as testing.AllocsPerRun measures, and the quietest of
	// three windows: a garbage collection can draw a stray runtime malloc
	// into one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var requests, mallocs uint64 = 0, 1 << 62
	for w := 1; w <= 3; w++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sent0 := sent
		pod.Run(warm + time.Duration(w)*window)
		runtime.ReadMemStats(&m1)
		if n := m1.Mallocs - m0.Mallocs; n < mallocs {
			requests, mallocs = sent-sent0, n
		}
	}
	pod.Shutdown()

	if wrong != 0 || sent == 0 || echoed+10 < sent {
		t.Fatalf("%d requests sent, %d echoed intact, %d echoes wrong", sent, echoed, wrong)
	}
	t.Logf("%d requests in the window, %d mallocs: %.2f per request",
		requests, mallocs, float64(mallocs)/float64(requests))
	if requests == 0 || mallocs > requests/100 {
		t.Errorf("%d requests cost %d mallocs, want at most one per hundred", requests, mallocs)
	}
}
