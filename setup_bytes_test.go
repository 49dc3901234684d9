package oasis

import (
	"runtime"
	"testing"
)

// Host memory follows what the model touches: building and starting the
// repository benchmark's rack — 4 pods of 32 hosts, 3 NICs, an SSD and 3
// clients each — allocates no ring-sized sender copies, no histogram
// counters for links that carry nothing and no flat page table. With all
// three sized up front it allocated 219 MB.
func TestRackSetupBytes(t *testing.T) {
	const limit = 16 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCluster()
	for i := 0; i < 4; i++ {
		cfg := DefaultConfig()
		cfg.PoolBytes = 256 << 20
		p := c.AddPod(cfg)
		for h := 0; h < 32; h++ {
			p.AddHost()
		}
		for n := 0; n < 3; n++ {
			p.AddNIC(p.Hosts[31-n], false)
		}
		p.AddSSD(p.Hosts[31], 1<<16)
		for f := 0; f < 3; f++ {
			p.AddClient(IP(10, byte(i), 99, byte(1+f)))
		}
	}
	c.Start()
	runtime.ReadMemStats(&after)
	c.Shutdown()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("128-host rack build + Start: %d B allocated (limit %d B)", got, limit)
	if got > limit {
		t.Errorf("building and starting the rack allocated %d B, want at most %d", got, limit)
	}
}
