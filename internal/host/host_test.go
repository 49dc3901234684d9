package host

import (
	"testing"
	"time"

	"oasis/internal/cxl"
	"oasis/internal/sim"
)

func TestHostInPod(t *testing.T) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<20, cxl.DefaultParams())
	h := New(eng, 0, "host0", pool, DefaultConfig())
	if !h.InPod() || h.Cache == nil || h.CXLPort == nil {
		t.Fatal("pod host must have CXL port and cache")
	}
	client := New(eng, 1, "client", nil, DefaultConfig())
	if client.InPod() || client.Cache != nil {
		t.Fatal("non-pod host must not have CXL attachments")
	}
}

// A copy through local memory costs one DRAM access plus its bytes at the
// streaming bandwidth.
func TestTouchCost(t *testing.T) {
	h := New(sim.New(), 0, "h", nil, DefaultConfig())
	for _, tc := range []struct {
		n    int
		want sim.Duration
	}{
		{0, 90 * time.Nanosecond},
		{64, 91 * time.Nanosecond},
		{64_000, 1090 * time.Nanosecond},
	} {
		if got := h.TouchCost(tc.n); got != tc.want {
			t.Errorf("TouchCost(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
