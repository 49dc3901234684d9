package cxl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"oasis/internal/sim"
)

// A FetchRun is FetchLine call for call: on seeded programs over regions of
// three latency classes, two pools take the same runs of line reads at the
// same instants — one line by line with FetchLine, the other with
// BeginFetch, Fetch and End, a run split wherever its regions' load latency
// changes — between other reads of the port, QoS shares, jitter and
// degradation set and cleared. Every arrival, the meters and the read
// direction's occupancy must match after every run, and so must the next
// FetchLine's arrival, which queues behind the run's reservations.
func TestFetchRunMatchesFetchLine(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		want := runFetchProgram(t, seed, false)
		if got := runFetchProgram(t, seed, true); got != want {
			t.Fatalf("seed %d: runs diverged from FetchLine\nFetchLine:\n%s\nFetchRun:\n%s", seed, want, got)
		}
	}
}

func runFetchProgram(t *testing.T, seed int64, batched bool) string {
	eng := sim.New()
	pool := NewPool(eng, 1<<22, DefaultParams())
	var regions []Region
	for _, c := range []Class{{}, LocalClass(), {Load: 450 * time.Nanosecond}} {
		r, err := pool.AllocClass(1<<16, c)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	pt := pool.AttachPort("host")
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	eng.Go("reader", func(p *sim.Proc) {
		for step := 0; step < 60; step++ {
			p.Sleep(sim.Duration(rng.Intn(400)) * time.Nanosecond)
			switch rng.Intn(8) {
			case 0:
				pt.SetQoS([]string{"message", "payload"}[rng.Intn(2)], 0.1+0.9*rng.Float64())
			case 1:
				pt.SetJitter(sim.Duration(rng.Intn(20)) * time.Nanosecond)
			case 2:
				pt.SetDegraded(1+2*rng.Float64(), 0.2+0.8*rng.Float64())
			case 3:
				pt.SetDegraded(1, 1)
			case 4:
				pt.DMARead(regions[0].Base, make([]byte, 64*(1+rng.Intn(16))), "payload")
			}
			category := []string{"message", "payload", "raft"}[rng.Intn(3)]
			var arrivals []sim.Duration
			var run FetchRun
			for n := rng.Intn(40); n > 0; n-- {
				r := regions[rng.Intn(len(regions))]
				addr := r.Base + int64(rng.Intn(int(r.Size/LineSize)))*LineSize
				if !batched {
					arrivals = append(arrivals, pt.FetchLine(addr, category))
					continue
				}
				if run.pt == nil || run.Load() != r.LoadLatency() {
					run.End()
					run = pt.BeginFetch(category, r.LoadLatency())
				}
				arrivals = append(arrivals, run.Fetch())
			}
			if batched {
				run.End()
			}
			fmt.Fprintf(&b, "%d %s %v rd %d %s %d busy %d next %d\n", p.Now(), category, arrivals, pt.ReadMeter().Total(),
				category, pt.ReadMeter().Category(category), pt.ReadBusy(), pt.FetchLine(regions[1].Base, category))
		}
	})
	eng.RunUntil(time.Second)
	eng.Shutdown()
	return b.String()
}

// A region Alloc returns lies in its pool, so every line of it passes the
// range check a batched fetch leaves to its caller; one moved past the
// pool's end, or to a negative base, does not.
func TestRegionInPool(t *testing.T) {
	pool := newTestPool(1 << 16)
	r, err := pool.Alloc(1 << 15)
	if err != nil {
		t.Fatal(err)
	}
	if !r.InPool() {
		t.Fatalf("region [%d, %d) from Alloc is not in its pool", r.Base, r.Base+r.Size)
	}
	for a := r.Base; a < r.Base+r.Size; a += LineSize {
		pool.checkRange(a, LineSize) // panics if out of range
	}
	moved, negative, zero := r, r, Region{}
	moved.Base += 1 << 15
	moved.Size++
	negative.Base = -LineSize
	for _, bad := range []Region{moved, negative, zero} {
		if bad.InPool() {
			t.Fatalf("region [%d, %d) reported in a pool of %d bytes", bad.Base, bad.Base+bad.Size, pool.size)
		}
	}
}
