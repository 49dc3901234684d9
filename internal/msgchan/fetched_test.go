package msgchan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"oasis/internal/cache"
	"oasis/internal/cxl"
	"oasis/internal/sim"
)

// A ring polled the way a pass polls it — its fetch booked on a batched run
// (LoadAheadIn), then PollFetched, or its steps where that declines —
// against the same ring polled with LoadAhead and its steps, as the blocking
// reference pass polls, on seeded programs: a sender at random times, polls
// at random times, another agent booking the receiver's port, and the
// port's jitter and degradation toggled. After every poll and its closing
// run, each side logs the clock and every receiver field that a later poll,
// a pass or a caller reads — not the slot buffer of an empty poll, which
// Payload never returns, nor the line run of one whose run is over — with
// the cache's counters and the port's meter and occupancy; the logs must
// match, and the batched side must have answered some polls from its fetch.
// Under OASIS_SIMCHECK=1 no ring is fetched uncached, and both sides step.
func TestPollFetchedMatchesSteppedPoll(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		want, _ := runFetchedProgram(t, seed, false)
		got, fetched := runFetchedProgram(t, seed, true)
		if got != want {
			t.Fatalf("seed %d: the batched poll diverged from the stepped one\n%s", seed, logDiff(want, got))
		}
		if fetched == 0 && !sim.Checking() { // OASIS_SIMCHECK=1 takes the cached path
			t.Fatalf("seed %d: no poll was answered from its batched fetch", seed)
		}
	}
}

// runFetchedProgram runs one seeded program and returns its log and how
// many polls PollFetched answered.
func runFetchedProgram(t *testing.T, seed int64, batched bool) (string, int64) {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<20, cxl.DefaultParams())
	cfg := Config{Slots: 64, MsgSize: 16, CounterBatch: 8, Design: DesignInvalidatePrefetched}
	region, err := pool.Alloc(RegionBytes(cfg))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := pool.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(region, cfg)
	if err != nil {
		t.Fatal(err)
	}
	txPort, rxPort := pool.AttachPort("tx"), pool.AttachPort("rx")
	c := cache.New(eng, rxPort, cache.DefaultParams())
	s, r := NewSender(ch, txPort, cache.DefaultParams()), NewReceiver(ch, c)

	var b strings.Builder
	eng.Go("tx", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; ; i++ {
			p.Sleep(sim.Duration(rng.Intn(3000)) * time.Nanosecond)
			for k := rng.Intn(4); k > 0; k-- {
				s.TrySend(p, []byte{byte(i), byte(k)})
			}
			s.Flush(p)
		}
	})
	eng.Go("agent", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(seed + 1000))
		for {
			p.Sleep(sim.Duration(rng.Intn(2000)) * time.Nanosecond)
			switch rng.Intn(6) {
			case 0:
				rxPort.FetchLine(buf.Base, "message")
			case 1:
				rxPort.DMARead(buf.Base, make([]byte, 1024), "payload")
			case 2:
				rxPort.SetJitter(sim.Duration(rng.Intn(10)) * time.Nanosecond)
			case 3:
				rxPort.SetDegraded(1+rng.Float64(), 0.25+0.75*rng.Float64())
			case 4:
				rxPort.SetDegraded(1, 1)
			}
		}
	})
	eng.Go("rx", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(seed + 2000))
		for {
			p.Sleep(sim.Duration(rng.Intn(800)) * time.Nanosecond)
			var loaded sim.Duration
			if batched {
				var run cache.FetchRun
				loaded = r.LoadAheadIn(&run)
				run.End()
			} else {
				loaded = r.LoadAhead()
			}
			if wait := loaded - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
			var payload []byte
			flush, fetched := sim.Duration(0), false
			if batched {
				flush, fetched = r.PollFetched()
			}
			if !fetched {
				r.Begin()
				p.RunJob(r)
				payload = r.Payload()
				flush = r.DeferredCost()
			}
			if flush > 0 {
				p.Sleep(flush + r.FenceLatency())
				r.FlushDeferred()
			}
			fmt.Fprintf(&b, "%d payload %x tail %d %+v pending %d prefetched %d ahead %d pc %d fresh %v uncached %v deferred %v rx %d empty %d counter %d cache %+v rd %d busy %d\n",
				p.Now(), payload, r.tail, r.tailPos, r.pendingConsumed, r.highestPrefetched, r.ahead, r.pc, r.fresh, r.uncached,
				r.deferred, r.Received, r.EmptyPolls, r.CounterUpdates, c.Stats(), rxPort.ReadMeter().Total(), rxPort.ReadBusy())
		}
	})
	eng.RunUntil(300 * time.Microsecond)
	eng.Shutdown()
	return b.String(), r.Fetched
}

// logDiff renders the first line where two logs differ, with what precedes
// it.
func logDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d\n%s\nstepped: %s\nbatched: %s", i, strings.Join(w[max(i-3, 0):i], "\n"), w[i], g[i])
		}
	}
	return fmt.Sprintf("one log is a prefix of the other: %d vs %d lines", len(w), len(g))
}

// A ring is laid out only in a region that lies in its pool, the range
// check its batched fetches rely on (cxl.FetchRun): New refuses a region
// moved past the pool's end.
func TestNewRefusesRegionOutsidePool(t *testing.T) {
	pool := cxl.NewPool(sim.New(), 1<<20, cxl.DefaultParams())
	cfg := DefaultConfig()
	region, err := pool.Alloc(RegionBytes(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(region, cfg); err != nil {
		t.Fatal(err)
	}
	region.Base = 1<<20 - region.Size + cxl.LineSize
	if _, err := New(region, cfg); err == nil {
		t.Fatalf("New laid a ring out in [%d, %d), past the end of a %d-byte pool", region.Base, region.Base+region.Size, 1<<20)
	}
}
