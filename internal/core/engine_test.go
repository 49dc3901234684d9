package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oasis/internal/host"
	"oasis/internal/obs"
	"oasis/internal/sim"
)

// stubLoop returns 1 item per poll for the first busy polls, each taking
// cost, then 0 forever.
type stubLoop struct {
	busy  int
	cost  sim.Duration
	polls int
}

// stage is the stub as a never-idle work stage.
func (s *stubLoop) stage() Stage {
	return WorkStage("stub", func() bool { return false }, s.PollOnce)
}

func (s *stubLoop) PollOnce(p *sim.Proc) int {
	s.polls++
	if s.polls <= s.busy {
		p.Sleep(s.cost)
		return 1
	}
	return 0
}

// An engine's core is built with its stage list, named after its loop, and
// runs that list and nothing else: Start is idempotent, every item the loop
// processes is counted, and empty iterations back off.
func TestSeatLaunchModes(t *testing.T) {
	eng, pool := testPool()
	h := host.New(eng, 0, "h", pool, host.DefaultConfig())
	own := &stubLoop{busy: 10, cost: 50 * time.Nanosecond}
	d := NewDriver(h, "h/own", DriverConfig{LoopCost: 100 * time.Nanosecond, IdleBackoff: time.Microsecond}, own.stage())
	r := obs.New()
	d.RegisterObs(r, "core/"+d.Name())
	d.Start()
	d.Start() // idempotent
	eng.RunUntil(sim.Duration(time.Millisecond))
	if int64(own.polls) != d.Iterations {
		t.Fatalf("%d polls over %d iterations, want one per iteration", own.polls, d.Iterations)
	}
	if d.Processed != 10 {
		t.Fatalf("processed = %d, want 10", d.Processed)
	}
	if d.IdleIterations == 0 || d.IdleIterations >= d.Iterations {
		t.Fatalf("iterations=%d idle=%d: backoff accounting broken", d.Iterations, d.IdleIterations)
	}
	// With a 100ns loop cost and 1µs idle cap, a busy-polling core would run
	// ~10k iterations/ms; backoff must have cut that well down.
	if d.Iterations > 5000 {
		t.Fatalf("%d iterations in 1ms: idle backoff not applied", d.Iterations)
	}
	// A busy iteration is its work and its LoopCost; idle ones count nothing.
	if got := r.Snapshot(0).Value("core/h/own/busy_ns"); got != 10*(50+100) {
		t.Fatalf("core/h/own/busy_ns = %v, want 10 busy iterations × (50 + 100) ns", got)
	}
}

// A core runs one loop: Attach on a core that already has a stage list
// panics, naming the core, instead of appending a second loop.
func TestAttachPanicsOnSecondLoop(t *testing.T) {
	eng, pool := testPool()
	h := host.New(eng, 0, "h", pool, host.DefaultConfig())
	d := NewDriver(h, "h/own", DriverConfig{}, (&stubLoop{}).stage())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Attach accepted a second loop")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "h/own") {
			t.Fatalf("panic %q does not name the core h/own", msg)
		}
	}()
	d.Attach(&stubLoop{})
}

func TestNextIdleDoublesToCap(t *testing.T) {
	start, cap := sim.Duration(100), sim.Duration(1000)
	want := []sim.Duration{100, 200, 400, 800, 1000, 1000}
	for i, w := range want {
		if got := Backoff(start, cap, i); got != w {
			t.Fatalf("step %d: idle = %v, want %v", i, got, w)
		}
	}
	if Backoff(100, 0, 3) != 0 {
		t.Fatal("zero cap must disable backoff (busy-poll)")
	}
}

// TestBackoffPerCaller lists what each calling site waits at attempts 0–12
// with its own constants, as literals: storengine's request retry (1-based
// attempts), the allocator's propose retry, netengine's allocation-request
// retry (the k-th resend) and the driver's idle sleep at LoopCost 60 ns (the
// pod default cap and the campaigns' 200 µs). These sequences are in every
// golden; a caller's waits may not move.
func TestBackoffPerCaller(t *testing.T) {
	ms, us, ns := time.Millisecond, time.Microsecond, time.Nanosecond
	for _, tc := range []struct {
		site      string
		base, cap sim.Duration
		first     int // the n of attempt 0
		want      [13]sim.Duration
	}{
		{"storengine retry", 5 * ms, 100 * ms, -1,
			[13]sim.Duration{5 * ms, 5 * ms, 10 * ms, 20 * ms, 40 * ms, 80 * ms, 100 * ms, 100 * ms, 100 * ms, 100 * ms, 100 * ms, 100 * ms, 100 * ms}},
		{"allocator propose retry", 25 * ms, 200 * ms, 0,
			[13]sim.Duration{25 * ms, 50 * ms, 100 * ms, 200 * ms, 200 * ms, 200 * ms, 200 * ms, 200 * ms, 200 * ms, 200 * ms, 200 * ms, 200 * ms, 200 * ms}},
		{"netengine alloc retry", 10 * ms, 500 * ms, 0,
			[13]sim.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 320 * ms, 500 * ms, 500 * ms, 500 * ms, 500 * ms, 500 * ms, 500 * ms, 500 * ms}},
		{"driver idle, 1µs cap", 60 * ns, us, 0,
			[13]sim.Duration{60 * ns, 120 * ns, 240 * ns, 480 * ns, 960 * ns, us, us, us, us, us, us, us, us}},
		{"driver idle, 200µs cap", 60 * ns, 200 * us, 0,
			[13]sim.Duration{60 * ns, 120 * ns, 240 * ns, 480 * ns, 960 * ns, 1920 * ns, 3840 * ns, 7680 * ns, 15360 * ns, 30720 * ns, 61440 * ns, 122880 * ns, 200 * us}},
	} {
		for attempt, want := range tc.want {
			if got := Backoff(tc.base, tc.cap, tc.first+attempt); got != want {
				t.Errorf("%s attempt %d: %v, want %v", tc.site, attempt, got, want)
			}
		}
	}
	// The stateless form agrees with the blocking reference loop's stateful
	// doubling wherever the driver can take it: any start, any cap, runs far
	// past the cap.
	for _, start := range []sim.Duration{0, 1, 60, 150, 5000} {
		for _, cap := range []sim.Duration{0, 1, 1000, 200_000, 1 << 61} {
			cur := sim.Duration(0)
			for n := 0; n < 80; n++ {
				cur = refNextIdle(cur, start, cap)
				if got := Backoff(start, cap, n); got != cur {
					t.Fatalf("start %v cap %v n %d: %v, want %v", start, cap, n, got, cur)
				}
			}
		}
	}
}

// A buffer area's pressure reaches the operator through obs, the one read
// path of every engine counter.
func TestEngineStatsSurfaceBufferExhaustion(t *testing.T) {
	_, pool := testPool()
	region, _ := pool.Alloc(8192)
	a, err := NewBufferArea(region, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := a.Alloc(); !ok {
			break
		}
	}
	a.Free(region.Base)
	// The freed buffer goes again, then the area is empty a second time.
	a.Alloc()
	a.Alloc()
	r := obs.New()
	a.RegisterObs(r, "host0/fe")
	s := r.Snapshot(0)
	for _, c := range []struct {
		name string
		want float64
	}{{"buf_allocs", 5}, {"buf_frees", 1}, {"buf_alloc_fails", 2}, {"buf_free", 0}} {
		if got := s.Value("host0/fe/" + c.name); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

// Under OASIS_SIMCHECK=1 the driver runs the work stages it would have
// skipped and holds them to their predicate's word: nothing processed, no
// time passed, nothing scheduled. A predicate that drifts from its run then
// fails loudly, naming the loop and the stage, instead of moving a digest.
func TestSimCheckDistrustsIdle(t *testing.T) {
	defer func(old bool) { checking = old }(checking)
	checking = true
	for _, tc := range []struct {
		name string
		run  func(p *sim.Proc) int
		want string // "" = the stage keeps its word
	}{
		{"honest", func(*sim.Proc) int { return 0 }, ""},
		{"processes", func(*sim.Proc) int { return 2 }, "processed 2 items"},
		{"sleeps", func(p *sim.Proc) int { p.Sleep(5 * time.Nanosecond); return 0 }, "took 5ns"},
		{"schedules", func(p *sim.Proc) int { p.Engine().After(time.Second, func() {}); return 0 }, "scheduled 1 events"},
	} {
		eng, pool := testPool()
		h := host.New(eng, 0, "h", pool, host.DefaultConfig())
		d := NewDriver(h, "h/liar", DriverConfig{LoopCost: 100 * time.Nanosecond}, WorkStage("fibs", func() bool { return true }, tc.run))
		var got string
		eng.Go("core", func(p *sim.Proc) {
			defer func() {
				if r := recover(); r != nil {
					got = fmt.Sprint(r)
				}
			}()
			if _, more := d.Step(); more {
				t.Errorf("%s: Step skipped a work stage under SIMCHECK", tc.name)
			}
			d.block(p)
		})
		eng.RunUntil(time.Microsecond)
		eng.Shutdown()
		switch {
		case tc.want == "" && got != "":
			t.Errorf("%s: panicked: %s", tc.name, got)
		case tc.want != "" && !(strings.Contains(got, tc.want) && strings.Contains(got, "h/liar") && strings.Contains(got, `"fibs"`)):
			t.Errorf("%s: panic %q, want one naming loop h/liar, stage \"fibs\" and %q", tc.name, got, tc.want)
		}
	}
}
