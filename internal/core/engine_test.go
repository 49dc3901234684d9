package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oasis/internal/host"
	"oasis/internal/sim"
)

// stubLoop returns 1 item per poll for the first busy polls, then 0 forever.
type stubLoop struct {
	name  string
	busy  int
	polls int
}

func (s *stubLoop) LoopName() string { return s.name }

// seat puts the stub on a seat, as a one-stage list.
func (s *stubLoop) seat(h *host.Host, cfg DriverConfig) Seat {
	return NewSeat(s.name, []Stage{WorkStage("stub", func() bool { return false }, s.PollOnce)}, h, cfg)
}

func (s *stubLoop) PollOnce(p *sim.Proc) int {
	s.polls++
	if s.polls <= s.busy {
		return 1
	}
	return 0
}

func TestDriverMultiplexesLoops(t *testing.T) {
	eng, pool := testPool()
	h := host.New(eng, 0, "h", pool, host.DefaultConfig())
	d := NewDriver(h, "h/engines", DriverConfig{LoopCost: 100 * time.Nanosecond, IdleBackoff: time.Microsecond})
	a := &stubLoop{name: "h/a", busy: 10}
	b := &stubLoop{name: "h/b", busy: 25}
	d.Attach(a)
	d.Attach(b)
	if len(d.Loops()) != 2 {
		t.Fatalf("loops = %d", len(d.Loops()))
	}
	d.Start()
	d.Start() // idempotent
	eng.RunUntil(sim.Duration(time.Millisecond))
	// One core, every iteration polls BOTH loops — that is the §5.1 sharing.
	if a.polls != b.polls {
		t.Fatalf("loops polled unevenly: %d vs %d", a.polls, b.polls)
	}
	if d.Processed != 35 {
		t.Fatalf("processed = %d, want 10+25", d.Processed)
	}
	if d.IdleIterations == 0 || d.IdleIterations >= d.Iterations {
		t.Fatalf("iterations=%d idle=%d: backoff accounting broken", d.Iterations, d.IdleIterations)
	}
	// With a 100ns loop cost and 1µs idle cap, a busy-polling core would run
	// ~10k iterations/ms; backoff must have cut that well down.
	if d.Iterations > 5000 {
		t.Fatalf("%d iterations in 1ms: idle backoff not applied", d.Iterations)
	}
}

// A running core picks up a loop attached between two of its iterations:
// live pods grow by seating new engines on shared cores that already poll.
func TestDriverAttachWhileRunning(t *testing.T) {
	eng, pool := testPool()
	h := host.New(eng, 0, "h", pool, host.DefaultConfig())
	d := NewDriver(h, "h/engines", DriverConfig{LoopCost: time.Microsecond})
	first := &stubLoop{name: "h/first"}
	d.Attach(first)
	d.Start()
	eng.RunUntil(sim.Duration(10 * time.Microsecond))
	before := first.polls
	if before == 0 {
		t.Fatal("core never polled its first loop")
	}
	late := &stubLoop{name: "h/late", busy: 3}
	d.Attach(late)
	eng.RunUntil(sim.Duration(20 * time.Microsecond))
	if late.polls == 0 {
		t.Fatal("loop attached to a running core was never polled")
	}
	if got := first.polls - before; got != late.polls {
		t.Fatalf("after the attach the core polled the first loop %d times and the late one %d times, want equal", got, late.polls)
	}
	if d.Processed != 3 {
		t.Fatalf("processed = %d, want the late loop's 3 items", d.Processed)
	}
}

// A seat runs its loop on a dedicated core named after it unless the loop
// joined a shared core first, and holds exactly one core.
func TestSeatLaunchModes(t *testing.T) {
	eng, pool := testPool()
	h := host.New(eng, 0, "h", pool, host.DefaultConfig())
	cfg := DriverConfig{LoopCost: time.Microsecond}

	own := &stubLoop{name: "h/own"}
	ownSeat := own.seat(h, cfg)
	if ownSeat.Driver() != nil {
		t.Fatal("seat has a core before Start or Join")
	}
	ownSeat.Start()
	ownSeat.Start() // idempotent
	if d := ownSeat.Driver(); d == nil || d.Name() != "h/own" || fmt.Sprint(d.Loops()) != "[h/own]" || ownSeat.LoopName() != "h/own" {
		t.Fatalf("dedicated core = %+v, want one named h/own running the loop h/own", d)
	}

	shared := NewDriver(h, "h/engines", cfg)
	shared.Start()
	joined := &stubLoop{name: "h/joined"}
	joinedSeat := joined.seat(h, cfg)
	joinedSeat.Join(shared) // the shared core is already polling
	joinedSeat.Start()
	if joinedSeat.Driver() != shared {
		t.Fatal("Start replaced the joined core")
	}
	eng.RunUntil(sim.Duration(10 * time.Microsecond))
	if own.polls == 0 || joined.polls == 0 {
		t.Fatalf("polls: own=%d joined=%d, want both > 0", own.polls, joined.polls)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("second Join accepted")
		}
	}()
	joinedSeat.Join(NewDriver(h, "h/other", cfg))
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
	// Two more failures on the already-empty area.
	a.Alloc()
	a.Alloc()
	s := EngineStats{Name: "fe", Links: LinkStats{Sent: 3}}
	s.AccumulateArea(a)
	s.AccumulateArea(nil) // engines without an RX area pass nil
	if s.BufAllocs != 5 || s.BufFrees != 1 || s.BufAllocFails != 2 {
		t.Fatalf("stats = %+v, want allocs 5 frees 1 fails 2", s)
	}
	if s.Links.Sent != 3 {
		t.Fatal("link stats clobbered by area accumulation")
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
		d := NewDriver(h, "h/core", DriverConfig{LoopCost: 100 * time.Nanosecond})
		d.attach("h/liar", []Stage{WorkStage("fibs", func() bool { return true }, tc.run)})
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
