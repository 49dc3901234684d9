package faults

import (
	"strings"
	"testing"
	"time"

	"oasis/internal/sim"
)

func samplePlan() Plan {
	return Plan{
		Name: "sample",
		Seed: 42,
		Events: []Event{
			{At: 30 * time.Millisecond, Kind: PortFlap, Target: "nic1", Heal: 5 * time.Millisecond},
			{At: 10 * time.Millisecond, Kind: HostCrash, Target: "host0", Heal: 20 * time.Millisecond},
			{At: 20 * time.Millisecond, Kind: SSDFail, Target: "ssd1"},
			{At: 40 * time.Millisecond, Kind: CXLDegrade, Target: "host2", Heal: 10 * time.Millisecond, LatMult: 4, BWFrac: 0.25},
		},
	}
}

func TestPlanEncodeParseRoundTrip(t *testing.T) {
	pl := samplePlan()
	text := pl.Encode()
	back, err := ParsePlan(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := back.Encode(); got != text {
		t.Fatalf("round trip:\n got %q\nwant %q", got, text)
	}
	if back.Seed != 42 || back.Name != "sample" || len(back.Events) != 4 {
		t.Fatalf("parsed plan: %+v", back)
	}
	// Sorted: events come back in injection order.
	if back.Events[0].Kind != HostCrash || back.Events[3].Kind != CXLDegrade {
		t.Fatalf("events not sorted by At: %+v", back.Events)
	}
}

// TestEncodeCanonicalText pins the canonical text of every kind as literal
// strings: plan files are replay artifacts, so the bytes may never move.
func TestEncodeCanonicalText(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{At: 10 * ms, Kind: HostCrash, Target: "host0", Heal: 20 * ms}, "10ms host-crash host0 heal=20ms"},
		{Event{At: 360 * ms, Kind: EngineStall, Target: "host2/storage-be1", Heal: 280 * ms}, "360ms engine-stall host2/storage-be1 heal=280ms"},
		{Event{At: 2240 * ms, Kind: NICLinkDown, Target: "pod1/nic1", Heal: 40 * ms}, "2.24s nic-link-down pod1/nic1 heal=40ms"},
		{Event{At: 20 * ms, Kind: SSDFail, Target: "ssd1"}, "20ms ssd-fail ssd1 heal=0s"},
		{Event{At: 30 * ms, Kind: PortFlap, Target: "nic1", Heal: 5 * ms}, "30ms port-flap nic1 heal=5ms"},
		{Event{At: 40 * ms, Kind: CXLDegrade, Target: "host2", Heal: 10 * ms, LatMult: 4, BWFrac: 0.25}, "40ms cxl-degrade host2 heal=10ms lat=4 bw=0.25"},
		{Event{At: 300 * ms, Kind: SSDSlow, Target: "ssd1", Heal: 500 * ms, LatMult: 40}, "300ms ssd-slow ssd1 heal=500ms lat=40"},
		{Event{At: 900 * ms, Kind: NICLossy, Target: "nic1", Heal: 500 * ms, Drop: 0.5}, "900ms nic-lossy nic1 heal=500ms drop=0.5"},
		{Event{At: 1550 * ms, Kind: CXLJitter, Target: "host4", Heal: 250 * ms, Jitter: 2 * time.Microsecond}, "1.55s cxl-jitter host4 heal=250ms jitter=2µs"},
		{Event{At: 1800 * ms, Kind: LinkFlaky, Target: "nic2", Heal: 250 * ms, Period: 40 * ms, Stall: 3 * ms}, "1.8s link-flaky nic2 heal=250ms period=40ms stall=3ms"},
		// A parameter the kind does not read is carried but never written.
		{Event{At: ms, Kind: SSDSlow, Target: "ssd1", LatMult: 1e21, BWFrac: 0.5, Drop: 1, Jitter: ms}, "1ms ssd-slow ssd1 heal=0s lat=1e+21"},
	} {
		pl := Plan{Name: "pin", Seed: -3, Events: []Event{tc.ev}}
		want := "plan pin seed=-3\n" + tc.want + "\n"
		if got := pl.Encode(); got != want {
			t.Errorf("%v: Encode = %q, want %q", tc.ev.Kind, got, want)
		}
		back, err := ParsePlan(want)
		if err != nil {
			t.Errorf("%v: canonical text does not parse: %v", tc.ev.Kind, err)
		} else if got := back.Encode(); got != want {
			t.Errorf("%v: round trip = %q, want %q", tc.ev.Kind, got, want)
		}
	}
	if len(Kinds()) != 10 {
		t.Errorf("the table above covers ten kinds, Kinds() has %d", len(Kinds()))
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{At: 0, Kind: Kind(99), Target: "x"}}},
		{Events: []Event{{At: 0, Kind: HostCrash}}},
		{Events: []Event{{At: -1, Kind: HostCrash, Target: "host0"}}},
		{Events: []Event{{At: 0, Kind: PortFlap, Target: "nic1"}}}, // flap must heal
		{Events: []Event{{At: 0, Kind: CXLDegrade, Target: "host0", LatMult: 0.5, BWFrac: 1}}},
		{Events: []Event{{At: 0, Kind: CXLDegrade, Target: "host0", LatMult: 2, BWFrac: 0}}},
	}
	for i, pl := range bad {
		if pl.Validate() == nil {
			t.Errorf("plan %d validated but should not have", i)
		}
	}
	if err := samplePlan().Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

func TestInjectorRunsPlanDeterministically(t *testing.T) {
	run := func() []string {
		eng := sim.New()
		in := NewInjector(eng)
		state := make(map[string]bool)
		for _, k := range Kinds() {
			k := k
			in.Handle(k, Handler{
				Inject: func(ev Event) error { state[ev.Target] = true; return nil },
				Heal:   func(ev Event) error { state[ev.Target] = false; return nil },
			})
		}
		if err := in.Schedule(samplePlan()); err != nil {
			t.Fatalf("schedule: %v", err)
		}
		eng.RunUntil(100 * time.Millisecond)
		if state["ssd1"] != true {
			t.Error("unhealed ssd-fail should still be active")
		}
		if state["host0"] || state["nic1"] || state["host2"] {
			t.Error("healed faults should be inactive")
		}
		if in.Injected(HostCrash) != 1 || in.Healed(HostCrash) != 1 {
			t.Errorf("host-crash accounting: injected=%d healed=%d", in.Injected(HostCrash), in.Healed(HostCrash))
		}
		if in.Active() != 1 { // only the unhealed ssd-fail
			t.Errorf("active = %d, want 1", in.Active())
		}
		if in.Errors() != 0 {
			t.Errorf("errors = %d", in.Errors())
		}
		return in.Log()
	}
	a, b := run(), run()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("injection log differs across reruns:\n%v\n---\n%v", a, b)
	}
	if len(a) != 7 { // 4 injects + 3 heals
		t.Fatalf("log has %d lines, want 7:\n%s", len(a), strings.Join(a, "\n"))
	}
}

func TestScheduleRejectsMissingHandler(t *testing.T) {
	eng := sim.New()
	in := NewInjector(eng)
	in.Handle(HostCrash, Handler{Inject: func(Event) error { return nil }})
	err := in.Schedule(Plan{Events: []Event{{At: 0, Kind: SSDFail, Target: "ssd1"}}})
	if err == nil {
		t.Fatal("schedule accepted a plan with no ssd-fail handler")
	}
}

func TestRecoveryHistogram(t *testing.T) {
	in := NewInjector(sim.New())
	in.RecordRecovery(PortFlap, 12*time.Millisecond)
	in.RecordRecovery(PortFlap, 30*time.Millisecond)
	h := in.Recovery(PortFlap)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() < 25*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
}
