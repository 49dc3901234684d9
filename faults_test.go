package oasis

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oasis/internal/faults"
	"oasis/internal/topo"
)

// faultPod is the smallest pod with one node of every kind a fault can
// target: three hosts (a raft replica each), a NIC and an SSD on host1.
func faultPod() *Pod {
	cfg := DefaultConfig()
	cfg.RaftReplicas = 3
	pod := NewPod(cfg)
	pod.AddHost()
	h1 := pod.AddHost()
	pod.AddHost()
	pod.AddNIC(h1, false)
	pod.AddSSD(h1, 1<<12)
	pod.Start()
	return pod
}

// faultEvent is a valid event of kind k against faultPod: the target is
// picked by the binding table's column, and every parameter is set (a kind
// reads only its own).
func faultEvent(pod *Pod, k faults.Kind) faults.Event {
	target := map[topo.Kind]string{
		topo.KindHost:   "host1",
		topo.KindNIC:    "nic1",
		topo.KindSSD:    "ssd1",
		topo.KindDriver: pod.NICs[1].BE.Driver().Name(),
	}[faultTarget(k)]
	return faults.Event{At: time.Millisecond, Kind: k, Target: target, Heal: 5 * time.Millisecond,
		LatMult: 4, BWFrac: 0.5, Drop: 0.5, Jitter: time.Microsecond, Period: 4 * time.Millisecond, Stall: time.Millisecond}
}

// faultState renders everything a fault can flip on the pod.
func faultState(pod *Pod) string {
	var b strings.Builder
	for i, h := range pod.Hosts {
		fmt.Fprintf(&b, "host%d cxl-degraded=%v raft-stopped=%v\n", i, h.H.CXLPort.Degraded(), pod.Raft[i].Stopped())
	}
	for _, d := range pod.allDrivers() {
		fmt.Fprintf(&b, "%s stalled=%v\n", d.Name(), d.Stalled())
	}
	n, d := pod.NICs[1], pod.SSDs[1]
	fmt.Fprintf(&b, "nic1 link=%v lossy=%v port=%v\n", n.Dev.LinkUp(), n.Dev.Lossy(), n.SwPort.Enabled())
	fmt.Fprintf(&b, "ssd1 failed=%v slow=%v\n", d.Dev.Failed(), d.Dev.SlowMult())
	return b.String()
}

// Every fault kind has exactly one binding row, and for each of them inject
// moves the pod off nominal and heal returns it there.
func TestFaultBindingsInjectAndHeal(t *testing.T) {
	rows := make(map[faults.Kind]int)
	for _, b := range faultBindings {
		rows[b.kind]++
	}
	for _, k := range faults.Kinds() {
		if rows[k] != 1 {
			t.Errorf("%v has %d binding rows, want 1", k, rows[k])
		}
	}
	if len(rows) != len(faults.Kinds()) {
		t.Errorf("binding table has %d kinds, the vocabulary %d", len(rows), len(faults.Kinds()))
	}
	for _, k := range faults.Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			pod := faultPod()
			ev := faultEvent(pod, k)
			if err := pod.RunFaultPlan(faults.Plan{Name: "one", Events: []faults.Event{ev}}); err != nil {
				t.Fatal(err)
			}
			var nominal, during string
			pod.Eng.At(ev.At-time.Microsecond, func() { nominal = faultState(pod) })
			pod.Eng.At(ev.At+100*time.Microsecond, func() { during = faultState(pod) })
			pod.Run(50 * time.Millisecond)
			after := faultState(pod)
			pod.Shutdown()
			in := pod.Injector()
			if in.Errors() != 0 || in.Active() != 0 || in.Injected(k) != 1 || in.Healed(k) != 1 {
				t.Fatalf("errors=%d active=%d injected=%d healed=%d\n%s", in.Errors(), in.Active(),
					in.Injected(k), in.Healed(k), strings.Join(in.Log(), "\n"))
			}
			if during == nominal {
				t.Errorf("inject changed nothing:\n%s", during)
			}
			if after != nominal {
				t.Errorf("heal did not return the pod to nominal:\n--- before ---\n%s--- after ---\n%s", nominal, after)
			}
		})
	}
}

// A plan whose targets can never resolve is refused before anything is
// scheduled: ungrammatical text, a pod scope that is not this pod, a node
// kind the fault cannot act on. Existence is not checked: a node may be
// added after the plan is scheduled, and one still missing at inject time is
// an ERR line in the injection log.
func TestRunFaultPlanChecksTargets(t *testing.T) {
	pod := NewPod(DefaultConfig())
	pod.AddHost()
	pod.AddNIC(pod.AddHost(), false)
	pod.Start()
	for _, ev := range []faults.Event{
		{Kind: faults.SSDFail, Target: "nic1"},
		{Kind: faults.HostCrash, Target: "pod3/host0"},
		{Kind: faults.NICLinkDown, Target: "what"},
		// A device id is 16 bits: these do not name nic1 / ssd1 modulo 65 536.
		{Kind: faults.NICLinkDown, Target: "nic65537"},
		{Kind: faults.SSDFail, Target: "ssd65537"},
		{Kind: faults.NICLinkDown, Target: "nic4294967297"},
	} {
		ev.At, ev.Heal = time.Millisecond, time.Millisecond
		// The bad event rides behind a good one: nothing of the plan may run.
		good := faults.Event{At: time.Millisecond, Kind: faults.PortFlap, Target: "nic1", Heal: time.Millisecond}
		if err := pod.RunFaultPlan(faults.Plan{Name: "bad", Events: []faults.Event{good, ev}}); err == nil {
			t.Errorf("%v %s: scheduled", ev.Kind, ev.Target)
		}
	}
	pod.Run(5 * time.Millisecond)
	in := pod.Injector()
	if len(in.Log()) != 0 {
		t.Fatalf("a refused plan ran:\n%s", strings.Join(in.Log(), "\n"))
	}
	if !pod.NICs[1].Dev.LinkUp() {
		t.Fatal("a plan aimed at a nic that cannot exist took nic1's link down")
	}
	if err := pod.RunFaultPlan(faults.Plan{Name: "late", Events: []faults.Event{
		{At: 7 * time.Millisecond, Kind: faults.SSDSlow, Target: "ssd1", Heal: time.Millisecond, LatMult: 2},
		{At: 7 * time.Millisecond, Kind: faults.SSDFail, Target: "ssd9", Heal: time.Millisecond},
	}}); err != nil {
		t.Errorf("targets that do not exist yet must schedule: %v", err)
	}
	pod.Eng.At(6*time.Millisecond, func() { pod.AddSSD(pod.Hosts[1], 1<<12) })
	pod.Run(10 * time.Millisecond)
	pod.Shutdown()
	if log := strings.Join(in.Log(), "\n"); len(in.Log()) != 4 || in.Errors() != 2 || !strings.Contains(log, "no such ssd") {
		t.Errorf("want ssd1 found after its late add and ssd9 missing at inject and heal; errors=%d log:\n%s", in.Errors(), log)
	}

	// One valid plan per kind schedules.
	fp := faultPod()
	defer fp.Shutdown()
	for _, k := range faults.Kinds() {
		if err := fp.RunFaultPlan(faults.Plan{Name: "ok", Events: []faults.Event{faultEvent(fp, k)}}); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}
