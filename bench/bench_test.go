package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// tinyRep runs one workload in-process at test size.
func tinyRep(t *testing.T, name string, seed int64, sabotage string) repResult {
	t.Helper()
	w := lookupWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	return runRep(w, &rep{seed: seed, tiny: true, sabotage: sabotage})
}

func mustPass(t *testing.T, res repResult) {
	t.Helper()
	if len(res.Errors) > 0 {
		t.Fatalf("%s seed %d: verification failed: %v", res.Workload, res.Seed, res.Errors)
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("%s seed %d: attempted %d, failed %d", res.Workload, res.Seed, res.Attempted, res.Failed)
	}
}

// The manifest the driver reads and the tables the program prints from must
// name the same things.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if manifest.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: manifest %q, program %q", i, manifest.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, def := range want {
			m := got[i]
			if m.Name != def.name || m.Unit != def.unit || m.Better != def.better {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, m, def)
			}
			if !nameRE.MatchString(def.name) || !unitRE.MatchString(def.unit) {
				t.Errorf("%s %q (%q) is not a legal name/unit", kind, def.name, def.unit)
			}
			if bounded && (m.Bound == nil || *m.Bound != def.bound) {
				t.Errorf("%s %q: manifest bound %v, program %v", kind, def.name, m.Bound, def.bound)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd, true)
	check("per_layer", manifest.PerLayer, allPerLayer(), false)

	// What the driver line prints is exactly those names.
	wr := &workloadResult{Attempted: 1, EndToEnd: map[string]summary{}, PerLayer: map[string]float64{}}
	for traced, defs := range map[bool][]metricDef{false: endToEnd, true: allPerLayer()} {
		var line struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(wr.driverJSON(traced)), &line); err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for name := range line.Metrics {
			got = append(got, name)
		}
		for _, def := range defs {
			want = append(want, def.name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("driver line (traced=%v) prints %v, want %v", traced, got, want)
		}
	}
}

// Same seed, same virtual results — across reruns and across the serial and
// partitioned engines; another seed, other inputs, still correct.
func TestWorkloadsDeterministicAndSeeded(t *testing.T) {
	for _, name := range []string{"rack_idle", "echo_ladder", "store_mixed"} {
		a := tinyRep(t, name, 1, "")
		mustPass(t, a)
		again := name
		if name == "rack_idle" {
			again = "rack_par" // the stronger rerun: same inputs on the other engine
		}
		b := tinyRep(t, again, 1, "")
		mustPass(t, b)
		if diff := sameVirtual(a, b); diff != "" {
			t.Errorf("%s vs %s, seed 1: %s", name, again, diff)
		}
		c := tinyRep(t, name, 2, "")
		mustPass(t, c)
		if c.Digest == a.Digest {
			t.Errorf("%s: seeds 1 and 2 produced the same Stats() digest; the seed does not reach the inputs", name)
		}
	}
}

func TestVerifierCatchesCorruptEcho(t *testing.T) {
	if res := tinyRep(t, "echo_ladder", 1, "corrupt-echo"); len(res.Errors) == 0 {
		t.Fatal("echo replies with a flipped bit passed verification")
	}
}

func TestVerifierCatchesStaleRead(t *testing.T) {
	if res := tinyRep(t, "store_mixed", 1, "stale-read"); len(res.Errors) == 0 {
		t.Fatal("reads that ignore acked writes passed verification")
	}
}

// A traced rep reports only metrics the manifest lists, and its profiles
// parse into layer shares.
func TestTracedRepLayers(t *testing.T) {
	w := lookupWorkload("store_mixed")
	res := runRep(w, &rep{seed: 1, tiny: true, traced: true})
	mustPass(t, res)
	known := map[string]bool{}
	for _, def := range allPerLayer() {
		known[def.name] = true
	}
	for name := range res.Layers {
		if !known[name] {
			t.Errorf("traced rep reports %q, which is not a per-layer metric", name)
		}
	}
	for _, name := range []string{"core.iters", "msgchan.sent", "cache.misses", "storengine.reads", "ssd.writes", "obs.points"} {
		if res.Layers[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Layers[name])
		}
	}
	if len(res.Spans) < 7 {
		t.Errorf("%d spans, want the six phases and the rep", len(res.Spans))
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"oasis/internal/sim.(*Engine).RunUntil":      "sim",
		"oasis/internal/msgchan.(*Receiver).Poll":    "msgchan",
		"oasis.(*Topology).Start":                    "topology",
		"main.runRack":                               "bench",
		"oasis/bench.splitmix64":                     "bench",
		"runtime.nanotime":                           "sched",
		"runtime.futex":                              "sched",
		"runtime.chanrecv":                           "sched",
		"runtime.memclrNoHeapPointers":               "gc",
		"runtime.mallocgc":                           "gc",
		"runtime.memmove":                            "runtime",
		"internal/runtime/atomic.(*Uint32).Load":     "runtime",
		"time.Now":                                   "other",
		"oasis/internal/netengine.(*Frontend).Start": "netengine",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	def := metricDef{name: "run_s", better: "lower", bound: 0.10}
	tight := func(m float64) summary { return summary{Value: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := func(m float64) summary { return summary{Value: m, Q1: m * 0.8, Q3: m * 1.2} }
	for _, tc := range []struct {
		a, b summary
		want string
	}{
		{tight(1), tight(1.05), "ok"},
		{tight(1), tight(0.5), "ok"},
		{tight(1), tight(1.2), "worse"},
		{wide(1), tight(1.2), "unresolved"},
	} {
		if got := verdict(def, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
	higher := metricDef{name: "v_goodput_kops", better: "higher", bound: 0.02}
	if got := verdict(higher, tight(100), tight(90)); got != "worse" {
		t.Errorf("goodput 100 -> 90 = %s, want worse", got)
	}
	floored := metricDef{name: "setup_s", better: "lower", bound: 0.25, floor: 0.05}
	if got := verdict(floored, tight(0.04), tight(0.08)); got != "ok" {
		t.Errorf("setup 0.04 -> 0.08 s = %s, want ok (inside the 0.05 s floor)", got)
	}
}
