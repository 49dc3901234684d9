package experiments

import (
	"reflect"
	"testing"
)

// TestGrayfailDeterministic is the acceptance gate for the gray-failure
// campaign: all four degraded-mode faults fire, the health scorer must
// evacuate both gray devices with the hard-failover machinery silent, and
// the report must be byte-identical when rerun — the rerun happens under
// SetParallelism(8), so one comparison covers both the replay contract and
// the parallel runner (the same shape as TestChaosDeterministic).
func TestGrayfailDeterministic(t *testing.T) {
	defer SetParallelism(1)
	SetParallelism(1)
	serial := Grayfail(1.0)
	if v := serial.Values["violations"]; v != 0 {
		t.Fatalf("grayfail campaign violated %v invariant(s):\n%s", v, serial.String())
	}
	if serial.Values["health_nic_evacs"] < 1 || serial.Values["health_ssd_evacs"] < 1 {
		t.Fatalf("health scorer did not evacuate both gray devices:\n%s", serial.String())
	}
	if serial.Values["nic_failovers"] != 0 || serial.Values["ssd_failovers"] != 0 {
		t.Fatalf("gray faults tripped hard failovers:\n%s", serial.String())
	}
	// Captured at the parent of the stepped-sleep change (see
	// TestChaosDeterministic).
	const want = "e9ccc543f1fccbd3550b3a89492536cb0b05b8c13525b83cdc90ea58240dca86"
	if got := reportDigest(serial); got != want {
		t.Errorf("grayfail report digest = %s, want %s", got, want)
	}
	if testing.Short() {
		return // invariants checked; skip the rerun under -short (race gate)
	}
	SetParallelism(8)
	parallel := Grayfail(1.0)
	if serial.String() != parallel.String() {
		t.Errorf("grayfail report not byte-identical across reruns:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
	if !reflect.DeepEqual(serial.Values, parallel.Values) {
		t.Errorf("grayfail values differ across reruns: %v vs %v", serial.Values, parallel.Values)
	}
}

// TestBlackoutPrecopyBeatsStopTheWorld is the acceptance gate for pre-copy
// migration: at every write rate in the grid the pre-copy blackout must be
// strictly smaller than the stop-the-world blackout on the identical
// scenario, with no acked write lost under either protocol. Runs at half
// scale (two rates) to stay cheap; the full grid runs in verify.sh.
func TestBlackoutPrecopyBeatsStopTheWorld(t *testing.T) {
	r := Blackout(0.5)
	if v := r.Values["violations"]; v != 0 {
		t.Fatalf("blackout experiment violated %v invariant(s):\n%s", v, r.String())
	}
	if r.Values["rates"] < 2 {
		t.Fatalf("blackout grid too small:\n%s", r.String())
	}
	for k, pre := range r.Values {
		if len(k) > 8 && k[:8] == "precopy_" {
			stw, ok := r.Values["stw_"+k[8:]]
			if !ok {
				t.Fatalf("missing stop-the-world cell for %s:\n%s", k, r.String())
			}
			if pre <= 0 || stw <= 0 || pre >= stw {
				t.Fatalf("%s=%v not strictly under stw=%v:\n%s", k, pre, stw, r.String())
			}
		}
	}
}
