package experiments

import "testing"

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
