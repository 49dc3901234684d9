package experiments

import "testing"

// TestFig13FailoverBound is a regression bound on NIC failover time: the
// paper reports ~38 ms of interruption (Fig. 13); the reproduction must
// keep the loss window in the same regime and actually fail over.
func TestFig13FailoverBound(t *testing.T) {
	r := Fig13(0.1)
	if r.Values["failovers"] < 1 {
		t.Fatalf("no failover recorded:\n%s", r.String())
	}
	outage := r.Values["outage_ms"]
	if outage <= 0 || outage > 100 {
		t.Fatalf("failover outage %v ms out of bounds (0, 100]:\n%s", outage, r.String())
	}
	if r.Values["lost"] < 1 {
		t.Fatalf("probe stream saw no loss at all — failure not injected?\n%s", r.String())
	}
}
