package experiments

import (
	"testing"
)

// The paper's claims and the campaigns' invariants are rows of one table,
// claims in fidelity_test.go; EXPERIMENTS.md shows each experiment's report
// at the scale of its TestReportDigests row, which checks it.

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "tab1", "tab2", "fig6", "fig8", "fig9", "fig10", "fig11", "tab3", "fig12", "fig13", "fig14",
		"abl-counter", "abl-inspect", "abl-failover", "abl-coherent", "abl-sharding", "abl-qos", "abl-storage",
		"chaos", "grayfail", "blackout", "racksweep"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if _, ok := Lookup("fig6"); !ok {
		t.Fatal("Lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup found a nonexistent experiment")
	}
}
