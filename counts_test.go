package oasis

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"oasis/internal/sim"
)

// testdata/counts.txt holds the exact costs of the package's count
// scenarios, one line each: three busy pods (TestBusyPodExactCounts), an idle
// one (TestIdlePodExactCounts) and the partitioned cluster
// (TestPartitionedClusterExactCounts). They derive from virtual state alone,
// so they repeat on any machine at any GOMAXPROCS; a perf change's verdict is
// the file's diff. There is no rewrite flag: a change that moves a row edits
// the line its failure prints, with every digest unchanged.
var countScenarios = []string{"echo", "local", "store", "idle", "cluster"}

// countLine renders exact costs as the golden row named name; a partitioned
// run's row adds the barrier loop's counters.
func countLine(name string, c sim.Counters, g sim.GroupCounters) string {
	line := fmt.Sprintf("%s events=%d switches=%d fast_sleeps=%d stepped_legs=%d heap_events=%d",
		name, c.Events, c.Switches, c.FastSleeps, c.SteppedLegs, c.HeapEvents)
	if g != (sim.GroupCounters{}) {
		line += fmt.Sprintf(" barriers=%d windows=%d idle_commits=%d cross_events=%d transfers=%d fixpoint_passes=%d critical_events=%d",
			g.Barriers, g.Windows, g.IdleCommits, g.CrossEvents, g.Transfers, g.FixpointPasses, g.CriticalEvents)
	}
	return line
}

// since returns the costs between two readings of one engine's counters.
func since(c0, c sim.Counters) sim.Counters {
	return sim.Counters{
		Events:      c.Events - c0.Events,
		Switches:    c.Switches - c0.Switches,
		FastSleeps:  c.FastSleeps - c0.FastSleeps,
		SteppedLegs: c.SteppedLegs - c0.SteppedLegs,
		HeapEvents:  c.HeapEvents - c0.HeapEvents,
	}
}

var switchesField = regexp.MustCompile(` switches=\d+`)

// checkCounts compares a scenario's count line with its row of
// testdata/counts.txt, exactly, and the file's rows with countScenarios.
// OASIS_SIMCHECK=1 runs every stage from the process to check the idle
// predicates — more switches, the same events — so under it switches are not
// compared.
func checkCounts(t *testing.T, got string) {
	t.Helper()
	data, err := os.ReadFile("testdata/counts.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if !slices.Contains(countScenarios, name) {
			t.Errorf("testdata/counts.txt row %s has no scenario", name)
		}
		rows[name] = line
	}
	name, _, _ := strings.Cut(got, " ")
	want, ok := rows[name]
	switch {
	case !ok:
		t.Errorf("scenario %s has no testdata/counts.txt row", name)
	case sim.Checking() && switchesField.ReplaceAllString(got, "") == switchesField.ReplaceAllString(want, ""):
	case got != want:
		t.Errorf("exact counts moved (testdata/counts.txt):\n got %s\nwant %s", got, want)
	}
}
