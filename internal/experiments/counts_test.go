package experiments

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"oasis/internal/sim"
)

// testdata/counts.txt holds the exact costs of every TestReportDigests row,
// one line per row: the engines' Counters summed over the report's runs and,
// for a partitioned run, the barrier loop's. They derive from virtual state
// alone, so they repeat on any machine at any GOMAXPROCS; a perf change's
// verdict is the file's diff. There is no rewrite flag: a change that moves a
// row edits the line its failure prints, with the digests unchanged.

// countLine renders r's costs as the golden row named name.
func countLine(name string, r *Report) string {
	c, g := r.ctr, r.group
	line := fmt.Sprintf("%s events=%d switches=%d fast_sleeps=%d stepped_legs=%d heap_events=%d",
		name, c.Events, c.Switches, c.FastSleeps, c.SteppedLegs, c.HeapEvents)
	if g != (sim.GroupCounters{}) {
		line += fmt.Sprintf(" barriers=%d windows=%d idle_commits=%d cross_events=%d transfers=%d fixpoint_passes=%d critical_events=%d",
			g.Barriers, g.Windows, g.IdleCommits, g.CrossEvents, g.Transfers, g.FixpointPasses, g.CriticalEvents)
	}
	return line
}

// countsGolden reads testdata/counts.txt into its rows by name.
func countsGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/counts.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if _, dup := rows[name]; dup {
			t.Errorf("testdata/counts.txt: two rows named %s", name)
		}
		rows[name] = line
	}
	return rows
}

var switchesField = regexp.MustCompile(` switches=\d+`)

// checkCounts compares a run's count line with its golden row, exactly.
// OASIS_SIMCHECK=1 runs every stage from the process to check the idle
// predicates — more switches, the same events — so under it switches are
// not compared.
func checkCounts(t *testing.T, want, got string) {
	t.Helper()
	switch {
	case sim.Checking() && switchesField.ReplaceAllString(got, "") == switchesField.ReplaceAllString(want, ""):
	case got != want:
		t.Errorf("exact counts moved (testdata/counts.txt):\n got %s\nwant %s", got, want)
	}
}
