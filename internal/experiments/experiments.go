// Package experiments contains one runner per table and figure in the
// paper's evaluation (§2.2, §5). Each runner builds the scenario from the
// public oasis API, drives the workload in virtual time, and returns a
// Report with the same rows/series the paper presents plus
// machine-readable values. The fidelity table (claims, in
// fidelity_test.go) holds those values to the paper's, one row per claim,
// and EXPERIMENTS.md's fidelity section is rendered from it.
//
// Runners take a scale in (0, 1] that shrinks measurement windows and load
// grids proportionally — tests use small scales, oasis-bench defaults to 1
// and refuses a scale outside (0, 1] before any runner sees it.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"oasis"
	"oasis/internal/sim"
)

// Report is one experiment's outcome.
type Report struct {
	ID    string
	Title string
	Lines []string
	// Values carries machine-readable results keyed by metric name.
	Values map[string]float64

	// The exact costs of the runs behind the report, outside Values and
	// String so that no digest moves with them: every engine's Counters
	// summed, and the barrier-loop counters of its partitioned cluster, if
	// it ran one. parRun's workers add to them concurrently (mu); a sum does
	// not depend on the order.
	mu    sync.Mutex
	ctr   sim.Counters
	group sim.GroupCounters
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Values: make(map[string]float64)}
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// count adds an engine's costs to the report's. Each helper that builds an
// engine calls it once, right after the engine's run.
func (r *Report) count(eng *sim.Engine) { r.add(eng.Counters(), sim.GroupCounters{}) }

// countCluster adds a cluster's costs: its engines' and its barrier loop's.
func (r *Report) countCluster(c *oasis.Cluster) { r.add(c.Counters()) }

func (r *Report) add(ctr sim.Counters, group sim.GroupCounters) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctr = r.ctr.Add(ctr)
	if group != (sim.GroupCounters{}) {
		if r.group != (sim.GroupCounters{}) {
			panic("experiments: " + r.ID + " ran two partitioned clusters")
		}
		r.group = group
	}
}

// String renders the report for the CLI.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return b.String()
}

// Runner produces a report at a given scale.
type Runner func(scale float64) *Report

// Registry maps experiment ids to runners, in the paper's order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"tab1", Table1},
		{"tab2", Table2},
		{"fig6", Fig6},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"tab3", Table3},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"abl-counter", AblCounterBatch},
		{"abl-inspect", AblBackendInspect},
		{"abl-failover", AblFailoverMechanism},
		{"abl-coherent", AblHWCoherent},
		{"abl-sharding", AblSharding},
		{"abl-qos", AblQoS},
		{"abl-storage", AblStorage},
		{"chaos", Chaos},
		{"grayfail", Grayfail},
		{"blackout", Blackout},
		{"racksweep", Racksweep},
	}
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// IDs returns all experiment ids in order.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}
