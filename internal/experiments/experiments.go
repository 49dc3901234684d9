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
)

// Report is one experiment's outcome.
type Report struct {
	ID    string
	Title string
	Lines []string
	// Values carries machine-readable results keyed by metric name.
	Values map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Values: make(map[string]float64)}
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
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
