package experiments

import (
	"bytes"
	"testing"
	"time"

	"oasis/internal/metrics"
)

// The simulator promises byte-identical reruns: a single cooperative engine,
// a virtual clock, and no map iteration in any simulation-visible path. The
// unified core runtime threads every engine loop through one driver
// framework, so this guard re-runs a datapath-heavy experiment (Fig. 6) and
// a control-plane-heavy one (Fig. 13) twice each and insists the rendered
// reports match byte for byte.
func TestExperimentsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  Runner
	}{
		{"fig6", Fig6},
		{"fig13", Fig13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.run(0.1).String()
			b := tc.run(0.1).String()
			if a != b {
				t.Fatalf("%s not deterministic across reruns:\n--- first ---\n%s\n--- second ---\n%s", tc.name, a, b)
			}
		})
	}
}

// The observability layer extends the same promise to the structured Stats
// API: the snapshot of an identical run — every counter, every histogram
// quantile, every trace event timestamp — must serialize to byte-identical
// JSON. Instruments are sampled, never mutated, so registering them cannot
// perturb the run either.
func TestPodSnapshotDeterministic(t *testing.T) {
	run := func() []byte {
		e := buildNetPod(ModeOasis)
		e.startUDPEcho(7)
		e.udpEchoLoad(64, 50e3, 2*time.Millisecond, 20*time.Millisecond, &metrics.Histogram{})
		snap := e.pod.Stats()
		e.pod.Shutdown()
		return snap.JSON()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("pod snapshot JSON not deterministic across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
