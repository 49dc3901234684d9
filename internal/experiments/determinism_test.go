package experiments

import (
	"bytes"
	"testing"
	"time"

	"oasis/internal/metrics"
)

// The simulator promises byte-identical reruns: a single cooperative engine,
// a virtual clock, and no map iteration in any simulation-visible path.
// TestReportDigests pins that for the rendered reports (a constant is a
// stronger check than a rerun compare); the observability layer extends the
// promise to the structured Stats API: the snapshot of an identical run —
// every counter, every histogram quantile, every trace event timestamp — must
// serialize to byte-identical JSON. Instruments are sampled, never mutated,
// so registering them cannot perturb the run either.
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
