package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

// withProcs runs fn at GOMAXPROCS n and restores the old value.
func withProcs[T any](n int, fn func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return fn()
}

// TestParallelMatchesSerial asserts the determinism contract of the parallel
// runner: any GOMAXPROCS yields byte-identical reports and the same exact
// costs. Each run owns a private engine and results merge in index order, so
// the thread count must be invisible in the output; the workers add their
// engines' counters to the report in whatever order they finish, and a sum
// does not depend on it. Run with -race, this also exercises the fan-out
// under the detector (see the race gate in scripts/verify.sh).
func TestParallelMatchesSerial(t *testing.T) {
	for _, id := range []string{"fig2", "abl-counter"} {
		run, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not in registry", id)
		}
		serial := withProcs(1, func() *Report { return run(0.05) })
		parallel := withProcs(8, func() *Report { return run(0.05) })
		if serial.String() != parallel.String() {
			t.Errorf("%s: parallel report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				id, serial.String(), parallel.String())
		}
		if !reflect.DeepEqual(serial.Values, parallel.Values) {
			t.Errorf("%s: parallel values differ from serial: %v vs %v",
				id, serial.Values, parallel.Values)
		}
		// fig2 runs no engine; abl-counter fans four out, so its counts
		// are a sum over the workers.
		if s, p := countLine(id, serial), countLine(id, parallel); s != p || id == "abl-counter" && serial.ctr.Events == 0 {
			t.Errorf("parallel counts differ from serial, or none were counted:\n%s\n%s", s, p)
		}
	}
}

// The rack sweep's analytic Part 2 fans its trials out over GOMAXPROCS, so
// that is where its thread-count invariance is asserted without building the
// rack — the full report's bytes, under both shapes of the simulated rack,
// are pinned by TestReportDigests.
func TestRacksweepModelIgnoresParallelism(t *testing.T) {
	model := func() *Report {
		r := newReport("racksweep", "model only")
		racksweepModel(r, 0.05)
		return r
	}
	serial, parallel := withProcs(1, model), withProcs(8, model)
	if reportDigest(serial) != reportDigest(parallel) {
		t.Errorf("pooling model differs across GOMAXPROCS:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}
