package experiments

import (
	"fmt"
	"reflect"
	"testing"
)

// TestParallelMatchesSerial asserts the determinism contract of the parallel
// runner: any Parallelism() setting yields byte-identical reports. Each run
// owns a private engine and results merge in index order, so worker count
// must be invisible in the output. Run with -race, this also exercises the
// fan-out under the detector (see the race gate in scripts/verify.sh).
func TestParallelMatchesSerial(t *testing.T) {
	defer SetParallelism(1)
	for _, id := range []string{"fig2", "abl-counter"} {
		run, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not in registry", id)
		}
		SetParallelism(1)
		serial := run(0.05)
		SetParallelism(8)
		parallel := run(0.05)
		if serial.String() != parallel.String() {
			t.Errorf("%s: parallel report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				id, serial.String(), parallel.String())
		}
		if !reflect.DeepEqual(serial.Values, parallel.Values) {
			t.Errorf("%s: parallel values differ from serial: %v vs %v",
				id, serial.Values, parallel.Values)
		}
	}
}

// The rack sweep reads Parallelism() in one place, its analytic Part 2 (the
// simulated rack never fans out), so that is where its -parallel invariance
// is asserted — the full report's bytes are pinned by TestReportDigests.
func TestRacksweepModelIgnoresParallelism(t *testing.T) {
	defer SetParallelism(1)
	model := func(workers int) *Report {
		SetParallelism(workers)
		r := newReport("racksweep", "model only")
		racksweepModel(r, 0.05)
		return r
	}
	serial, parallel := model(1), model(4)
	if reportDigest(serial) != reportDigest(parallel) {
		t.Errorf("pooling model differs across -parallel:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

// Exec names are the -exec flag's vocabulary; only the rack, the one
// experiment with something to partition, accepts one.
func TestExecNames(t *testing.T) {
	for _, x := range []Exec{Serial, PerPod} {
		if got, ok := ParseExec(x.String()); !ok || got != x {
			t.Errorf("ParseExec(%q) = %v, %v", x.String(), got, ok)
		}
	}
	if _, ok := ParseExec("parallel"); ok {
		t.Error("ParseExec accepted an unknown shape")
	}
	var got []string
	for _, id := range IDs() {
		if Partitionable(id) {
			got = append(got, id)
		}
	}
	if fmt.Sprint(got) != "[racksweep]" {
		t.Errorf("partitionable experiments = %v", got)
	}
}
