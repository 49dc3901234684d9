package faults

import (
	"slices"
	"strings"
	"testing"
)

// nominal is an in-range value per parameter key, and edges the values on
// and just outside each end of its range (period's are relative to the
// nominal stall and stall's to the nominal period). A new parameter must
// add a row to both; a new kind brings its seeds by being in the kinds table.
var (
	nominal = map[string]string{"lat": "2", "bw": "0.5", "drop": "0.25", "jitter": "2µs", "period": "10ms", "stall": "2ms"}
	edges   = map[string][]struct {
		v     string
		valid bool
	}{
		"lat":    {{"1", true}, {"0.999", false}, {"NaN", false}, {"+Inf", true}},
		"bw":     {{"1", true}, {"1.001", false}, {"0", false}, {"1e-300", true}},
		"drop":   {{"1", true}, {"1.001", false}, {"0", false}, {"1e-300", true}},
		"jitter": {{"1ns", true}, {"0s", false}, {"-1ns", false}},
		"period": {{"2.000001ms", true}, {"2ms", false}, {"0s", false}},
		"stall":  {{"1ns", true}, {"0s", false}, {"9.999999ms", true}, {"10ms", false}},
	}
)

type nearMiss struct {
	what, line string
	valid      bool
}

// nearMisses ranges over the kinds table and builds, for every kind, its
// canonical line and the lines one step away from it: each required
// parameter omitted, a missing heal, a parameter that belongs to another
// kind (accepted, and dropped by Encode), and each parameter at every edge
// of its range — the table style of a validity test, generated so a new
// row brings its seeds.
func nearMisses(tb testing.TB) []nearMiss {
	var out []nearMiss
	for _, k := range Kinds() {
		row := kinds[k]
		line := func(heal string, skip *param, override *param, v string) string {
			l := "1ms " + row.name + " t0"
			if heal != "" {
				l += " heal=" + heal
			}
			for _, p := range row.reads {
				switch {
				case p == skip:
				case p == override:
					l += " " + p.key + "=" + v
				default:
					l += " " + p.key + "=" + nominal[p.key]
				}
			}
			return l
		}
		out = append(out,
			nearMiss{"canonical", line("5ms", nil, nil, ""), true},
			nearMiss{"never heals", line("0s", nil, nil, ""), !row.mustHeal},
			nearMiss{"no heal option", line("", nil, nil, ""), len(row.reads) > 0 && !row.mustHeal})
		for _, p := range row.reads {
			if nominal[p.key] == "" || len(edges[p.key]) == 0 {
				tb.Fatalf("parameter %q has no nominal/edges row in the fuzz seed tables", p.key)
			}
			out = append(out, nearMiss{p.key + " omitted", line("5ms", p, nil, ""), false})
			for _, e := range edges[p.key] {
				out = append(out, nearMiss{p.key + "=" + e.v, line("5ms", nil, p, e.v), e.valid})
			}
		}
		for _, p := range params[1:] { // params[0] is heal, which every kind reads
			if !slices.Contains(row.reads, p) {
				out = append(out, nearMiss{"foreign " + p.key, line("5ms", nil, nil, "") + " " + p.key + "=" + nominal[p.key], true})
				break
			}
		}
	}
	return out
}

// TestNearMissVerdicts holds every generated seed to its expected verdict,
// which makes the seed tables a test of the parameter ranges as well.
func TestNearMissVerdicts(t *testing.T) {
	for _, nm := range nearMisses(t) {
		_, err := ParsePlan("plan near seed=1\n" + nm.line + "\n")
		if (err == nil) != nm.valid {
			t.Errorf("%s: %q: valid = %v (err %v), want %v", nm.what, nm.line, err == nil, err, nm.valid)
		}
	}
}

// FuzzParsePlan drives arbitrary text through the plan grammar and checks
// the two properties every tool in the repo leans on:
//
//  1. ParsePlan never panics, whatever the input (it may error).
//  2. The canonical form is a fixpoint: for any input that parses, the
//     first Encode is canonical — re-parsing and re-encoding it must
//     reproduce it byte for byte. This is what makes plan files reliable
//     replay artifacts (EXPERIMENTS.md's replay recipes diff encodings).
//
// Run the stored corpus as a regression test with ordinary `go test`; run
// `go test -fuzz=FuzzParsePlan` locally to explore.
func FuzzParsePlan(f *testing.F) {
	seeds := []string{
		"plan empty seed=0\n",
		"plan crash seed=42\n100ms host-crash pod0/h1 heal=0s\n",
		"plan flap seed=7\n5ms port-flap pod0/h0 heal=10ms\n",
		"plan degrade seed=1\n1s cxl-degrade pod0/h2 heal=2s lat=3 bw=0.5\n",
		"plan gray seed=9\n" +
			"10ms ssd-slow pod0/ssd1 heal=50ms lat=8\n" +
			"20ms nic-lossy pod0/nic2 heal=60ms drop=0.25\n" +
			"30ms cxl-jitter pod0/h1 heal=70ms jitter=2µs\n" +
			"40ms link-flaky pod0/nic1 heal=80ms period=10ms stall=2ms\n",
		"plan ssdfail seed=3\n1ms ssd-fail pod1/ssd3 heal=0s\n",
		"plan nicfail seed=4\n2ms nic-fail pod0/nic1 heal=5ms\n",
		// Near-misses that must error, not panic.
		"plan bad seed=x\n",
		"plan bad seed=1\n-5ms host-crash pod0/h0 heal=0s\n",
		"plan bad seed=1\n1ms ssd-slow pod0/ssd1 heal=0s lat=NaN\n",
		"plan bad seed=1\n1ms nic-lossy pod0/nic1 heal=0s drop=2\n",
		"plan bad seed=1\n1ms link-flaky pod0/nic1 heal=5ms period=1ms stall=1ms\n",
		"plan bad seed=1\n1ms cxl-jitter pod0/h0 heal=0s jitter=-1ms\n",
		"no header at all",
		"plan trailing seed=0\n1ms host-crash pod0/h0 heal=0s extra=1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, nm := range nearMisses(f) {
		f.Add("plan near seed=1\n" + nm.line + "\n")
	}
	f.Fuzz(func(t *testing.T, s string) {
		pl, err := ParsePlan(s)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		enc := pl.Encode()
		pl2, err := ParsePlan(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not re-parse: %v\ninput: %q\nencoded: %q", err, s, enc)
		}
		enc2 := pl2.Encode()
		if enc != enc2 {
			t.Fatalf("canonical form is not a fixpoint:\nfirst:  %q\nsecond: %q", enc, enc2)
		}
		if !strings.HasPrefix(enc, "plan ") {
			t.Fatalf("encoding lost its header: %q", enc)
		}
	})
}
