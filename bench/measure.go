package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// summary is one end-to-end metric over a workload's untraced reps. Value is
// what is reported: the best (smallest) rep for the host times, the median
// otherwise. The quartiles give -compare the rep-to-rep spread.
//
// Host times take the best rep because on the reference box their noise is
// one-sided and large — the same deterministic rep runs up to 50% slower for
// seconds at a time when the shared host is busy, while a tight ALU loop
// stays steady to 1.4% — so the minimum of 8–25 reps repeats to 2–3% where
// their median wanders by 6–10%.
type summary struct {
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadResult is everything one benchmark invocation learned about one
// workload.
type workloadResult struct {
	Name      string             `json:"name"`
	Reps      int                `json:"reps"`
	Samples   int                `json:"samples"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"stats_sha256"`
	Correct   bool               `json:"correct"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// repTimeout bounds one child rep; the slowest takes ~5 s.
const repTimeout = 150 * time.Second

// childRep runs one rep of w in a fresh process — a re-exec of this binary,
// one at a time — so peak RSS, GC state and page-fault cost belong to that
// rep alone.
func childRep(w *workload, seed int64, index int, traced bool) (repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-rep", strconv.Itoa(index), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("%s rep %d: %w", w.name, index, err)
	}
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return repResult{}, fmt.Errorf("%s rep %d: reading result: %w", w.name, index, err)
	}
	return res, nil
}

// sameVirtual reports how b's virtual-time results differ from a's ("" when
// they do not): the simulation is deterministic, so any difference is a bug.
func sameVirtual(a, b repResult) string {
	for _, def := range endToEnd {
		if def.clock == "virtual" && a.Metrics[def.name] != b.Metrics[def.name] {
			return fmt.Sprintf("%s %v != %v", def.name, a.Metrics[def.name], b.Metrics[def.name])
		}
	}
	switch {
	case a.Attempted != b.Attempted || a.Failed != b.Failed:
		return fmt.Sprintf("attempted/failed %d/%d != %d/%d", a.Attempted, a.Failed, b.Attempted, b.Failed)
	case a.Digest != b.Digest:
		return "stats_sha256 differs"
	}
	return ""
}

// measure runs w's untraced reps (fixed count, or as many as fit in the
// budget), cross-checks them, and — when traced — adds one traced rep and
// the layer probes. A traced invocation spends about half its budget on
// untraced reps; end-to-end metrics always come from those.
func measure(w *workload, seed int64, budget time.Duration, fixedReps int, traced bool, outDir string) *workloadResult {
	start := time.Now()
	wr := &workloadResult{Name: w.name, Correct: true, EndToEnd: map[string]summary{}}
	fail := func(format string, args ...any) {
		wr.Correct = false
		wr.Errors = append(wr.Errors, fmt.Sprintf(format, args...))
	}

	// rack_par must reproduce rack_idle byte for byte: one rep of the
	// reference is run first, and its run_s is the base of sim.par_speedup.
	var ref *repResult
	if w.reference != "" {
		res, err := childRep(lookupWorkload(w.reference), seed, 0, false)
		if err != nil {
			fail("%v", err)
		} else {
			ref = &res
		}
	}

	minReps, repBudget := 3, budget
	if traced {
		minReps, repBudget = 2, budget/2
	}
	var reps []repResult
	for i := 0; ; i++ {
		if fixedReps > 0 && i >= fixedReps {
			break
		}
		if fixedReps == 0 && i >= minReps {
			// Stop when another rep of average length would overrun.
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(i+1) > repBudget {
				break
			}
		}
		res, err := childRep(w, seed, i, false)
		if err != nil {
			fail("%v", err)
			break
		}
		for _, e := range res.Errors {
			fail("rep %d: %s", i, e)
		}
		if len(reps) > 0 {
			if diff := sameVirtual(reps[0], res); diff != "" {
				fail("rep %d differs from rep 0: %s", i, diff)
			}
		}
		reps = append(reps, res)
	}
	if len(reps) == 0 {
		return wr
	}
	first := reps[0]
	wr.Reps, wr.Samples, wr.Attempted, wr.Failed, wr.Digest = len(reps), first.Samples, first.Attempted, first.Failed, first.Digest
	if ref != nil {
		if diff := sameVirtual(*ref, first); diff != "" {
			fail("differs from %s: %s", w.reference, diff)
		}
	}
	for _, def := range endToEnd {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r.Metrics[def.name]
		}
		wr.EndToEnd[def.name] = summarize(vals, def.best)
	}

	if traced {
		tr, err := childRep(w, seed, len(reps), true)
		if err != nil {
			fail("%v", err)
			return wr
		}
		for _, e := range tr.Errors {
			fail("traced rep: %s", e)
		}
		if diff := sameVirtual(first, tr); diff != "" {
			fail("traced rep differs from rep 0: %s", diff)
		}
		wr.PerLayer = tr.Layers
		runS := wr.EndToEnd["run_s"].Value
		wr.PerLayer["bench.trace_overhead_frac"] = tr.Metrics["run_s"]/runS - 1
		if ref != nil {
			wr.PerLayer["sim.par_speedup"] = ref.Metrics["run_s"] / runS
		}
		if err := writeJSON(filepath.Join(outDir, "trace-"+w.name+".json"), tr.Spans); err != nil {
			fail("%v", err)
		}
		left := budget - time.Since(start)
		if left < 2*time.Second {
			left = 2 * time.Second
		}
		for k, v := range runProbes(left) {
			wr.PerLayer[k] = v
		}
	}
	return wr
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// quartiles returns the first quartile, median and third quartile of vals
// by linear interpolation between closest ranks.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func summarize(vals []float64, best bool) summary {
	q1, med, q3 := quartiles(vals)
	s := summary{Value: med, Median: med, Q1: q1, Q3: q3, Values: vals}
	if best {
		for _, v := range vals {
			s.Value = math.Min(s.Value, v)
		}
	}
	return s
}

// print writes every metric by name with its unit, one per line.
func (wr *workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s: reps=%d samples=%d attempted=%d failed=%d correct=%v stats_sha256=%s\n",
		wr.Name, wr.Reps, wr.Samples, wr.Attempted, wr.Failed, wr.Correct, wr.Digest)
	for _, e := range wr.Errors {
		fmt.Fprintf(out, "  ERROR %s\n", e)
	}
	for _, def := range endToEnd {
		s := wr.EndToEnd[def.name]
		fmt.Fprintf(out, "  %-28s %14.6f %-6s (reps: q1 %.6f, median %.6f, q3 %.6f)\n", def.name, s.Value, def.unit, s.Q1, s.Median, s.Q3)
	}
	if wr.PerLayer == nil {
		return
	}
	for _, def := range allPerLayer() {
		fmt.Fprintf(out, "  %-28s %14.6f %s\n", def.name, wr.PerLayer[def.name], def.unit)
	}
}

// driverJSON renders the one-line result the benchmark driver parses: the
// end-to-end metrics of an untraced invocation, the per-layer metrics of a
// traced one.
func (wr *workloadResult) driverJSON(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]value{}}
	if traced {
		for _, def := range allPerLayer() {
			line.Metrics[def.name] = value{wr.PerLayer[def.name], def.unit}
		}
	} else {
		for _, def := range endToEnd {
			line.Metrics[def.name] = value{wr.EndToEnd[def.name].Value, def.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain structs of numbers, strings and bools marshal by construction
	}
	return string(b)
}
