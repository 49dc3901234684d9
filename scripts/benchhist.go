//go:build ignore

// benchhist appends one line to BENCH_history.jsonl from the results of the
// last `bash bench/run.sh`: the commit, the date, the Go version and, per
// workload, the eight end-to-end metrics of BENCHMARK.json plus the Stats()
// digest. BENCH_results.json and bench/out/results.json are overwritten by
// every run; this file is the trajectory that survives. Host times (setup_s,
// run_s, cpu_s) are only comparable between lines taken on the same machine —
// a PR records its parent and itself back to back.
//
// Usage: go run scripts/benchhist.go [-results bench/out/results.json] [-out BENCH_history.jsonl] [-label "PR 15 parent"]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// endToEnd lists the metrics kept, in BENCHMARK.json's order.
var endToEnd = []string{"setup_s", "run_s", "cpu_s", "alloc_mb", "peak_rss_mb", "v_p50_us", "v_p99_us", "v_goodput_kops"}

type results struct {
	Go        string `json:"go"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Workloads map[string]struct {
		Reps      int                                `json:"reps"`
		Attempted int64                              `json:"attempted"`
		Failed    int64                              `json:"failed"`
		Correct   bool                               `json:"correct"`
		StatsSHA  string                             `json:"stats_sha256"`
		EndToEnd  map[string]struct{ Value float64 } `json:"end_to_end"`
	} `json:"workloads"`
}

type workloadLine struct {
	Reps      int                `json:"reps"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	StatsSHA  string             `json:"stats_sha256"`
	Metrics   map[string]float64 `json:"metrics"`
}

type line struct {
	Commit    string                  `json:"commit"`
	Label     string                  `json:"label,omitempty"`
	Date      string                  `json:"date"`
	Go        string                  `json:"go"`
	Seed      int64                   `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Workloads map[string]workloadLine `json:"workloads"`
}

func main() {
	in := flag.String("results", "bench/out/results.json", "results file written by bench/run.sh")
	out := flag.String("out", "BENCH_history.jsonl", "history file to append to")
	label := flag.String("label", "", "free-text tag for the line")
	flag.Parse()
	if err := run(*in, *out, *label); err != nil {
		fmt.Fprintln(os.Stderr, "benchhist:", err)
		os.Exit(1)
	}
}

func run(in, out, label string) error {
	raw, err := os.ReadFile(in)
	if err != nil {
		return fmt.Errorf("%w (run `bash bench/run.sh` first)", err)
	}
	var res results
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("parse %s: %w", in, err)
	}
	if len(res.Workloads) == 0 {
		return fmt.Errorf("%s holds no workloads", in)
	}
	l := line{
		Commit:    commit(),
		Label:     label,
		Date:      time.Now().UTC().Format(time.RFC3339),
		Go:        res.Go,
		Seed:      res.Seed,
		Seconds:   res.Seconds,
		Workloads: map[string]workloadLine{},
	}
	for name, w := range res.Workloads {
		wl := workloadLine{Reps: w.Reps, Attempted: w.Attempted, Failed: w.Failed, Correct: w.Correct,
			StatsSHA: w.StatsSHA, Metrics: map[string]float64{}}
		for _, m := range endToEnd {
			v, ok := w.EndToEnd[m]
			if !ok {
				return fmt.Errorf("%s: workload %s has no %s", in, name, m)
			}
			wl.Metrics[m] = v.Value
		}
		l.Workloads[name] = wl
	}
	enc, err := json.Marshal(l)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(enc, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append to %s: %w", out, err)
	}
	return f.Close()
}

// commit names the checkout: the short HEAD hash, marked when the tree has
// uncommitted changes, or "unknown" outside a git checkout.
func commit() string {
	head, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(head))
	if dirty, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(dirty) > 0 {
		c += "+dirty"
	}
	return c
}
