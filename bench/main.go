// Command bench is the repository's benchmark: four seeded workloads, each
// reporting host-time (the simulator's cost) and virtual-time (the modelled
// pod's performance) end-to-end metrics, verified outputs, and — from one
// extra traced rep — per-layer metrics. See README.md.
//
//	go run -C bench . [-workload W] [-seed N] [-seconds S] [-reps R] [-trace 0|1] [-out DIR]
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	origin := time.Now() // as close to "empty process" as a Go program gets
	var (
		name    = flag.String("workload", "", "run this workload only and end with the one-line JSON result (default: all)")
		seed    = flag.Int64("seed", 1, "workload input seed")
		seconds = flag.Float64("seconds", 30, "host-time budget per workload")
		reps    = flag.Int("reps", 0, "untraced reps per workload (0: as many as fit in -seconds, at least 3)")
		trace   = flag.Int("trace", 0, "1: add one traced rep and the layer probes, report per-layer metrics")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for results.json and trace-<workload>.json")
		compare = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		child   = flag.String("child", "", "internal: run one rep of this workload and print its result")
		repIdx  = flag.Int("rep", 0, "internal: rep index of a -child run")
	)
	flag.Parse()

	switch {
	case *child != "":
		w := lookupWorkload(*child)
		if w == nil {
			fatalf("unknown workload %q", *child)
		}
		if w.serial {
			runtime.GOMAXPROCS(1)
		}
		res := runRep(w, &rep{seed: *seed, index: *repIdx, origin: origin, traced: *trace == 1})
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	default:
		selected := workloads
		if *name != "" {
			w := lookupWorkload(*name)
			if w == nil {
				fatalf("unknown workload %q", *name)
			}
			selected = []*workload{w}
		}
		budget := time.Duration(*seconds * float64(time.Second))
		os.Exit(runBenchmark(selected, *seed, budget, *reps, *trace == 1, *outDir, *name != ""))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// results is the file a benchmark invocation writes and -compare reads.
type results struct {
	Go        string                     `json:"go"`
	NProc     int                        `json:"nproc"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runBenchmark measures the selected workloads one after another and
// prints every metric by name with its unit. With driverLine set (a single
// workload was asked for) the last line of standard output is the JSON
// object the benchmark driver parses. The exit code is 1 when any output
// failed verification.
func runBenchmark(selected []*workload, seed int64, budget time.Duration, reps int, traced bool, outDir string, driverLine bool) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	all := results{Go: runtime.Version(), NProc: runtime.NumCPU(), Seed: seed, Seconds: budget.Seconds(),
		Workloads: map[string]*workloadResult{}}
	code := 0
	for _, w := range selected {
		wr := measure(w, seed, budget, reps, traced, outDir)
		all.Workloads[w.name] = wr
		wr.print(os.Stdout)
		if !wr.Correct {
			code = 1
		}
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), all); err != nil {
		fatalf("%v", err)
	}
	if driverLine {
		fmt.Println(all.Workloads[selected[0].name].driverJSON(traced))
	}
	return code
}
