// Command oasis-bench regenerates the paper's tables and figures.
//
//	oasis-bench -list
//	oasis-bench -run all
//	oasis-bench -run fig6,fig13 -scale 0.5
//	oasis-bench -run racksweep -exec perpod
//
// Each experiment prints the same rows/series the paper reports plus the
// paper's reference numbers; EXPERIMENTS.md records a full comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"oasis/internal/experiments"
	"oasis/internal/par"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	scale := flag.Float64("scale", 1.0, "measurement scale in (0,1]: shrinks windows/loads")
	values := flag.Bool("values", false, "also print machine-readable values")
	parallel := flag.Bool("parallel", false,
		"fan independent experiments and their inner sweeps out across all CPUs; "+
			"results are printed in the same order with identical bytes (only wall times differ)")
	execName := flag.String("exec", "serial",
		"execution shape of chaos, grayfail and racksweep: serial, perpod (a sim partition per pod; "+
			"same bytes as serial) or perhost (one more per load-generating client)")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var ids []string
	if *run == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if _, ok := experiments.Lookup(id); !ok {
				fmt.Fprintf(os.Stderr, "oasis-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "oasis-bench: nothing to run")
		os.Exit(2)
	}

	x, ok := experiments.ParseExec(*execName)
	if !ok {
		fmt.Fprintf(os.Stderr, "oasis-bench: unknown -exec %q (serial, perpod, perhost)\n", *execName)
		os.Exit(2)
	}
	if x != experiments.Serial {
		for _, id := range ids {
			if !experiments.Partitionable(id) {
				fmt.Fprintf(os.Stderr, "oasis-bench: -exec %v: %s has nothing to partition (chaos, grayfail and racksweep do)\n", x, id)
				os.Exit(2)
			}
		}
	}
	experiments.SetExec(x)

	workers := 1
	if *parallel {
		workers = runtime.GOMAXPROCS(0)
		experiments.SetParallelism(workers)
	}

	// Each experiment renders into its own buffer; buffers are flushed in
	// the requested order as soon as all earlier ones have finished, so the
	// byte stream matches a serial run line for line (wall times aside).
	outs := make([]string, len(ids))
	done := make([]chan struct{}, len(ids))
	for i := range done {
		done[i] = make(chan struct{})
	}
	go par.Do(workers, len(ids), func(i int) {
		defer close(done[i])
		runner, _ := experiments.Lookup(ids[i])
		var b strings.Builder
		start := time.Now()
		report := runner(*scale)
		b.WriteString(report.String())
		if *values {
			for _, k := range sortedKeys(report.Values) {
				fmt.Fprintf(&b, "  value %s = %.4f\n", k, report.Values[k])
			}
		}
		fmt.Fprintf(&b, "(%s completed in %v wall time)\n\n", ids[i], time.Since(start).Round(time.Millisecond))
		outs[i] = b.String()
	})
	for i := range ids {
		<-done[i]
		fmt.Print(outs[i])
	}
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
