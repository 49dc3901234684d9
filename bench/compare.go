package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one (workload, end-to-end metric) pair: b against base a.
//
//	ok         b is no worse than a by more than max(bound × a, floor)
//	worse      it is, and the rep-to-rep spread on both sides is inside the bound
//	unresolved it is, but a side's interquartile spread is wider than the
//	           bound, so the medians cannot tell
func verdict(def metricDef, a, b summary) string {
	worse := b.Value - a.Value
	if def.better == "higher" {
		worse = -worse
	}
	allowed := math.Max(def.bound*math.Abs(a.Value), def.floor)
	if worse <= allowed {
		return "ok"
	}
	if a.Q3-a.Q1 > allowed || b.Q3-b.Q1 > allowed {
		return "unresolved"
	}
	return "worse"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// results files with both values, b/a, and a verdict, then the per-layer
// deltas. It returns 1 on any "worse", or when a workload's virtual-time
// metrics are all equal but its Stats() digest changed (the simulated
// system did something different that the clients did not see).
func compareFiles(pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := loadResults(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	fmt.Printf("%-12s %-16s %14s %14s %9s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			continue
		}
		virtualEqual := true
		for _, def := range endToEnd {
			sa, sb := wa.EndToEnd[def.name], wb.EndToEnd[def.name]
			v := verdict(def, sa, sb)
			if v == "worse" {
				code = 1
			}
			if def.clock == "virtual" && sa.Value != sb.Value {
				virtualEqual = false
			}
			fmt.Printf("%-12s %-16s %14.6f %14.6f %9.4f  %s\n", w.name, def.name, sa.Value, sb.Value, sb.Value/sa.Value, v)
		}
		if wa.Failed != wb.Failed || wa.Attempted != wb.Attempted {
			fmt.Printf("%-12s attempted/failed %d/%d -> %d/%d\n", w.name, wa.Attempted, wa.Failed, wb.Attempted, wb.Failed)
			// fail_frac may not rise by more than 0.001.
			if float64(wb.Failed)/float64(wb.Attempted)-float64(wa.Failed)/float64(wa.Attempted) > 0.001 {
				code = 1
			}
		}
		if virtualEqual && wa.Digest != wb.Digest {
			fmt.Printf("%-12s stats_sha256 changed with equal virtual-time metrics: %s -> %s\n", w.name, wa.Digest, wb.Digest)
			code = 1
		}
	}
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil || wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		fmt.Printf("\nper-layer deltas, %s (b - a; b/a):\n", w.name)
		names := make([]string, 0, len(wa.PerLayer))
		for name := range wa.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := wa.PerLayer[name], wb.PerLayer[name]
			if va == vb {
				continue
			}
			fmt.Printf("  %-30s %14.6f -> %14.6f  %+14.6f  %9.4f\n", name, va, vb, vb-va, vb/va)
		}
	}
	return code
}
