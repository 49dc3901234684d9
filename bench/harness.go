package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"oasis/internal/obs"
)

// Harness phases, in the order every workload executes them. The first
// three are set-up (their end is setup_s), sim.run is the measured Run()
// phase (run_s, cpu_s); the last two are bookkeeping.
const (
	phaseBuild    = "topology.build"
	phaseStart    = "topology.start"
	phaseSpawn    = "workload.spawn"
	phaseRun      = "sim.run"
	phaseSnapshot = "obs.snapshot"
	phaseShutdown = "shutdown"
)

// span is one host-time interval recorded by the harness around a call into
// the system under test. Times are seconds since the rep's origin.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Parent   string  `json:"parent"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
}

// outcome is what a workload hands back: the client-observed (virtual-time)
// results at its reference load, every verification failure, and the final
// Stats() snapshots (one per pod or cluster it built).
type outcome struct {
	attempted int64
	lat       []time.Duration // one per completed-and-verified op
	window    time.Duration   // virtual time the ops above were issued over
	goodput   float64         // kop/s; 0 = len(lat)/window
	errs      []string
	snaps     []obs.Snapshot
	extra     map[string]float64 // per-layer metrics the workload measures itself
}

func (o *outcome) errorf(format string, args ...any) {
	if len(o.errs) < 8 { // enough to diagnose; a broken run repeats itself
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// rep is one execution of one workload in this process.
type rep struct {
	workload string
	seed     int64
	index    int
	// tiny shrinks every virtual duration to test size (bench_test.go).
	tiny bool
	// sabotage makes the system under test misbehave so tests can show the
	// verifier notices: "corrupt-echo" or "stale-read".
	sabotage string
	traced   bool

	origin   time.Time // process start in a child, rep start in a test
	setupEnd time.Time
	run      time.Duration
	cpu      time.Duration
	spans    []span
	setupPB  bytes.Buffer // CPU profile of the set-up phases (traced only)
	runPB    bytes.Buffer // CPU profile of sim.run (traced only)
}

// phase runs fn as one named harness phase.
func (r *rep) phase(name string, fn func()) {
	if r.traced && name == phaseRun {
		pprof.StopCPUProfile() // ends the set-up profile begun in runRep
		if err := pprof.StartCPUProfile(&r.runPB); err != nil {
			panic(err)
		}
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	switch name {
	case phaseSpawn:
		r.setupEnd = t1
	case phaseRun:
		r.run += t1.Sub(t0)
		r.cpu += cpuTime() - cpu0
		if r.traced {
			pprof.StopCPUProfile()
		}
	}
	r.spans = append(r.spans, span{
		Name: name, Start: t0.Sub(r.origin).Seconds(), End: t1.Sub(r.origin).Seconds(),
		Parent: "rep", Workload: r.workload, Rep: r.index,
	})
}

// repResult is what one rep reports: the host-time and virtual-time
// end-to-end metrics, the correctness verdict, and — from a traced rep —
// spans and per-layer metrics.
type repResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   int                `json:"samples"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"stats_sha256"`
	Errors    []string           `json:"errors,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// runRep executes workload w once and folds the outcome into a repResult.
func runRep(w *workload, r *rep) repResult {
	r.workload = w.name
	if r.origin.IsZero() {
		r.origin = time.Now()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if r.traced {
		if err := pprof.StartCPUProfile(&r.setupPB); err != nil {
			panic(err)
		}
	}
	out := w.run(r)
	runtime.ReadMemStats(&ms1)
	end := time.Now()
	r.spans = append(r.spans, span{Name: "rep", Start: 0, End: end.Sub(r.origin).Seconds(),
		Workload: w.name, Rep: r.index})

	sort.Slice(out.lat, func(i, j int) bool { return out.lat[i] < out.lat[j] })
	res := repResult{
		Workload:  w.name,
		Seed:      r.seed,
		Samples:   len(out.lat),
		Attempted: out.attempted,
		Failed:    out.attempted - int64(len(out.lat)),
		Digest:    digest(out.snaps),
		Errors:    out.errs,
		Metrics:   map[string]float64{},
	}
	if out.attempted == 0 {
		res.Errors = append(res.Errors, "no operations attempted")
	}
	goodput := out.goodput
	if goodput == 0 && out.window > 0 {
		goodput = float64(len(out.lat)) / out.window.Seconds() / 1e3
	}
	res.Metrics["setup_s"] = r.setupEnd.Sub(r.origin).Seconds()
	res.Metrics["run_s"] = r.run.Seconds()
	res.Metrics["cpu_s"] = r.cpu.Seconds()
	res.Metrics["alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	res.Metrics["v_p50_us"] = quantileUS(out.lat, 0.50)
	res.Metrics["v_p99_us"] = quantileUS(out.lat, 0.99)
	res.Metrics["v_goodput_kops"] = goodput
	if r.traced {
		res.Spans = r.spans
		res.Layers = layerMetrics(r, &out, res)
	}
	return res
}

// quantileUS returns the q-quantile of sorted latencies in microseconds
// (nearest rank), 0 when there are none.
func quantileUS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

// digest is the SHA-256 of the rendered Stats() snapshots: every counter,
// histogram quantile and retained trace event the simulated system exposes.
func digest(snaps []obs.Snapshot) string {
	h := sha256.New()
	for _, s := range snaps {
		h.Write([]byte(s.String()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux: ru_maxrss is KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) * 1024 / 1e6 }
