#!/bin/sh
# Tier-1 verification gate: everything a change must pass before merging.
# Run from the repository root (or via `make verify`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./... =="
go build ./...

echo "== go vet ./... =="
go vet ./...

echo "== go test ./... =="
go test ./...

# The scheduling-in-the-past guard (a lookahead bug panics instead of being
# clamped) over the four packages every simulated cycle goes through; they
# take seconds. The experiments and the facade run without it above.
echo "== OASIS_SIMCHECK=1 go test (sim, cache, msgchan, core) =="
OASIS_SIMCHECK=1 go test -count=1 ./internal/sim ./internal/cache ./internal/msgchan ./internal/core

# bench/ is its own module (`replace oasis => ../`), invisible to the ./...
# patterns above although it imports internal/core, the engine configs and
# the panic-form builders: compile, vet and test it so an internal rename
# that breaks the repository benchmark fails here, not in the pipeline.
echo "== bench module: go vet + go test (bench-check) =="
go -C bench vet .
go -C bench test .

# One engine is single-threaded (cooperative scheduling), so the race
# detector is meaningful on two fronts: packages usable from concurrent
# tooling (pure data-structure/statistics code; the obs registry is
# explicitly safe to snapshot from outside the sim loop, and core carries
# the channel-latency trackers it samples), and the experiments harness,
# whose parallel runner fans whole private engines out across par.Do
# workers and merges results in order. Only the parallel-runner tests run
# under race there — the rest of the suite re-runs every figure at ~10x
# race overhead without touching any additional concurrency.
echo "== go test -race (concurrent-facing packages) =="
go test -race ./internal/memalloc ./internal/metrics ./internal/obs/... ./internal/core/... ./internal/par ./internal/faults ./internal/topo
# internal/sim now carries real intra-run concurrency: partitioned groups
# run one goroutine per partition inside conservative windows. Its whole
# test suite (partition windows, pairwise lookahead, persistent workers,
# barrier alloc regression, inbox-overflow/window-collapse panics, mobile
# hops, group shutdown) runs under the detector, as do the cluster-level
# partitioned tests and the per-host pod tests (client/guest partitions
# behind RemotePorts and pool channels).
go test -race ./internal/sim
go test -race -run 'TestPartitionedCluster|TestClusterFaultPlanMidMigration|TestPerHost' .
# -short: one chaos run (invariants only) — the byte-identical rerun is
# asserted by the non-race tier above; doubling it under the detector's
# ~10x overhead buys no extra race coverage.
go test -race -short -run 'Parallel|Chaos' ./internal/experiments

# Intra-run determinism: the same experiment serial vs partitioned (one
# partition per pod) must produce byte-identical report bodies, and the OS
# thread count must be invisible — the conservative-window barriers plus
# the (timestamp, source partition, source seq) merge order are the only
# schedule. Swept at GOMAXPROCS=1 (everything time-slices one thread), 2
# (real preemption between partitions), and 8 (full fan-out). Per-host
# mode (clients and guests on partitions of their own) is swept in the
# same loop: its timeline is not comparable to serial — the RemotePort
# attachment adds real cable latency — but must itself be byte-identical
# across reruns at every thread count (chaos campaign + racksweep app
# runs in internal/experiments, echo flow in the root package).
echo "== intra-run partitioned determinism (GOMAXPROCS=1,2,8) =="
for n in 1 2 8; do
    echo "-- GOMAXPROCS=$n"
    GOMAXPROCS=$n go test -count=1 -run 'TestIntraRunPartitionedMatchesSerial|TestPerHostPartitionedDeterministic' ./internal/experiments
    GOMAXPROCS=$n go test -count=1 -run 'TestPerHostPodDeterministic' .
done

# Smoke the full parallel fan-out end to end: every experiment at tiny
# scale with GOMAXPROCS workers. Output determinism vs the serial path is
# asserted by TestParallelMatchesSerial; this catches wiring regressions
# (flag plumbing, ordered flush, worker startup) in the binary itself.
echo "== oasis-bench parallel smoke =="
go run ./cmd/oasis-bench -run all -scale 0.05 -parallel > /dev/null

# Chaos smoke: the seeded fault campaign must end with every recovery
# invariant intact (no acked-write loss, bounded loss windows, bounded
# control-plane recovery) — in serial mode and in per-host mode, where the
# probe client advances on a partition of its own. The report says so in
# one grep-able line.
echo "== chaos campaign smoke (serial + per-host) =="
go run ./cmd/oasis-bench -run chaos | grep -q "invariants: OK"
go run ./cmd/oasis-bench -run chaos-perhost | grep -q "invariants: OK"

# Gray-failure smoke: all four degraded-mode kinds in one seeded campaign,
# with the health scorer evacuating both gray devices and the hard-failover
# machinery silent — and the report byte-identical between the serial run
# and the -parallel runner (the timeline is absolute, so the bytes must
# match exactly, modulo the real-clock "wall time" footer line). Serial-vs-
# partitioned and per-host byte-identity run in the GOMAXPROCS sweep above
# (grayfail subtests of the same gates).
echo "== grayfail campaign smoke + determinism (serial vs -parallel + per-host) =="
gray_a=$(go run ./cmd/oasis-bench -run grayfail | grep -v "wall time")
echo "$gray_a" | grep -q "invariants: OK"
gray_b=$(go run ./cmd/oasis-bench -run grayfail -parallel | grep -v "wall time")
if [ "$gray_a" != "$gray_b" ]; then
    echo "grayfail report differs between serial and -parallel runs" >&2
    exit 1
fi
go run ./cmd/oasis-bench -run grayfail-perhost | grep -q "invariants: OK"

# Blackout smoke: the pre-copy migration blackout must be strictly smaller
# than stop-the-world at every write rate, with no acked write lost under
# either protocol. The report says so in one grep-able line.
echo "== migration blackout smoke (pre-copy vs stop-the-world) =="
go run ./cmd/oasis-bench -run blackout | grep -q "invariants: OK"

# Fuzz seed-corpus regression: the stored FuzzParsePlan seeds (every fault
# kind incl. the gray quartet, plus near-miss invalids) run as ordinary
# tests — no long fuzzing here; use `go test -fuzz=FuzzParsePlan
# ./internal/faults` to explore.
echo "== fault-plan grammar fuzz corpus =="
go test -run FuzzParsePlan ./internal/faults

# Rack smoke: the 512-host multi-pod cluster must place, hot-spot, and
# rebalance with cross-pod migrations — serially, in partitioned execution
# (one sim partition per pod), and per-host (plus one per client).
# (Byte-identity across reruns, -parallel, and execution modes is asserted
# by the determinism tests.)
echo "== racksweep cluster smoke (serial + partitioned + per-host) =="
go run ./cmd/oasis-bench -run racksweep -scale 0.05 | grep -q "cross-pod migrations"
go run ./cmd/oasis-bench -run racksweep-par -scale 0.05 | grep -q "cross-pod migrations"
go run ./cmd/oasis-bench -run racksweep-perhost -scale 0.05 | grep -q "cross-pod migrations"

echo "verify: OK"
