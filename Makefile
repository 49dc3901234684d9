GO ?= go

.PHONY: all build vet test race verify bench-check bench-history fmt chaos grayfail blackout fuzz census

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race gate (scripts/verify.sh runs it through this target). One engine
# is single-threaded by design (cooperative scheduling), so the detector has
# teeth on three fronts: packages usable from concurrent tooling (pure
# data-structure/statistics code; the obs registry is explicitly safe to
# snapshot from outside the sim loop, and core carries the channel-latency
# trackers it samples); internal/sim, whose partitioned groups run one
# goroutine per partition inside conservative windows (its whole suite), with
# the facade's partitioned-cluster tests on top; and the experiments
# harness, whose parallel runner fans whole engines out across workers. For
# experiments only the parallel-runner tests and — under -short — one chaos
# campaign with its invariants run: the rest of the suite re-runs every
# figure at ~10x race overhead without touching any additional concurrency.
RACE_PKGS = ./internal/memalloc ./internal/metrics ./internal/obs/... ./internal/core/... ./internal/faults ./internal/topo

race:
	$(GO) test -race $(RACE_PKGS) ./internal/par ./internal/sim
	$(GO) test -race -run 'TestPartitionedCluster|TestClusterFaultPlanMidMigration' .
	$(GO) test -race -short -timeout 10m -run 'Parallel|TestReportDigests/chaos' ./internal/experiments

verify:
	./scripts/verify.sh

# bench/ is a module of its own (oasis/bench, `replace oasis => ../`), so
# the root build/vet/test never compile it — yet it imports internal/core,
# netengine's config and the panic-form builders. Vet and test it here so an
# internal rename that breaks the repository benchmark fails tier-1 (~6 s).
bench-check:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# Append the end-to-end metrics of the last `bash bench/run.sh` to
# BENCH_history.jsonl, one line per invocation (LABEL="PR n" tags it). A PR
# that claims a gain records its parent and itself back to back, on one
# machine.
bench-history:
	$(GO) run scripts/benchhist.go -label "$(LABEL)"

fmt:
	gofmt -l -w .

# Run the seeded chaos campaign and print the full report (fault plan,
# injection log, recovery histograms, invariant verdict).
chaos:
	$(GO) run ./cmd/oasis-bench -run chaos

# Run the seeded gray-failure campaign: four degraded-mode faults, health
# scorer evacuations, hard failovers silent.
grayfail:
	$(GO) run ./cmd/oasis-bench -run grayfail

# Measure the migration write-blackout, pre-copy vs stop-the-world, across
# the write-rate grid.
blackout:
	$(GO) run ./cmd/oasis-bench -run blackout

# Replay the fuzz seed corpora as plain regression tests (no long fuzzing;
# scripts/verify.sh runs them through this target): the fault-plan grammar,
# the control codec, the raft RPC codec, the event timeline against its
# sorted reference, the netstack frame parser and the topology target
# grammar. To explore, `go test -fuzz=FuzzParsePlan ./internal/faults`, `go
# test -fuzz=FuzzControlCodec ./internal/core`, `go test -fuzz=FuzzRaftCodec
# ./internal/raft`, `go test -fuzz=FuzzTimeline ./internal/sim`, `go test
# -fuzz=FuzzUnmarshal ./internal/netstack` or `go test -fuzz=FuzzTopoParse
# ./internal/topo`.
fuzz:
	$(GO) test -run 'Fuzz' ./internal/faults ./internal/core ./internal/raft ./internal/sim ./internal/netstack ./internal/topo

# Coverage census, report-only (~2 min): build every command, example and
# the benchmark with -cover, run them all at small scale, and list the
# functions no production entry point ever called that scripts/census.allow
# does not explain. See scripts/census.sh.
census:
	sh scripts/census.sh
