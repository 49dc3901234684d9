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

# One representation, checked by grep: internal/core is the only loop
# runner, link builder and backoff in the tree. An engine is a stage list on
# its seat — PollOnce exists only as the opaque-loop interface and its
# adapter in core/engine.go — raft's transport builds its channels with
# core.NewDuplexLink and backs off with core.Backoff, and the experiments
# build raw channels in one place (rawChannel). A new hand-rolled poll loop,
# channel builder or capped doubling fails here. (bench/ is frozen and keeps
# the one opaque loop, its idle probe.)
echo "== one loop runner, one link builder, one backoff (grep gate) =="
gate() { # gate <what> <matches>: fail if the grep printed anything
    if [ -n "$2" ]; then
        echo "grep gate: $1:" >&2
        echo "$2" >&2
        exit 1
    fi
}
src() { grep -rn --include='*.go' "$@" . | grep -v '_test\.go:' | grep -v '^\./bench/' || true; }
gate "PollOnce outside internal/core/engine.go" "$(src 'PollOnce' | grep -v '^\./internal/core/engine\.go:' || true)"
gate "StagedLoop, RunStages or PollControl outside tests" "$(src 'StagedLoop\|RunStages\|PollControl(')"
gate "an unstaged branch in the driver core" "$(grep -n 'len(stages) == 0' internal/core/engine.go || true)"
gate "a channel built or a backoff rolled by hand in raft's transport" "$(grep -n 'msgchan\.New(\|nextIdle' internal/raft/transport.go || true)"
gate "more than one raw-channel rig in the experiments" "$(grep -rl 'msgchan\.RegionBytes' internal/experiments | sed 1d)"

# One window bound, one kind of link end (PR 24): the adaptive-horizon
# hysteresis, the interface a LinkSet's ends hid behind, its cross-partition
# implementation and the guest partitions are gone, comments included —
# partitioned execution is sim.Group + netsw.RemotePort and nothing else.
echo "== one window bound, one kind of link end (grep gate) =="
gate "a deleted partitioned-execution name" "$(grep -rn --include='*.go' 'ChanEnd\|CrossEnd\|NewCrossChannel\|AddGuest\|DeclareCross\|quietWindows\|SetInboxBound' . || true)"
gate "internal/core/cross.go or internal/cxl/cross.go" "$(ls internal/core/cross.go internal/cxl/cross.go 2>/dev/null || true)"
gate "more than one eitFixpoint call" "$(grep -c 'eitFixpoint(' internal/sim/partition.go | grep -vx 2 || true)"
gate "a type assertion on a link end" "$(grep -n '\.(\*LinkEnd)' internal/core/*.go | grep -v '_test\.go:' || true)"
gate "a second sort in the barrier merge" "$(grep -n 'sort\.Slice\|extLess' internal/sim/partition.go || true)"

# Memory on first touch: the sender's shadow ring and the latency histogram
# counters are allocated when a message needs them, never sized up front.
echo "== memory on first touch (grep gate) =="
gate "a histogram or sender ring sized up front" "$(grep -rn 'nMagnitudes \* subBuckets\]\|make(\[\]byte, ch.cfg.Slots' internal/ || true)"

echo "== go build ./... =="
go build ./...

echo "== go vet ./... =="
go vet ./...

echo "== go test ./... =="
go test -timeout 10m ./...

# Exact host-memory counts, asserted by the two tests and printed here: an
# idle default-config duplex link, and building + starting the benchmark's
# 128-host rack.
echo "== host bytes allocated (idle link, rack setup) =="
go test -count=1 -run 'TestIdleLinkBytes' -v ./internal/core | grep ' B allocated'
go test -count=1 -run 'TestRackSetupBytes' -v . | grep ' B allocated'

# The slow self-checks over the packages every simulated cycle goes through;
# they take seconds. In sim, cache, msgchan and core that is the
# scheduling-in-the-past guard (a lookahead bug panics instead of being
# clamped) and the timeline's ring asserting, at every pop, that the entry is
# for the instant its bucket was found at; in core and the three engine packages it is also the driver
# distrusting every work stage's Idle predicate — a stage it would have
# skipped is run anyway and must process nothing, take no time and schedule
# nothing — so a predicate that drifts from its Run fails here instead of
# moving a digest. The experiments and the facade run without it above.
echo "== OASIS_SIMCHECK=1 go test (sim, cache, msgchan, core, netengine, storengine, allocator) =="
OASIS_SIMCHECK=1 go test -count=1 ./internal/sim ./internal/cache ./internal/msgchan ./internal/core \
    ./internal/netengine ./internal/storengine ./internal/allocator

# bench/ is its own module (`replace oasis => ../`), invisible to the ./...
# patterns above although it imports internal/core, the engine configs and
# the panic-form builders: compile, vet and test it so an internal rename
# that breaks the repository benchmark fails here, not in the pipeline.
echo "== bench module: go vet + go test (bench-check) =="
go -C bench vet .
go -C bench test .

# The race gate: one list, kept in the Makefile (`make race`) with the
# reasoning for what is on it.
echo "== go test -race (make race) =="
make race

# Intra-run determinism: the thread count must be invisible in the virtual
# timeline — the conservative-window barriers plus the (timestamp, source
# partition, source seq) merge order are the only schedule. The non-serial
# rows of TestReportDigests (racksweep per-pod against the serial constant;
# racksweep, chaos and grayfail per-host against their own) and the root
# package's per-host echo flow are swept at GOMAXPROCS=1 (everything
# time-slices one thread), 2 (real preemption between partitions) and 8
# (full fan-out), under OASIS_SIMCHECK=1: partitioned windows are exactly
# where the past-of-window guard has teeth. The serial rows ran in the
# `go test ./...` tier above; one thread cannot reorder them.
echo "== partitioned determinism (GOMAXPROCS=1,2,8, OASIS_SIMCHECK=1) =="
for n in 1 2 8; do
    echo "-- GOMAXPROCS=$n"
    GOMAXPROCS=$n OASIS_SIMCHECK=1 go test -count=1 -timeout 10m -run 'TestReportDigests/(racksweep|chaos|grayfail)/per' ./internal/experiments
    GOMAXPROCS=$n OASIS_SIMCHECK=1 go test -count=1 -run 'TestPerHostPodDeterministic' .
done

# Smoke the full parallel fan-out end to end: every experiment at tiny
# scale with GOMAXPROCS workers. Output determinism vs the serial path is
# asserted by TestParallelMatchesSerial; this catches wiring regressions
# (flag plumbing, ordered flush, worker startup) in the binary itself.
echo "== oasis-bench parallel smoke =="
go run ./cmd/oasis-bench -run all -scale 0.05 -parallel > /dev/null

# Campaign smokes through the binary, one run per execution shape (-exec):
# the seeded chaos and gray-failure campaigns must end with every invariant
# intact (no acked-write loss, bounded loss windows, bounded control-plane
# recovery; both gray devices evacuated with the hard-failover machinery
# silent) and the 512-host rack must place, hot-spot and rebalance with
# cross-pod migrations — serially, with a sim partition per pod (for the
# single-pod campaigns that is the serial path), and with one more per
# load-generating client. Each report says so in one grep-able line; its
# bytes are pinned by TestReportDigests. (-scale reaches only racksweep:
# the campaigns' fault timelines are absolute.)
echo "== chaos / grayfail / racksweep smoke (-exec serial, perpod, perhost) =="
for exec in serial perpod perhost; do
    echo "-- -exec $exec"
    out=$(go run ./cmd/oasis-bench -run chaos,grayfail,racksweep -exec $exec -scale 0.05)
    [ "$(echo "$out" | grep -c "invariants: OK")" = 2 ]
    echo "$out" | grep -q "cross-pod migrations"
done
# A shape asked of an experiment with nothing to partition is refused, not
# silently run serially.
if go run ./cmd/oasis-bench -run fig6 -exec perpod > /dev/null 2>&1; then
    echo "oasis-bench accepted -exec perpod for fig6" >&2
    exit 1
fi

# Gray-failure determinism through the binary: the report must be
# byte-identical between the serial run and the -parallel runner (the
# timeline is absolute, so the bytes must match exactly, modulo the
# real-clock "wall time" footer line).
echo "== grayfail determinism (serial vs -parallel) =="
gray_a=$(go run ./cmd/oasis-bench -run grayfail | grep -v "wall time")
gray_b=$(go run ./cmd/oasis-bench -run grayfail -parallel | grep -v "wall time")
if [ "$gray_a" != "$gray_b" ]; then
    echo "grayfail report differs between serial and -parallel runs" >&2
    exit 1
fi

# Blackout smoke: the pre-copy migration blackout must be strictly smaller
# than stop-the-world at every write rate, with no acked write lost under
# either protocol. The report says so in one grep-able line.
echo "== migration blackout smoke (pre-copy vs stop-the-world) =="
go run ./cmd/oasis-bench -run blackout | grep -q "invariants: OK"

# Fuzz seed-corpus regression: the stored seeds of every fuzz target
# (FuzzParsePlan: every fault kind incl. the gray quartet, plus near-miss
# invalids; FuzzControlCodec: one message per control opcode, the load clamp
# boundary, all-0xFF, a data-plane opcode; FuzzRaftCodec: one frame per RPC
# type cut at every field boundary, and the command-length edge values;
# FuzzTimeline: the ring's named edge cases as byte programs; FuzzUnmarshal:
# an ARP, a UDP and a TCP frame cut at every field boundary and with lying
# IPv4 total lengths; FuzzTopoParse: every node form and its near-misses) run
# as ordinary tests — no long fuzzing here.
# One list, kept in the Makefile (`make fuzz`).
echo "== fuzz seed corpora (make fuzz) =="
make fuzz

# Coverage census, report-only: how many functions no production entry point
# calls that scripts/census.allow does not explain (`make census` lists them).
echo "== coverage census (make census, report-only) =="
sh scripts/census.sh | tail -n 1

echo "verify: OK"
