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
# its own driver core — PollOnce exists only as the opaque-loop interface and
# its adapter in core/engine.go — raft's transport builds its channels with
# core.NewDuplexLink and backs off with core.Backoff, and the experiments
# build raw channels in one place (rawChannel). A new hand-rolled poll loop,
# channel builder or capped doubling fails here. (bench/ is frozen and keeps
# the one opaque loop, its idle probe.)
echo "== one loop runner, one link builder, one backoff, one pass per iteration, one closing rule (grep gate) =="
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
# One pass per iteration: an engine's control end is polled in its data
# links' pass (Stage.Control), never in a pass of its own.
gate "a control stage beside the data pass" "$(grep -rn --include='*.go' 'ControlStage' . || true)"
# One closing rule for every poll: a lone Receiver.Poll is a pass over its
# one receiver, so the receiver has one Begin and no mode that flushes and
# fences inside the poll.
gate "a second poll mode in the receiver" "$(grep -rnE --include='*.go' 'BeginDeferred|inPass|recvFlush' . || true)"

# One window bound, one kind of link end, two execution shapes: the
# adaptive-horizon hysteresis, the interface a LinkSet's ends hid behind, its
# cross-partition implementation, the guest partitions and per-host
# partitioning with its remote switch port are gone, comments included —
# partitioned execution is sim.Group with a partition per pod and nothing
# else.
echo "== one window bound, one kind of link end, two shapes (grep gate) =="
gate "a deleted partitioned-execution name" "$(grep -rn --include='*.go' 'ChanEnd\|CrossEnd\|NewCrossChannel\|AddGuest\|DeclareCross\|quietWindows\|SetInboxBound\|PerHost\|RemotePort\|ErrSerialCluster' . || true)"
gate "internal/core/cross.go, internal/cxl/cross.go or internal/netsw/cross.go" "$(ls internal/core/cross.go internal/cxl/cross.go internal/netsw/cross.go 2>/dev/null || true)"
gate "more than one eitFixpoint call" "$(grep -c 'eitFixpoint(' internal/sim/partition.go | grep -vx 2 || true)"
gate "a type assertion on a link end" "$(grep -n '\.(\*LinkEnd)' internal/core/*.go | grep -v '_test\.go:' || true)"
gate "a second sort in the barrier merge" "$(grep -n 'sort\.Slice\|extLess' internal/sim/partition.go || true)"

# Memory on first touch: the sender's shadow ring and the latency histogram
# counters are allocated when a message needs them, never sized up front, and
# a buffer area lists a buffer only once it has been freed (buffers never
# handed out are a bump index, not a list of every buffer).
echo "== memory on first touch (grep gate) =="
gate "a histogram or sender ring sized up front" "$(grep -rn 'nMagnitudes \* subBuckets\]\|make(\[\]byte, ch.cfg.Slots' internal/ || true)"
gate "a buffer-area free list built up front" "$(grep -n 'free: *make(\|append(a\.free, region\.Base' internal/core/core.go || true)"

# Snapshots never sort: a registry keeps its instruments in name order (the
# lazy sort in obs.go, once per batch of registrations), so a snapshot's
# points come out sorted, and a cluster merges its pods' sorted runs.
echo "== snapshots never sort (grep gate) =="
gate "a sort in the snapshot path" "$( (grep -n 'sort\.\|slices\.Sort' internal/obs/snapshot.go; awk '/^func \(c \*Cluster\) Stats\(/,/^}/' cluster.go | grep -n 'sort\.\|slices\.Sort') || true)"

# Pool memory is never freed, and every counter has one read path: a bump
# pointer allocates pool regions (no span allocator package beside it), obs
# registration panics on a wiring bug (no error-returning second form), and
# an engine's counters are read through obs (no stats block of its own).
echo "== one allocator, one registration form, one read path (grep gate) =="
gate "internal/memalloc" "$(ls -d internal/memalloc 2>/dev/null || true)"
gate "an error-returning obs registration form or an engine stats block outside tests" "$(src 'Register\(Counter\|Gauge\|Histogram\|Meter\)(\|EngineStats')"

# One switch path: a process is an iter.Pull coroutine that its resumer runs
# until it parks. A channel token beside it (the group's barrier channels
# aside) would be a second way to switch processes; a Go map from line
# address to line would put string-free hashing back on every cache access.
echo "== one switch path, no map of cache lines (grep gate) =="
gate "a chan struct{} process token in internal/sim" "$(grep -rn --include='*.go' 'chan struct{}' internal/sim | grep -v '_test\.go:' | grep -v 'barrier' || true)"
gate "a Go map of cache lines" "$(grep -rn 'map\[int64\]\*line' internal/cache || true)"

# Nodes are added, never removed: failover and migration are the answers to
# a bad or busy device, and only an instance is ever detached (migration's
# cutover and abort). Hot removal of hosts, NICs and SSDs, the engine hooks
# it alone reached and the link set's copy-on-remove are gone.
echo "== nodes are never removed (grep gate) =="
gate "a deleted node-removal name" "$(grep -rn --include='*.go' 'RemoveHostErr\|RemoveNICErr\|RemoveSSDErr\|RestoreNICPort\|ErrHostNotEmpty\|liveHosts\|DisconnectBackend\|InstancesOn\|RemoveDevice\|RemoveFrontend\|UsesNIC\|UsesSSD\|VolumeCount' . || true)"
gate "a LinkSet.Remove" "$(grep -rn --include='*.go' 'func (s \*LinkSet) Remove' . || true)"

# Every frame has one owner: the switch reads a frame's addresses once, as
# it takes the bytes (Port.SendOwned), and packets decode in place into a
# Packet the caller holds, so neither the NIC's own parse nor an allocating
# decoder comes back.
echo "== every frame has one owner (grep gate) =="
gate "a second frame parse or an allocating packet decoder" "$(src 'func parseFrame\|func Unmarshal(')"

# One engine, one core: every engine builds its own driver core with its
# stage list, and a core runs that one loop. The shared host core, the seat
# that put a loop on a core and the driver's loop list are gone; so are the
# core's wrappers over the cache's range operations and the backpressure
# predicate no engine consulted.
echo "== one engine, one core (grep gate) =="
gate "a shared host core, a seat or a loop list in internal/core or the facade" "$(grep -n 'SharedHostCore\|shared-core\|core\.Seat\|NewSeat\|Join(\|Loops()\|obsDrivers\|\[\]\[\]Stage' internal/core/*.go ./*.go cmd/oasis-pod/*.go scripts/census.sh | grep -v '_test\.go:' || true)"
gate "a core wrapper over a cache range operation, or Link.Backlogged" "$(src 'core\.WritebackRange\|core\.InvalidateRange\|func WritebackRange(p\|func InvalidateRange(\|Backlogged')"

# One representation per thing: the pod is its graph (no Topology beside
# Pod), a pod claims only the IPs callers choose (host and device ids come
# from counters), an engine's peer is its *core.Link (the peer's id is
# Link.Peer, a NIC's MAC is in the pod's NIC directory), and host DDR is
# only the cost the datapath charges (no store, no DMA path, no constants
# that only those read).
echo "== one representation per thing (grep gate) =="
gate "a Topology type beside Pod" "$(src 'type Topology struct\|NewTopology(\|\*Topology\b')"
gate "an engine wrapper around its peer's link" "$(src -w 'feLink\|sfeLink\|sbeLink\|beLink')"
gate "host DDR as a store, or its DMA constants" "$(grep -n 'LocalMemory\|DMALatency\|DMABandwidth' internal/host/*.go | grep -v '_test\.go:' || true)"
gate "a host or device id claimed in the pod graph, or Host.BEs" "$(grep -n 'addNode(topo\.Ref\|\bBEs\b' ./*.go | grep -v '_test\.go:' || true)"

# The machine decides how a run executes: how many threads an experiment
# fans out over and whether racksweep partitions its rack follow GOMAXPROCS,
# and the cross-pod hop latency is DefaultHopLatency. Neither changes a
# report's bytes, so none of them is a setter, a flag or a config field.
echo "== the machine decides how a run executes (grep gate) =="
gate "an execution-shape setter, a hop-latency knob or its read-back" "$(src 'SetParallelism\|SetExec\|ParseExec\|Partitionable\|SetHopLatency\|MobileLatency()')"
gate "a Workers field in internal/strand" "$(grep -n 'Workers' internal/strand/*.go | grep -v '_test\.go:' || true)"
gate "an oasis-bench flag choosing an execution path" "$(grep -n 'flag\.[A-Za-z]*("\(parallel\|exec\)"' cmd/oasis-bench/*.go || true)"

# One claims table: every claim about the paper and every campaign
# invariant is a row of the fidelity table (internal/experiments/
# fidelity_test.go), checked on the runs the tests already make, and
# EXPERIMENTS.md's fidelity section is rendered from it. The hand-written
# shape tests and the campaign invariant map it replaced stay gone, and a
# runner trusts its scale: oasis-bench refuses one outside (0, 1] where it
# enters, so no runner clamps. A row holds the paper's number as a band
# (paperBand), never as a number in its paper text, which no test reads.
echo "== one claims table, the scale checked where it enters (grep gate) =="
gate "a paper number held as text in the claims table" "$(grep -nE 'paper: "[~≈<> ]*[0-9][0-9.]*([–-][0-9.]+)?( [A-Za-zµ/%]+)?"' internal/experiments/fidelity_test.go || true)"
gate "a hand-written shape test" "$(grep -rn --include='*.go' 'TestFig2Shapes\|TestFig3Burstiness\|TestTable1DeviceModels\|TestTable2Aggregation\|TestFig6DesignLadder\|TestFig9MemcachedOverheadBand\|TestFig10OverheadSizeIndependent\|TestFig11BreakdownAttribution\|TestTable3BandwidthBreakdown\|TestFig12MultiplexingInterference\|TestFig13FailoverWindow\|TestFig14TCPRecovery\|TestAblCounterBatchAmortizes\|TestAblBackendInspectCosts\|TestAblFailoverMechanisms\|TestAblHWCoherentChannel\|TestAblShardingScalesThroughput\|TestAblQoSProtectsSignaling\|TestAblStorageShapes' . || true)"
gate "a campaign invariant map beside the claims table" "$(grep -rn --include='*.go' 'campaignInvariants' . || true)"
gate "a runner clamping its scale" "$(grep -rn --include='*.go' 'clampScale' . || true)"

# Exact counts are goldens: every count a test pins is a row of one
# testdata/counts.txt per package — the root's busy, idle and partitioned
# scenarios, internal/experiments' one line per report digest row — compared
# by one helper per package. The hand-written count structs and constants it
# replaced stay gone.
echo "== exact counts are goldens (grep gate) =="
gate "a hand-written count struct or constant in a test" "$(grep -rn --include='*_test.go' 'busyPodCounts\|idlePodEvents\|idlePodFastSleeps\|wantEvents' . || true)"

# One telemetry period: allocator.Config.TelemetryEvery is the pod's only
# telemetry knob. Backends take it with their control link, the allocator's
# lease is three periods and its load conversion divides by the period, so
# neither engine keeps a period of its own, no lease is set beside it and no
# window is assumed.
echo "== one telemetry period (grep gate) =="
gate "a second telemetry period, a lease setting or an assumed window" "$(grep -rn --include='*.go' 'LeaseTimeout\|telemetryWindow\|storengine\.Config\|storengine\.DefaultConfig\|Engine\.TelemetryEvery\|Storage\.TelemetryEvery' . | grep -v '^\./bench/' || true)"

echo "== go build ./... =="
go build ./...

echo "== go vet ./... =="
go vet ./...

echo "== go test ./... =="
go test -timeout 10m ./...

# The drift lines: one per claims row whose value lies outside the paper's
# own band, with its signed distance. The run above failed any such row that
# cites no deviation; these lines are the row-by-row fidelity ledger a
# virtual-time change reports.
echo "== claims outside the paper's band (drift lines) =="
go test -count=1 -run TestReportDigests -v ./internal/experiments | grep 'paper band' || true

# Exact counts: host bytes allocated by an idle default-config duplex link
# and by building + starting the benchmark's 128-host rack, asserted by the
# tests and printed here; and the root package's count scenarios (busy, idle
# and partitioned pods) against testdata/counts.txt again at one thread —
# the golden the default-GOMAXPROCS run above checked, so their
# independence of the thread count is asserted, not assumed.
echo "== host bytes allocated (idle link, rack setup); exact counts at GOMAXPROCS=1 =="
go test -count=1 -run 'TestIdleLinkBytes' -v ./internal/core | grep ' B allocated'
go test -count=1 -run 'TestRackSetupBytes' -v . | grep ' B allocated'
GOMAXPROCS=1 go test -count=1 -run 'ExactCounts' .

# The slow self-checks over the packages every simulated cycle goes through;
# they take seconds. In sim, cache, msgchan and core that is the
# scheduling-in-the-past guard (a lookahead bug panics instead of being
# clamped) and the timeline's ring asserting, at every pop, that the entry is
# for the instant its bucket was found at; in core and the three engine packages it is also the driver
# distrusting every work stage's idle predicate — a stage it would have
# skipped, stepped or not, is run anyway from the process and must process
# nothing, take no leg or time and schedule nothing — so a predicate that
# drifts from its work fails here instead of moving a digest. The NIC's
# pipeline and the stacks are chains that await their queues; the busy pods'
# rows of testdata/counts.txt (all but switches) and the wiring digests must
# hold under the guard too. Under the guard the buffer pool also scribbles every buffer it
# takes back, so a frame read after the switch released it (netsw, nic,
# netstack, the echo tests' byte-for-byte check) or a staging buffer read
# after ssd put it back fails. The pool scribbles too: a freed I/O buffer's
# whole pages are poisoned in place instead of released, so any result that
# read a buffer after its free moves a digest. Every report digest runs
# under the guard as well (~30 s on 2 vCPUs), with its row of
# internal/experiments/testdata/counts.txt bar switches: only the
# experiments reach failover, migration and blackout, where a buffer is
# freed early. Under the guard no ring is fetched uncached, so every idle
# ring takes the cached per-ring path in place of its pass's batched fetch
# (core.pollPass, msgchan.Receiver.PollFetched): the idle pod's and the
# partitioned cluster's count rows, which the batched path makes without the
# guard, cross-check it end to end.
echo "== OASIS_SIMCHECK=1 go test (sim, cache, msgchan, core, netengine, storengine, allocator, nic, netstack, netsw, ssd, obs; busy and idle pods, echo, wiring, clusters; report digests) =="
OASIS_SIMCHECK=1 go test -count=1 ./internal/sim ./internal/cache ./internal/msgchan ./internal/core \
    ./internal/netengine ./internal/storengine ./internal/allocator ./internal/nic ./internal/netstack \
    ./internal/netsw ./internal/ssd ./internal/obs
OASIS_SIMCHECK=1 go test -count=1 -run 'TestBusyPodExactCounts|TestEchoMallocsPerRequest|TestWiringDigests|TestClusterStatsMergedAndScoped|TestPartitionedClusterMatchesSerial|TestIdlePodExactCounts|TestPartitionedClusterExactCounts' .
OASIS_SIMCHECK=1 go test -count=1 -timeout 10m -run 'TestReportDigests' ./internal/experiments

# bench/ is its own module (`replace oasis => ../`), invisible to the ./...
# patterns above although it imports internal/core, the engine configs and
# the panic-form builders: compile, vet and test it so an internal rename
# that breaks the repository benchmark fails here, not in the pipeline.
echo "== bench module: go vet + go test (bench-check) =="
go -C bench vet .
go -C bench test .
# The benchmark's servers under the guard: a datagram and a volume read are
# lent to the process that received them until its next receive, and the
# pool scribbles them once given back, so a server that reads them later
# fails an echo or a block check here.
OASIS_SIMCHECK=1 go -C bench test -count=1 -run 'TestWorkloadsDeterministicAndSeeded|TestVerifierCatchesCorruptEcho' .

# The race gate: one list, kept in the Makefile (`make race`) with the
# reasoning for what is on it.
echo "== go test -race (make race) =="
make race

# Intra-run determinism: the thread count must be invisible in the virtual
# timeline — the conservative-window barriers plus the (timestamp, source
# partition, source seq) merge order are the only schedule. The one
# non-serial row of TestReportDigests (racksweep per-pod, against the serial
# constant) is swept at GOMAXPROCS=1 (everything time-slices one thread), 2
# (real preemption between partitions) and 8 (full fan-out), under
# OASIS_SIMCHECK=1: partitioned windows are exactly where the past-of-window
# guard has teeth. The serial rows ran in the `go test ./...` tier above; one
# thread cannot reorder them.
echo "== partitioned determinism (GOMAXPROCS=1,2,8, OASIS_SIMCHECK=1) =="
for n in 1 2 8; do
    echo "-- GOMAXPROCS=$n"
    GOMAXPROCS=$n OASIS_SIMCHECK=1 go test -count=1 -timeout 10m -run 'TestReportDigests/racksweep/perpod' ./internal/experiments
done

# The machine decides how a run executes: experiments and their inner sweeps
# fan out across GOMAXPROCS threads and racksweep partitions its rack when it
# has more than one, so GOMAXPROCS is the one lever. Every experiment at tiny
# scale must print the same bytes at one thread as at the default, wall-time
# lines aside: this catches wiring regressions (ordered flush, worker
# startup) in the binary itself, beside TestParallelMatchesSerial.
echo "== oasis-bench thread-count smoke (GOMAXPROCS=1 vs default) =="
all_1=$(GOMAXPROCS=1 go run ./cmd/oasis-bench -run all -scale 0.05 -values | grep -v "wall time")
all_n=$(go run ./cmd/oasis-bench -run all -scale 0.05 -values | grep -v "wall time")
if [ "$all_1" != "$all_n" ]; then
    echo "oasis-bench -run all differs between GOMAXPROCS=1 and the default" >&2
    exit 1
fi

# A scale outside (0, 1] is refused where it enters, with the usage exit
# status, before any experiment runs. (go run reports any failure as 1, so
# the binary is built.)
echo "== oasis-bench refuses -scale 0 (exit 2) =="
bin=$(mktemp -d)
go build -o "$bin/oasis-bench" ./cmd/oasis-bench
status=0
"$bin/oasis-bench" -run tab1 -scale 0 2>/dev/null || status=$?
rm -rf "$bin"
if [ "$status" != 2 ]; then
    echo "oasis-bench -run tab1 -scale 0 exited $status, want 2" >&2
    exit 1
fi

# Campaign smokes through the binary: the seeded chaos and gray-failure
# campaigns must end with every invariant intact (no acked-write loss,
# bounded loss windows, bounded control-plane recovery; both gray devices
# evacuated with the hard-failover machinery silent), and the 512-host rack
# must place, hot-spot and rebalance with cross-pod migrations under each
# execution shape: serially at GOMAXPROCS=1 and with a sim partition per pod
# at 2, printing the same bytes. Each report says so in one grep-able line;
# its bytes are pinned by TestReportDigests. (-scale reaches only racksweep:
# the campaigns' fault timelines are absolute.)
echo "== chaos / grayfail smoke, racksweep smoke (GOMAXPROCS=1, 2) =="
out=$(go run ./cmd/oasis-bench -run chaos,grayfail)
[ "$(echo "$out" | grep -c "invariants: OK")" = 2 ]
rack_1=$(GOMAXPROCS=1 go run ./cmd/oasis-bench -run racksweep -scale 0.05 | grep -v "wall time")
rack_2=$(GOMAXPROCS=2 go run ./cmd/oasis-bench -run racksweep -scale 0.05 | grep -v "wall time")
for rack in "$rack_1" "$rack_2"; do
    echo "$rack" | grep -q "cross-pod migrations"
done
if [ "$rack_1" != "$rack_2" ]; then
    echo "racksweep differs between GOMAXPROCS=1 (serial) and 2 (per pod)" >&2
    exit 1
fi

# Gray-failure determinism through the binary: the report must be
# byte-identical at one thread and at two (the timeline is absolute, so the
# bytes must match exactly, modulo the real-clock "wall time" footer line).
echo "== grayfail determinism (GOMAXPROCS=1 vs 2) =="
gray_a=$(GOMAXPROCS=1 go run ./cmd/oasis-bench -run grayfail | grep -v "wall time")
gray_b=$(GOMAXPROCS=2 go run ./cmd/oasis-bench -run grayfail | grep -v "wall time")
if [ "$gray_a" != "$gray_b" ]; then
    echo "grayfail report differs between GOMAXPROCS=1 and 2" >&2
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
# IPv4 total lengths; FuzzTopoParse: every node form and its near-misses;
# the two FuzzDataCodec targets, netengine's and storengine's: every opcode,
# 0, an unused one, a control opcode and 0xFF, with size, epoch and status
# fields at 0, 1 and their max and the buffer address at -1) run as ordinary
# tests — no long fuzzing here.
# One list, kept in the Makefile (`make fuzz`).
echo "== fuzz seed corpora (make fuzz) =="
make fuzz

# Coverage census, a gate: every function no production entry point calls,
# and every Config/Params field nothing outside its package sets, is
# explained in scripts/census.allow, and every line there still names one
# (`make census` lists what fails). The output is captured first: in a
# pipeline, sh would take tail's exit status instead of the census's.
echo "== coverage census (make census) =="
if ! census=$(sh scripts/census.sh); then
    echo "$census" >&2
    exit 1
fi
echo "$census" | tail -n 1

echo "verify: OK"
