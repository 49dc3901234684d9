package main

// metricDef describes one reported metric. BENCHMARK.json repeats name,
// unit, better and bound; bench_test.go checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// End-to-end metrics only. A later commit regresses when it is worse
	// than its parent by more than max(bound × parent, floor).
	bound float64
	floor float64
	clock string // "host" or "virtual"; virtual metrics must repeat exactly from rep to rep
	// best reports the smallest rep instead of the median of reps (see
	// summary in measure.go for why host times do).
	best bool
}

// endToEnd is what a user of the system sees, on both clocks: host time is
// what the simulator costs to run, virtual time is how the modelled Oasis
// pod performs. fail_frac is not in the list because it is 0 on every
// workload at the reference load (a metric here must never be 0); failures
// are reported as the result line's attempted/failed counts instead.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.05, clock: "host", best: true},
	{name: "run_s", unit: "s", better: "lower", bound: 0.15, clock: "host", best: true},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.15, clock: "host", best: true},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.03, clock: "host"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10, floor: 5, clock: "host"},
	{name: "v_p50_us", unit: "us", better: "lower", bound: 0.03, clock: "virtual"},
	{name: "v_p99_us", unit: "us", better: "lower", bound: 0.05, clock: "virtual"},
	{name: "v_goodput_kops", unit: "kop/s", better: "higher", bound: 0.03, clock: "virtual"},
}

// perLayer lists every per-layer metric a traced run reports, grouped by
// the layer (package) it describes. Every workload reports all of them; one
// that does not apply (ssd.* on the rack, model.* off the ladder) reads 0.
var perLayer = []metricDef{
	// sim and the Go runtime underneath it
	{name: "sim.cpu_frac", unit: "ratio", better: "lower"},
	{name: "sim.host_ns_per_iter", unit: "ns", better: "lower"},
	{name: "sim.par_speedup", unit: "ratio", better: "higher"},
	{name: "sim.partitions", unit: "count", better: "higher"},
	{name: "runtime.sched_frac", unit: "ratio", better: "lower"},
	{name: "runtime.gc_frac", unit: "ratio", better: "lower"},
	{name: "runtime.run_gc_frac", unit: "ratio", better: "lower"},
	{name: "runtime.other_frac", unit: "ratio", better: "lower"},
	// core driver loops
	{name: "core.cpu_frac", unit: "ratio", better: "lower"},
	{name: "core.iters", unit: "count", better: "lower"},
	{name: "core.idle_iters", unit: "count", better: "lower"},
	{name: "core.idle_frac", unit: "ratio", better: "lower"},
	{name: "core.processed", unit: "count", better: "higher"},
	// message channels
	{name: "msgchan.cpu_frac", unit: "ratio", better: "lower"},
	{name: "msgchan.sent", unit: "count", better: "higher"},
	{name: "msgchan.received", unit: "count", better: "higher"},
	{name: "msgchan.send_full", unit: "count", better: "lower"},
	{name: "msgchan.v_rx_lat_p50_us", unit: "us", better: "lower"},
	// host cache model
	{name: "cache.cpu_frac", unit: "ratio", better: "lower"},
	{name: "cache.hits", unit: "count", better: "higher"},
	{name: "cache.misses", unit: "count", better: "lower"},
	{name: "cache.hit_frac", unit: "ratio", better: "higher"},
	{name: "cache.writebacks", unit: "count", better: "lower"},
	{name: "cache.prefetch_issued", unit: "count", better: "higher"},
	{name: "cache.fill_waits", unit: "count", better: "lower"},
	// CXL pool ports
	{name: "cxl.cpu_frac", unit: "ratio", better: "lower"},
	{name: "cxl.msg_bytes", unit: "B", better: "lower"},
	{name: "cxl.payload_bytes", unit: "B", better: "lower"},
	{name: "cxl.bytes_per_op", unit: "B", better: "lower"},
	// host memory and topology construction (set-up phase)
	{name: "host.cpu_frac", unit: "ratio", better: "lower"},
	{name: "topology.cpu_frac", unit: "ratio", better: "lower"},
	{name: "topology.build_s", unit: "s", better: "lower"},
	{name: "topology.start_s", unit: "s", better: "lower"},
	{name: "topology.spawn_s", unit: "s", better: "lower"},
	// network engine, NIC, switch, stack
	{name: "netengine.cpu_frac", unit: "ratio", better: "lower"},
	{name: "netengine.tx_forwarded", unit: "count", better: "higher"},
	{name: "netengine.rx_delivered", unit: "count", better: "higher"},
	{name: "netengine.tx_channel_full", unit: "count", better: "lower"},
	{name: "netengine.buf_alloc_fails", unit: "count", better: "lower"},
	{name: "nic.cpu_frac", unit: "ratio", better: "lower"},
	{name: "nic.tx_packets", unit: "count", better: "higher"},
	{name: "nic.rx_packets", unit: "count", better: "higher"},
	{name: "nic.rx_no_desc", unit: "count", better: "lower"},
	{name: "nic.tx_ring_full", unit: "count", better: "lower"},
	{name: "netsw.cpu_frac", unit: "ratio", better: "lower"},
	{name: "netstack.cpu_frac", unit: "ratio", better: "lower"},
	// storage engine and SSD
	{name: "storengine.cpu_frac", unit: "ratio", better: "lower"},
	{name: "storengine.reads", unit: "count", better: "higher"},
	{name: "storengine.writes", unit: "count", better: "higher"},
	{name: "storengine.retries", unit: "count", better: "lower"},
	{name: "storengine.io_errors", unit: "count", better: "lower"},
	{name: "ssd.cpu_frac", unit: "ratio", better: "lower"},
	{name: "ssd.reads", unit: "count", better: "higher"},
	{name: "ssd.writes", unit: "count", better: "higher"},
	{name: "ssd.queue_full_rejects", unit: "count", better: "lower"},
	// control plane
	{name: "allocator.cpu_frac", unit: "ratio", better: "lower"},
	{name: "allocator.placements", unit: "count", better: "higher"},
	{name: "allocator.migrations", unit: "count", better: "higher"},
	{name: "raft.cpu_frac", unit: "ratio", better: "lower"},
	// observability (must stay off the Run() path)
	{name: "obs.cpu_frac", unit: "ratio", better: "lower"},
	{name: "obs.snapshot_ms", unit: "ms", better: "lower"},
	{name: "obs.points", unit: "count", better: "higher"},
	// the modelled system's latency ladder (echo_ladder only)
	{name: "model.r300_p50_us", unit: "us", better: "lower"},
	{name: "model.r300_p99_us", unit: "us", better: "lower"},
	{name: "model.r600_p50_us", unit: "us", better: "lower"},
	{name: "model.r600_p99_us", unit: "us", better: "lower"},
	{name: "model.r750_p50_us", unit: "us", better: "lower"},
	{name: "model.r750_p99_us", unit: "us", better: "lower"},
	{name: "model.r900_p50_us", unit: "us", better: "lower"},
	{name: "model.r900_p99_us", unit: "us", better: "lower"},
	{name: "model.r300_gen_late_p99_us", unit: "us", better: "lower"},
	{name: "model.r600_gen_late_p99_us", unit: "us", better: "lower"},
	{name: "model.r750_gen_late_p99_us", unit: "us", better: "lower"},
	{name: "model.r900_gen_late_p99_us", unit: "us", better: "lower"},
	{name: "model.gen_late_p99_us", unit: "us", better: "lower"},
	{name: "model.capacity_kops", unit: "kop/s", better: "higher"},
	{name: "model.overhead_p50_us", unit: "us", better: "lower"},
	{name: "model.bufs_cxl_us", unit: "us", better: "lower"},
	{name: "model.msgpass_us", unit: "us", better: "lower"},
	// the harness itself
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
}
