package main

// metricDef names one reported metric. BENCHMARK.json at the root of
// the repository mirrors these two tables (bench_test.go checks it).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported by
// the untraced run. fail_frac is printed with them but carried in the
// result line's attempted/failed counts: it is 0 on a correct run, so
// a bound relative to its median would mean nothing.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.2},
	{"host_ops_per_s", "ops/s", "higher", 0.2},
	{"allocs_per_op", "count", "lower", 0.1},
	{"alloc_bytes_per_op", "B", "lower", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.2},
	{"virt_lat_p50_us", "us", "lower", 0.15},
	{"virt_lat_p99_us", "us", "lower", 0.15},
	{"virt_ops_per_s", "ops/s", "higher", 0.15},
}

// perLayer are the single-layer metrics of the traced run. Ratios
// print their base; "per op" divides by the round's ops (steady-window
// deltas divide by steady ops only, see README.md).
var perLayer = []metricDef{
	{Name: "core.p2p_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.coll_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.host_busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "jvm.setup_alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "jvm.gc_collections", Unit: "count", Better: "lower"},
	{Name: "jvm.gc_pause_us", Unit: "us", Better: "lower"},
	{Name: "jvm.heap_alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "jni.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "jni.copied_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "jni.critical_enters_per_op", Unit: "count", Better: "lower"},
	{Name: "mpjbuf.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mpjbuf.high_water_bytes", Unit: "B", Better: "lower"},
	{Name: "nativempi.copy.bytes_copied_per_op", Unit: "B", Better: "lower"},
	{Name: "nativempi.copy.elided_ratio", Unit: "ratio", Better: "higher"},
	{Name: "nativempi.reg.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "nativempi.reg.pinned_peak_bytes", Unit: "B", Better: "lower"},
	{Name: "nativempi.rdma.bytes_placed_per_op", Unit: "B", Better: "higher"},
	{Name: "nativempi.match.probes_per_lookup", Unit: "count", Better: "lower"},
	{Name: "nativempi.match.unexp_depth_hiwater", Unit: "count", Better: "lower"},
	{Name: "nativempi.mailbox.pushes_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.mailbox.batch_mean", Unit: "count", Better: "higher"},
	{Name: "nativempi.mailbox.max_tail", Unit: "count", Better: "lower"},
	{Name: "nativempi.threads.handoffs_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.threads.arb_wait_us", Unit: "us", Better: "lower"},
	{Name: "nativempi.flow.rnr_parks_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.flow.rnr_wait_us", Unit: "us", Better: "lower"},
	{Name: "nativempi.flow.demoted_ratio", Unit: "ratio", Better: "lower"},
	{Name: "nativempi.engine.phases_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.engine.delivered_per_phase", Unit: "count", Better: "higher"},
	{Name: "nativempi.engine.yields_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.arena.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "nativempi.proc.bytes_sent_per_op", Unit: "B", Better: "lower"},
	{Name: "nativempi.proc.rndv_ratio", Unit: "ratio", Better: "lower"},
	{Name: "nativempi.proc.retransmits_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.proc.acks_per_op", Unit: "count", Better: "lower"},
	{Name: "faults.drops_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.copyin_us", Unit: "us", Better: "lower"},
	{Name: "trace.wire_us", Unit: "us", Better: "lower"},
	{Name: "trace.copyout_us", Unit: "us", Better: "lower"},
	{Name: "trace.ack_us", Unit: "us", Better: "lower"},
	{Name: "trace.retx_us", Unit: "us", Better: "lower"},
	{Name: "trace.flow_us", Unit: "us", Better: "lower"},
	{Name: "trace.gc_us", Unit: "us", Better: "lower"},
	{Name: "trace.coll_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "higher"},
}

// reading is one reported value and the base it was computed over.
type reading struct {
	Value float64
	Base  string
}
