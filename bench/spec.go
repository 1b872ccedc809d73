package main

// metricSpec names one number the benchmark prints. The lists below are the
// single source of the names: BENCHMARK.json must repeat them exactly (a test
// checks that), and run.go refuses to print a metric that is not listed.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median a metric may worsen by; 0 for per-layer metrics
}

// endToEnd are the gated metrics: what a caller of obsd sees. Every one is
// reported, non-zero, on every workload. The bounds are the widest the
// benchmark contract allows: the shared sandbox has minutes-long phases in
// which everything runs 15-25 % slower, so the spread of single runs cannot
// meet the 0.10 / 0.10 / 0.15 the issue asked for (README.md, "Steadiness").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p99_ms", "ms", "lower", 0.25},
}

// perLayer are the attribution metrics, layer = module name. Sources: e2e
// (the obsd run: client timing, /metrics deltas, /proc) or traced (the
// in-process replay, see trace.go). write_* sit here, un-gated, because they
// exist on churn_durable only and a gated metric may never be zero.
var perLayer = []metricSpec{
	{"write_p50_ms", "ms", "lower", 0},
	{"write_p99_ms", "ms", "lower", 0},

	{"client.range_p50_ms", "ms", "lower", 0},
	{"client.nearest_p50_ms", "ms", "lower", 0},
	{"client.distance_p50_ms", "ms", "lower", 0},
	{"client.path_p50_ms", "ms", "lower", 0},
	{"client.join_p50_ms", "ms", "lower", 0},
	{"client.closest_p50_ms", "ms", "lower", 0},
	{"client.insert_p50_ms", "ms", "lower", 0},
	{"client.delete_p50_ms", "ms", "lower", 0},
	{"client.obstacle_p50_ms", "ms", "lower", 0},
	{"client.attempted", "count", "higher", 0},
	{"client.failed", "count", "lower", 0},

	{"process.cpu_ms_per_op", "ms", "lower", 0},
	{"process.rss_peak_mb", "MB", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},

	{"server.self_us_per_op", "us", "lower", 0},
	{"server.transport_us_per_op", "us", "lower", 0},
	{"server.coalesce_hit_ratio", "ratio", "higher", 0},
	{"server.coalesce_batch_avg", "count", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.response_bytes_per_op", "B", "lower", 0},

	{"obstacles.self_us_per_op", "us", "lower", 0},
	{"obstacles.commit_us_per_op", "us", "lower", 0},
	{"obstacles.fsyncs_per_commit", "ratio", "lower", 0},
	{"obstacles.wal_bytes_per_commit", "B", "lower", 0},
	{"obstacles.checkpoints", "count", "lower", 0},
	{"obstacles.checkpoint_ms", "ms", "lower", 0},
	{"obstacles.cow_copies_per_mutation", "count", "lower", 0},
	{"obstacles.reopen_ms", "ms", "lower", 0},
	{"obstacles.file_bytes_per_user_byte", "ratio", "lower", 0},

	{"core.range_us", "us", "lower", 0},
	{"core.nearest_us", "us", "lower", 0},
	{"core.distance_us", "us", "lower", 0},
	{"core.path_us", "us", "lower", 0},
	{"core.join_ms", "ms", "lower", 0},
	{"core.closest_ms", "ms", "lower", 0},
	{"core.candidates_per_op", "count", "lower", 0},
	{"core.false_hit_ratio", "ratio", "lower", 0},
	{"core.dist_computations_per_op", "count", "lower", 0},
	{"core.graph_builds_per_op", "count", "lower", 0},
	{"core.graph_cache_hit_ratio", "ratio", "higher", 0},
	{"core.graph_cache_invalidations", "count", "lower", 0},
	{"core.graph_nodes_max", "count", "lower", 0},

	{"visgraph.build_us_per_op", "us", "lower", 0},
	{"visgraph.vertices_per_build", "count", "lower", 0},
	{"visgraph.edges_per_build", "count", "lower", 0},
	{"visgraph.add_terminal_us", "us", "lower", 0},
	{"visgraph.dijkstra_us_per_op", "us", "lower", 0},
	{"visgraph.settled_per_op", "count", "lower", 0},
	{"visgraph.expansions_per_op", "count", "lower", 0},
	{"visgraph.allocs_per_build", "count", "lower", 0},
	{"visgraph.alloc_kb_per_build", "kB", "lower", 0},
	{"visgraph.time_share", "ratio", "lower", 0},

	{"rtree.obstacle_search_us", "us", "lower", 0},
	{"rtree.nearest_us", "us", "lower", 0},
	{"rtree.join_ms", "ms", "lower", 0},
	{"rtree.closest_ms", "ms", "lower", 0},
	{"rtree.insert_us", "us", "lower", 0},
	{"rtree.delete_us", "us", "lower", 0},
	{"rtree.logical_reads_per_op", "count", "lower", 0},
	{"rtree.cow_copies_per_insert", "count", "lower", 0},

	{"pagefile.physical_reads_per_op", "count", "lower", 0},
	{"pagefile.buffer_hit_ratio", "ratio", "higher", 0},
	{"pagefile.read_hit_ns", "ns", "lower", 0},
	{"pagefile.read_miss_us", "us", "lower", 0},
	{"pagefile.write_us", "us", "lower", 0},
	{"pagefile.sync_us", "us", "lower", 0},

	{"wal.append_group_us", "us", "lower", 0},
	{"wal.bytes_per_tx", "B", "lower", 0},
	{"wal.replay_ms_per_ktx", "ms", "lower", 0},

	{"geom.blocks_segment_ns", "ns", "lower", 0},
	{"geom.orientation_ns", "ns", "lower", 0},
	{"geom.proper_cross_ns", "ns", "lower", 0},

	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.probe_coverage", "ratio", "higher", 0},
}

// workloadSpec sizes one workload. A pass is one replay of the whole request
// list; sizes give a pass of roughly passTargetSeconds at the seed commit on a
// 2-core box, so a run of run_seconds holds several whole passes.
type workloadSpec struct {
	Name string
	Why  string
	// Requests is the list length of one pass, Prefix the number of list
	// entries the traced run replays in-process.
	Requests, Prefix int
	// Durable runs obsd on a file (obsd -db) instead of in memory.
	Durable bool
}

var workloads = []workloadSpec{
	{
		Name: "paper_mix",
		Why: "the paper's four obstructed queries at uniform street points; the working set exceeds " +
			"the graph cache and page buffers, so each request builds small visibility graphs",
		Requests: 3000, Prefix: 150,
	},
	{
		Name: "route_long",
		Why: "shortest paths 800-1600 units long: one large visibility graph per request, " +
			"the opposite graph shape from paper_mix",
		Requests: 640, Prefix: 24,
	},
	{
		Name: "distance_hot",
		Why: "distances inside 4 hot coalescer cells that fit the graph cache: no graph builds, " +
			"so wire, admission, coalescer and pin costs dominate",
		Requests: 3000, Prefix: 400,
	},
	{
		Name: "churn_durable",
		Why: "point and obstacle writes beside range reads on a durable store: WAL fsync, " +
			"copy-on-write R-tree, checkpoints and graph-cache invalidation",
		Requests: 8000, Prefix: 1000, Durable: true,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
