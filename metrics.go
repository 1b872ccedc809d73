package obstacles

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Query verbs as they appear in per-verb metrics (the `verb` label of
// obstacles_queries_total and obstacles_query_seconds).
const (
	VerbRange              = "range"
	VerbNearestNeighbors   = "nearest_neighbors"
	VerbDistanceJoin       = "distance_join"
	VerbClosestPairs       = "closest_pairs"
	VerbObstructedDistance = "obstructed_distance"
	VerbObstructedPath     = "obstructed_path"
	VerbBatchDistances     = "batch_distances"
	VerbDistanceMatrix     = "distance_matrix"
	VerbNearestStream      = "nearest_stream"
	VerbClosestStream      = "closest_stream"
	VerbCluster            = "cluster"
)

// queryVerbs lists every verb label, in the order metrics are registered.
var queryVerbs = []string{
	VerbRange, VerbNearestNeighbors, VerbDistanceJoin, VerbClosestPairs,
	VerbObstructedDistance, VerbObstructedPath, VerbBatchDistances,
	VerbDistanceMatrix, VerbNearestStream, VerbClosestStream, VerbCluster,
}

// Mutation ops as they appear in obstacles_mutations_total.
const (
	OpInsertPoints    = "insert_points"
	OpDeletePoints    = "delete_points"
	OpAddObstacles    = "add_obstacles"
	OpRemoveObstacles = "remove_obstacles"
	OpAddDataset      = "add_dataset"
)

var mutationOps = []string{
	OpInsertPoints, OpDeletePoints, OpAddObstacles, OpRemoveObstacles, OpAddDataset,
}

// verbMetrics is the per-verb instrument set.
type verbMetrics struct {
	count   *telemetry.Counter
	errors  *telemetry.Counter
	seconds *telemetry.Histogram
}

// dbMetrics is one Database's telemetry: a registry of every instrument,
// updated lock-free on the hot paths and scraped by the debug endpoint.
// Created unconditionally (in-memory databases simply leave the durable
// instruments at zero), so the commit path never nil-checks.
type dbMetrics struct {
	reg *telemetry.Registry

	// Query path.
	verbs            map[string]*verbMetrics
	pageAccesses     *telemetry.Counter
	settledNodes     *telemetry.Counter
	graphBuilds      *telemetry.Counter
	graphSweeps      *telemetry.Counter
	graphWalks       *telemetry.Counter
	falseHits        *telemetry.Counter
	candidates       *telemetry.Counter
	results          *telemetry.Counter
	distComputations *telemetry.Counter
	refined          [3]*telemetry.Counter // by certificate: sight, detour, graph

	// Mutation path.
	mutations map[string]*telemetry.Counter

	// Durable commit path (see persist.go). Stage is the time a mutator
	// spends building its commit under the update lock; ack the time it
	// spends parked on its ticket after unlocking; fsync the WAL fsync
	// syscall itself (fed by the wal sync hook).
	commits           *telemetry.Counter
	fsyncs            *telemetry.Counter
	groupCommits      *telemetry.Counter
	checkpoints       *telemetry.Counter
	commitFailures    *telemetry.Counter
	stageSeconds      *telemetry.Histogram
	ackSeconds        *telemetry.Histogram
	fsyncSeconds      *telemetry.Histogram
	batchSize         *telemetry.Histogram
	checkpointSeconds *telemetry.Histogram

	// Self-healing durability (see recovery.go and scrub.go).
	recoverySeconds *telemetry.Histogram
	scrubs          *telemetry.Counter
	scrubPages      *telemetry.Counter
	scrubCorrupt    *telemetry.Counter

	// traces is the flight recorder behind /debug/traces and /debug/active.
	traces *telemetry.Recorder

	// memStats caches one runtime.ReadMemStats read across the runtime
	// series of a scrape: the read is briefly stop-the-world, so the four
	// memory gauges share one per-interval snapshot instead of paying it
	// four times per scrape.
	memMu     sync.Mutex
	memStats  runtime.MemStats
	memRead   time.Time
	memMaxAge time.Duration
}

// mem returns cached memory statistics, re-reading at most once per cache
// interval.
func (m *dbMetrics) mem() runtime.MemStats {
	m.memMu.Lock()
	defer m.memMu.Unlock()
	if m.memRead.IsZero() || time.Since(m.memRead) > m.memMaxAge {
		runtime.ReadMemStats(&m.memStats)
		m.memRead = time.Now()
	}
	return m.memStats
}

// newDBMetrics builds and registers the database's instrument set. Gauges
// read from live subsystems at scrape time close over db; they tolerate a
// nil db.store (in-memory databases report zeros).
func newDBMetrics(db *Database) *dbMetrics {
	reg := telemetry.NewRegistry()
	m := &dbMetrics{
		reg:       reg,
		verbs:     make(map[string]*verbMetrics, len(queryVerbs)),
		memMaxAge: time.Second,
	}
	m.traces = telemetry.NewRecorder(db.opts.TraceSampleRate)
	for _, verb := range queryVerbs {
		m.verbs[verb] = &verbMetrics{
			count:   reg.Counter("obstacles_queries_total", "Queries served, by verb.", telemetry.L("verb", verb)),
			errors:  reg.Counter("obstacles_query_errors_total", "Queries that returned an error (cancellation included), by verb.", telemetry.L("verb", verb)),
			seconds: reg.Histogram("obstacles_query_seconds", "Query wall time in seconds, by verb.", telemetry.LatencyBuckets, telemetry.L("verb", verb)),
		}
	}
	m.pageAccesses = reg.Counter("obstacles_query_page_accesses_total", "R-tree page reads that missed the LRU buffers, summed over all queries.")
	m.settledNodes = reg.Counter("obstacles_query_settled_nodes_total", "Dijkstra-settled visibility-graph nodes, summed over all queries.")
	m.graphBuilds = reg.Counter("obstacles_query_graph_builds_total", "Visibility-graph constructions, summed over all queries.")
	m.graphSweeps = reg.Counter("obstacles_graph_sweeps_total", "Per-node visibility passes, summed over all queries.")
	m.graphWalks = reg.Counter("obstacles_graph_walks_total", "Visibility tests the passes' last blocker did not settle (grid walks), summed over all queries.")
	m.falseHits = reg.Counter("obstacles_query_false_hits_total", "Euclidean candidates eliminated by the obstructed metric.")
	m.candidates = reg.Counter("obstacles_query_candidates_total", "Euclidean candidates examined.")
	m.results = reg.Counter("obstacles_query_results_total", "Qualifying answers produced by the engine.")
	m.distComputations = reg.Counter("obstacles_query_dist_computations_total", "Obstructed-distance computations (Fig 8 of the paper).")

	m.mutations = make(map[string]*telemetry.Counter, len(mutationOps))
	for _, op := range mutationOps {
		m.mutations[op] = reg.Counter("obstacles_mutations_total", "Committed mutations, by op.", telemetry.L("op", op))
	}

	for i, by := range [...]string{"sight", "detour", "graph"} {
		m.refined[i] = reg.Counter("obstacles_refine_targets_total", "Refinement targets decided, by certificate: plain sight, a detour round the obstacles in the way, or a graph search.", telemetry.L("by", by))
	}

	// MVCC read path: open snapshot handles, retired pages pinned by them,
	// and the copy-on-write page relocations mutators performed.
	reg.GaugeFunc("obstacles_snapshots_open", "Explicit Snapshot handles currently open.", func() float64 {
		db.versions.mu.Lock()
		defer db.versions.mu.Unlock()
		return float64(db.versions.snapshots)
	})
	reg.GaugeFunc("obstacles_snapshot_pinned_pages", "Retired pages whose free is deferred because a pinned generation can still read them.", func() float64 {
		return float64(db.versions.pinnedPages())
	})
	reg.CounterFunc("obstacles_cow_page_copies_total", "Tree pages relocated by copy-on-write mutations.", db.cowCopies)

	// Durable commit path.
	m.commits = reg.Counter("obstacles_commits_total", "Durable commits acknowledged.")
	m.fsyncs = reg.Counter("obstacles_wal_fsyncs_total", "WAL fsyncs issued by the commit path.")
	m.groupCommits = reg.Counter("obstacles_group_commits_total", "Fsyncs that covered two or more commits.")
	m.checkpoints = reg.Counter("obstacles_checkpoints_total", "Completed checkpoints.")
	m.commitFailures = reg.Counter("obstacles_commit_failures_total", "Commit batches that failed (the handle poisons on the first).")
	m.stageSeconds = reg.Histogram("obstacles_commit_stage_seconds", "Time staging a commit under the update lock (buffer flush, dirty-page capture, catalog encoding).", telemetry.LatencyBuckets)
	m.ackSeconds = reg.Histogram("obstacles_commit_ack_seconds", "Time a mutator parks on its commit ticket, from unlock to durable acknowledgment.", telemetry.LatencyBuckets)
	m.fsyncSeconds = reg.Histogram("obstacles_wal_fsync_seconds", "WAL fsync syscall latency.", telemetry.LatencyBuckets)
	m.batchSize = reg.Histogram("obstacles_commit_batch_size", "Commits covered by one WAL fsync.", telemetry.SizeBuckets)
	m.checkpointSeconds = reg.Histogram("obstacles_checkpoint_seconds", "Checkpoint duration (write-back, blob rewrite, superblock sync, WAL truncation).", telemetry.LatencyBuckets)
	reg.GaugeFunc("obstacles_wal_bytes", "Durable write-ahead-log length in bytes (zero right after a checkpoint, and for in-memory databases).", func() float64 {
		if s := db.store; s != nil {
			return float64(s.log.Load().Size())
		}
		return 0
	})
	reg.GaugeFunc("obstacles_file_pages", "Allocated pages in the data file.", func() float64 {
		if s := db.store; s != nil {
			return float64(s.fs.NumPages())
		}
		return 0
	})
	reg.GaugeFunc("obstacles_pending_pages", "Pages committed to the WAL but not yet written back.", func() float64 {
		if s := db.store; s != nil {
			db.updateMu.RLock()
			defer db.updateMu.RUnlock()
			return float64(s.tx.PendingPages())
		}
		return 0
	})
	reg.CounterFunc("obstacles_data_file_reads_total", "Physical page reads from the data file.", func() uint64 {
		if s := db.store; s != nil {
			return s.fs.IO().Reads
		}
		return 0
	})
	reg.CounterFunc("obstacles_data_file_writes_total", "Physical page writes to the data file.", func() uint64 {
		if s := db.store; s != nil {
			return s.fs.IO().Writes
		}
		return 0
	})
	reg.CounterFunc("obstacles_data_file_syncs_total", "Data-file fsyncs (checkpoint write-back and superblock).", func() uint64 {
		if s := db.store; s != nil {
			return s.fs.IO().Syncs
		}
		return 0
	})

	// Degraded mode, in-place recovery and scrubbing (see recovery.go and
	// scrub.go). The recovery counters live under the store's counter lock —
	// exact and cheap to read at scrape time.
	reg.GaugeFunc("obstacles_degraded", "1 while the database is in degraded (read-only) mode, 0 when healthy.", func() float64 {
		if db.Degraded() {
			return 1
		}
		return 0
	})
	reg.CounterFunc("obstacles_recovery_attempts_total", "In-place recovery attempts, manual and automatic.", func() uint64 {
		if s := db.store; s != nil {
			s.cmu.Lock()
			defer s.cmu.Unlock()
			return s.recoverAttempts
		}
		return 0
	})
	reg.CounterFunc("obstacles_recoveries_total", "Recovery attempts that restored a writable database.", func() uint64 {
		if s := db.store; s != nil {
			s.cmu.Lock()
			defer s.cmu.Unlock()
			return s.recoverCount
		}
		return 0
	})
	m.recoverySeconds = reg.Histogram("obstacles_recovery_seconds", "Duration of successful in-place recoveries (WAL replay, tree reattach, checkpoint probe).", telemetry.LatencyBuckets)
	reg.CounterFunc("obstacles_corrupt_pages_total", "Page reads and verifications that failed the checksum.", func() uint64 {
		if s := db.store; s != nil {
			return s.fs.IO().CorruptPages
		}
		return 0
	})
	reg.GaugeFunc("obstacles_quarantined_pages", "Corrupt free-list pages quarantined from reallocation.", func() float64 {
		if s := db.store; s != nil {
			return float64(s.fs.Quarantined())
		}
		return 0
	})
	m.scrubs = reg.Counter("obstacles_scrubs_total", "Completed scrub passes.")
	m.scrubPages = reg.Counter("obstacles_scrub_pages_total", "Pages checksum-verified by the scrubber.")
	m.scrubCorrupt = reg.Counter("obstacles_scrub_corrupt_total", "Corrupt pages found by the scrubber.")

	// Flight recorder retention decisions (see /debug/traces).
	rec := func(get func(telemetry.RecorderStats) uint64) func() uint64 {
		return func() uint64 { return get(m.traces.Stats()) }
	}
	reg.CounterFunc("obstacles_traces_error_total", "Error-tier traces retained by the flight recorder.", rec(func(s telemetry.RecorderStats) uint64 { return s.Errors }))
	reg.CounterFunc("obstacles_traces_slow_total", "Slow-tier traces retained by the flight recorder.", rec(func(s telemetry.RecorderStats) uint64 { return s.Slow }))
	reg.CounterFunc("obstacles_traces_sampled_total", "Normal-tier traces retained by the sampling coin flip.", rec(func(s telemetry.RecorderStats) uint64 { return s.Sampled }))
	reg.CounterFunc("obstacles_traces_dropped_total", "Normal-tier traces dropped by the sampling coin flip.", rec(func(s telemetry.RecorderStats) uint64 { return s.SampledOut }))

	// Go runtime health: without these a leaking daemon is invisible to its
	// own scrape. The memory series share one cached ReadMemStats per scrape
	// interval (the read is briefly stop-the-world).
	reg.GaugeFunc("go_goroutines", "Goroutines currently live in the process.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.GaugeFunc("go_heap_inuse_bytes", "Bytes in in-use heap spans.", func() float64 {
		return float64(m.mem().HeapInuse)
	})
	reg.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.", func() float64 {
		return float64(m.mem().HeapAlloc)
	})
	reg.CounterFunc("go_gc_cycles_total", "Completed garbage-collection cycles.", func() uint64 {
		return uint64(m.mem().NumGC)
	})
	reg.CounterFunc("go_gc_pause_ns_total", "Cumulative stop-the-world pause time in nanoseconds.", func() uint64 {
		return m.mem().PauseTotalNs
	})
	return m
}

// newSessionAt starts a query session reading the given pinned version. The
// verb names the session's engine span. When the caller's context carries a
// span (the server's request root), the engine span joins the caller's trace
// as its child; otherwise, if sampling is on, the session owns a fresh trace
// of its own, registered with the flight recorder so /debug/active can see
// embedded-use queries too.
func (db *Database) newSessionAt(ctx context.Context, v *dbVersion, verb string) *core.Session {
	sess := db.engine.NewSessionAt(ctx, v.obst)
	if parent := telemetry.SpanFromContext(ctx); parent != nil {
		sess.SetSpan(parent.StartChild(verb))
	} else if db.opts.TraceSampleRate > 0 {
		tr := telemetry.NewTrace()
		sess.SetSpan(tr.Root(verb))
		db.tel.traces.StartActive(tr)
	}
	return sess
}

// TraceRecorder returns the database's flight recorder — the store behind
// the /debug/traces and /debug/active endpoints. Layers above the Database
// (the network daemon) record their request traces here so one recorder
// covers the whole process.
func (db *Database) TraceRecorder() *telemetry.Recorder {
	return db.tel.traces
}

// cowCopies sums the copy-on-write page relocations across every tree.
func (db *Database) cowCopies() uint64 {
	var total uint64
	for _, t := range db.trees() {
		total += t.COWCopies()
	}
	return total
}

// record is the single exit point of every query verb: it fills the
// caller's WithStats struct exactly as before, feeds the global telemetry
// (per-verb count and latency, engine work counters), and hands a trace the
// session owns to the flight recorder.
func (db *Database) record(verb string, cfg *queryConfig, sess *core.Session, st core.Stats, start time.Time, err error) {
	cfg.record(st, start)
	m := db.tel
	vm := m.verbs[verb]
	vm.count.Inc()
	if err != nil {
		vm.errors.Inc()
	}
	vm.seconds.ObserveDuration(time.Since(start))
	m.pageAccesses.Add(st.IO.PhysicalReads)
	m.settledNodes.Add(st.SettledNodes)
	m.graphBuilds.Add(st.GraphBuilds)
	m.graphSweeps.Add(st.Sweeps)
	m.graphWalks.Add(st.Walks)
	m.falseHits.Add(uint64(st.FalseHits))
	m.candidates.Add(uint64(st.Candidates))
	m.results.Add(uint64(st.Results))
	m.distComputations.Add(uint64(st.DistComputations))
	for i, n := range [...]int{st.Decided.Sight, st.Decided.Detour, st.Decided.Graph} {
		m.refined[i].Add(uint64(n))
	}
	if sp := sess.Span(); sp != nil {
		sp.SetAttr("settled_nodes", st.SettledNodes)
		sp.SetAttr("page_reads", st.IO.PhysicalReads)
		sp.SetAttr("graph_builds", st.GraphBuilds)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		// A session whose context carries no span owns its trace (embedded
		// use, no server above it): close it out with the flight recorder.
		// Otherwise the server's root span owns the trace's lifecycle.
		if telemetry.SpanFromContext(sess.Context()) == nil {
			tr := sp.Trace()
			m.traces.EndActive(tr)
			m.traces.Record(tr, err != nil)
		}
	}
}

// TelemetryRegistry returns the database's instrument registry — the one
// behind the /metrics endpoint, and the only process-lifetime ledger.
// Subsystems layered on top of a Database (the network daemon in
// internal/server) register their own series here so one scrape covers the
// whole process; the registry panics on name or label collisions, so added
// families must not reuse the obstacles_ prefix with conflicting types.
func (db *Database) TelemetryRegistry() *telemetry.Registry {
	return db.tel.reg
}
