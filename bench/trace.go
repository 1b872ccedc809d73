package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	obstacles "repro"
	"repro/internal/core"
	"repro/internal/server"
)

// The traced run replays a prefix of a workload's list in-process, with one
// client and no timers, once per layer boundary: a Server over a Database
// behind a loopback listener, a bare Database, the benchmark's own
// core.Engine, and probes that re-execute the R-tree and visibility-graph
// steps of each sampled request. Every boundary has its own instance fed the
// same sequence, so cache state evolves the same way along each. Spans are
// recorded here, around the calls into each layer's public functions; spans
// inside the program are a later change (ROADMAP item 5).

// span is one timed call into a layer. Spans of one request share Req. Parent
// is the span that stands one layer further out for the same request: the
// layers are re-executions, not nested intervals, so "caused by" is by
// construction, and a layer's self time is its duration minus its children's.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a request's outermost span
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder started
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the overhead of recording is measured.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (r *recorder) add(name string, req, parent int, start time.Time, d time.Duration) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	s := start.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartNs: s, EndNs: s + d.Nanoseconds()})
	return id
}

// selfTimes returns, by span id, each span's duration minus the durations of
// the spans whose parent it is.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

type tracedResult struct {
	Metrics  map[string]float64
	Count    phaseCount
	Failures []string
	Notes    []string
}

func (t *tracedResult) fail(format string, args ...any) {
	t.Count.Failed++
	if len(t.Failures) < 20 {
		t.Failures = append(t.Failures, "traced: "+fmt.Sprintf(format, args...))
	}
}

// layerRun is one replay of the prefix on one layer instance.
type layerRun struct {
	ids []int    // span id per list entry, -1 where none was recorded
	ns  []int64  // duration per list entry
	ans []answer // answer per list entry
	// reach is, per list entry, the largest distance the query returned: the
	// radius its probe searches (Database replays only).
	reach []float64
	wall  time.Duration
}

func newLayerRun(n int) *layerRun {
	return &layerRun{ids: make([]int, n), ns: make([]int64, n), ans: make([]answer, n), reach: make([]float64, n)}
}

// openDB gives a layer its own Database: in memory, or for the durable
// workload a fresh copy of the template file.
func openDB(e *env, spec *workloadSpec, dir, template, name string) (*obstacles.Database, error) {
	if !spec.Durable {
		return newDatabase(e.w)
	}
	path := filepath.Join(dir, name+".obs")
	if err := copyStore(template, path); err != nil {
		return nil, err
	}
	db, err := obstacles.Open(path, obstacles.Options{})
	if err != nil {
		return nil, err
	}
	if err := db.AddDataset("Q", e.w.Q); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// runTraced produces the traced per-layer metrics of one workload and writes
// the spans to outDir/trace-<workload>.json.
func runTraced(e *env, spec *workloadSpec, outDir string) (*tracedResult, error) {
	res := &tracedResult{Metrics: map[string]float64{}}
	full, err := generate(e.w, spec.Name, e.seed, spec.Requests)
	if err != nil {
		return nil, err
	}
	list := full[:min(spec.Prefix, len(full))]
	dir, err := os.MkdirTemp(e.tmp, "traced-"+spec.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	template := filepath.Join(dir, "template.obs")
	if spec.Durable {
		if err := createStore(template, e.w); err != nil {
			return nil, err
		}
	}
	rec := &recorder{t0: time.Now()}

	// Layer 1: Server over a Database, behind a loopback listener. The
	// client's round trip is the "transport" span, Server.ServeHTTP the
	// "server" span under it.
	srv, srvNotes, err := replayServer(e, spec, dir, template, list, rec)
	if err != nil {
		return nil, err
	}
	// Layer 2: a bare Database, spans on and (for the overhead ratio) off.
	dbOn, dbNotes, err := replayDatabase(e, spec, dir, template, "db-on", list, rec, srv.ids)
	if err != nil {
		return nil, err
	}
	dbOff, _, err := replayDatabase(e, spec, dir, template, "db-off", list, nil, nil)
	if err != nil {
		return nil, err
	}
	// On the durable workload, the same mutations on an in-memory Database:
	// what is left of a durable mutation after subtracting it is the commit.
	var mem *layerRun
	if spec.Durable {
		memSpec := *spec
		memSpec.Durable = false
		if mem, _, err = replayDatabase(e, &memSpec, dir, template, "db-mem", list, nil, nil); err != nil {
			return nil, err
		}
	}
	// Layer 3: the benchmark's own Engine.
	eng, engNotes, err := replayEngine(e, list, rec, dbOn.ids)
	if err != nil {
		return nil, err
	}
	// Layer 4: probes of the R-tree and visibility-graph steps.
	pr, err := replayProbes(e, list, rec, eng, engNotes, dbOn)
	if err != nil {
		return nil, err
	}

	// All layers must have given the same answers.
	others := []struct {
		name string
		run  *layerRun
	}{{"server", srv}, {"database without spans", dbOff}, {"engine", eng}}
	res.Count.Attempted = (1 + len(others)) * len(list)
	for i := range list {
		for _, other := range others {
			if !dbOn.ans[i].same(other.run.ans[i]) {
				res.fail("entry %d (%s): database answered %+v, %s %+v",
					i, list[i].Verb, dbOn.ans[i], other.name, other.run.ans[i])
			}
		}
	}
	for _, notes := range [][]string{srvNotes.failures, dbNotes.failures, engNotes.failures} {
		for _, f := range notes {
			res.fail("%s", f)
		}
	}

	m := res.Metrics
	self := selfTimes(rec.spans)
	selfByLayer := map[string][]float64{}
	for _, s := range rec.spans {
		// obstacles' self time is defined on query verbs: a mutation has no
		// engine verb under it to subtract.
		if s.Name == "obstacles" && list[s.Req].Verb.isWrite() {
			continue
		}
		selfByLayer[s.Name] = append(selfByLayer[s.Name], float64(self[s.ID]))
	}
	// The median over requests, not the mean: a self time is the difference of
	// two separately timed executions, and on a request that takes 100 ms the
	// noise of that difference is larger than any wrapper layer's cost.
	us := func(name string) float64 { return max(median(selfByLayer[name])/1e3, 0) }
	m["server.transport_us_per_op"] = us("transport")
	m["server.self_us_per_op"] = us("server")
	m["obstacles.self_us_per_op"] = us("obstacles")
	if mem != nil {
		var extra, muts float64
		for i, q := range list {
			if q.Verb.isWrite() {
				extra += float64(dbOn.ns[i] - mem.ns[i])
				muts++
			}
		}
		m["obstacles.commit_us_per_op"] = max(ratio(extra, muts)/1e3, 0)
		m["obstacles.wal_bytes_per_commit"] = ratio(dbNotes.walBytes, muts)
	}
	m["pagefile.physical_reads_per_op"] = ratio(dbNotes.physical, dbNotes.queries)
	m["pagefile.buffer_hit_ratio"] = ratio(dbNotes.hits, dbNotes.logical)
	engNotes.metrics(m)
	pr.metrics(m)
	m["bench.trace_overhead_ratio"] = ratio(dbOn.wall.Seconds(), dbOff.wall.Seconds())
	if c := m["bench.probe_coverage"]; c < 0.7 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"bench.probe_coverage %.2f is below 0.7: the rtree and visgraph probes re-execute less than 70 %% of the engine's time on this workload, so visgraph.time_share under-attributes", c))
	}
	if err := microProbes(spec, dir, m, pr); err != nil {
		return nil, err
	}

	out, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{spec.Name, e.seed, rec.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "trace-"+spec.Name+".json"), out, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// replayNotes carries what a replay observed besides spans.
type replayNotes struct {
	failures []string
	// Database layer, from WithStats and PersistStats.
	queries, physical, logical, hits, walBytes float64
}

// replayServer replays the list through a Server over loopback with one
// client, recording a transport and a server span per entry; the run's ids and
// durations are the server spans'.
func replayServer(e *env, spec *workloadSpec, dir, template string, list []request, rec *recorder) (*layerRun, *replayNotes, error) {
	db, err := openDB(e, spec, dir, template, "server")
	if err != nil {
		return nil, nil, err
	}
	srv := server.New(db, server.Config{})
	// The handler wrapper times Server.ServeHTTP; the one client is
	// sequential, so "the last call" is the current request's.
	var mu sync.Mutex
	var lastStart time.Time
	var lastDur time.Duration
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		srv.ServeHTTP(w, r)
		d := time.Since(start)
		mu.Lock()
		lastStart, lastDur = start, d
		mu.Unlock()
	}))
	defer func() {
		ts.Close()
		srv.Shutdown(context.Background()) // closes db
	}()
	r := newRunner(ts.URL, e.w, list)
	defer r.close()
	notes := &replayNotes{}
	run := newLayerRun(len(list))
	begin := time.Now()
	for i := range list {
		start := time.Now()
		op := r.do(0, i)
		if op.Err != "" {
			notes.failures = append(notes.failures, fmt.Sprintf("server entry %d (%s): %s", i, list[i].Verb, op.Err))
			run.ids[i] = -1
			continue
		}
		mu.Lock()
		hs, hd := lastStart, lastDur
		mu.Unlock()
		tid := rec.add("transport", i, -1, start, time.Duration(op.Ns))
		run.ids[i] = rec.add("server", i, tid, hs, hd)
		run.ns[i], run.ans[i] = hd.Nanoseconds(), op.Ans
	}
	run.wall = time.Since(begin)
	return run, notes, nil
}

// replayDatabase replays the list on a bare Database with WithStats, as obsd's
// handlers call it. parents are the server spans of the same entries.
func replayDatabase(e *env, spec *workloadSpec, dir, template, name string, list []request, rec *recorder, parents []int) (*layerRun, *replayNotes, error) {
	db, err := openDB(e, spec, dir, template, name)
	if err != nil {
		return nil, nil, err
	}
	defer db.Close()
	var qs obstacles.QueryStats
	x := &dbExec{db: db, ids: make([]int64, len(list)), stats: &qs}
	notes := &replayNotes{}
	run := newLayerRun(len(list))
	wal := db.PersistStats().WALBytes
	begin := time.Now()
	for i, q := range list {
		start := time.Now()
		a, err := x.exec(i, q)
		d := time.Since(start)
		if err != nil {
			notes.failures = append(notes.failures, fmt.Sprintf("%s entry %d (%s): %v", name, i, q.Verb, err))
		}
		parent := -1
		if parents != nil {
			parent = parents[i]
		}
		run.ids[i] = rec.add("obstacles", i, parent, start, d)
		run.ns[i], run.ans[i], run.reach[i] = d.Nanoseconds(), a, x.reach
		if q.Verb.isWrite() {
			// Bytes this commit appended; a checkpoint in between truncates
			// the log, and then the new length is what was appended since.
			now := db.PersistStats().WALBytes
			if now >= wal {
				notes.walBytes += float64(now - wal)
			} else {
				notes.walBytes += float64(now)
			}
			wal = now
		} else {
			notes.queries++
			notes.physical += float64(qs.PageAccesses)
			notes.logical += float64(qs.LogicalReads)
			notes.hits += float64(qs.BufferHits)
		}
	}
	run.wall = time.Since(begin)
	return run, notes, nil
}

// engineNotes is what the Engine replay counted: the paper's per-query work
// (candidates, false hits, distance computations, graph builds) and the time
// of each verb.
type engineNotes struct {
	failures []string
	verbNs   [numVerbs]float64
	verbN    [numVerbs]float64
	queries  float64
	stats    core.Stats   // summed over queries
	perReq   []core.Stats // by list entry
	nodesMax int
	cache    core.CacheStats
}

func (n *engineNotes) metrics(m map[string]float64) {
	mean := func(v verb, unit float64) float64 { return ratio(n.verbNs[v], n.verbN[v]) / unit }
	m["core.range_us"] = mean(vRange, 1e3)
	m["core.nearest_us"] = mean(vNearest, 1e3)
	m["core.distance_us"] = mean(vDistance, 1e3)
	m["core.path_us"] = mean(vPath, 1e3)
	m["core.join_ms"] = mean(vJoin, 1e6)
	m["core.closest_ms"] = mean(vClosest, 1e6)
	m["core.candidates_per_op"] = ratio(float64(n.stats.Candidates), n.queries)
	m["core.false_hit_ratio"] = ratio(float64(n.stats.FalseHits), float64(n.stats.Candidates))
	m["core.dist_computations_per_op"] = ratio(float64(n.stats.DistComputations), n.queries)
	m["core.graph_builds_per_op"] = ratio(float64(n.stats.GraphBuilds), n.queries)
	m["core.graph_cache_hit_ratio"] = n.cache.HitRate()
	m["core.graph_cache_invalidations"] = float64(n.cache.Invalidations)
	m["core.graph_nodes_max"] = float64(n.nodesMax)
}

// replayEngine replays the list on the benchmark's own Engine. Query verbs
// are the "core" spans, children of the Database spans of the same entries;
// mutations are applied untimed.
func replayEngine(e *env, list []request, rec *recorder, parents []int) (*layerRun, *engineNotes, error) {
	x, err := newCoreExec(e.w, len(list))
	if err != nil {
		return nil, nil, err
	}
	notes := &engineNotes{perReq: make([]core.Stats, len(list))}
	run := newLayerRun(len(list))
	begin := time.Now()
	for i, q := range list {
		start := time.Now()
		a, err := x.exec(i, q)
		d := time.Since(start)
		if err != nil {
			notes.failures = append(notes.failures, fmt.Sprintf("engine entry %d (%s): %v", i, q.Verb, err))
		}
		run.ans[i], run.ids[i] = a, -1
		if q.Verb.isWrite() {
			continue
		}
		run.ids[i] = rec.add("core", i, parents[i], start, d)
		run.ns[i] = d.Nanoseconds()
		notes.verbNs[q.Verb] += float64(d.Nanoseconds())
		notes.verbN[q.Verb]++
		notes.queries++
		notes.stats.Merge(x.last)
		notes.perReq[i] = x.last
		notes.nodesMax = max(notes.nodesMax, x.last.GraphNodes)
	}
	run.wall = time.Since(begin)
	notes.cache = x.eng.GraphCacheStats()
	return run, notes, nil
}
