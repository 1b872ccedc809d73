package obstacles

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// metricsDB is cityDB plus a loaded dataset, the shared fixture of the
// telemetry tests.
func metricsDB(t *testing.T, opts Options) *Database {
	t.Helper()
	db := cityDB(t, opts)
	pts := []Point{Pt(5, 5), Pt(45, 5), Pt(95, 95), Pt(5, 95), Pt(45, 45)}
	if err := db.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestMetricsSnapshot(t *testing.T) {
	db := metricsDB(t, DefaultOptions())
	q := Pt(0, 0)
	for i := 0; i < 3; i++ {
		if _, err := db.Range(ctx, "P", q, 150); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.NearestNeighbors(ctx, "P", q, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ObstructedDistance(ctx, q, Pt(95, 95)); err != nil {
		t.Fatal(err)
	}
	// A cancelled context is a served-but-failed query and must show up in
	// the error counter for its verb.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Range(cancelled, "P", q, 150); err == nil {
		t.Fatal("cancelled Range should fail")
	}

	m := db.Metrics()
	if got := m.Queries[VerbRange]; got.Count != 4 || got.Errors != 1 {
		t.Errorf("range verb = %+v, want Count=4 Errors=1", got)
	}
	if got := m.Queries[VerbNearestNeighbors]; got.Count != 1 || got.Errors != 0 {
		t.Errorf("nn verb = %+v, want Count=1", got)
	}
	if got := m.Queries[VerbObstructedDistance].Count; got != 1 {
		t.Errorf("dist verb count = %d", got)
	}
	// Every verb constant appears in the map, served or not.
	for _, verb := range queryVerbs {
		if _, ok := m.Queries[verb]; !ok {
			t.Errorf("Queries missing verb %q", verb)
		}
	}
	if got := m.Queries[VerbCluster].Count; got != 0 {
		t.Errorf("unserved verb count = %d", got)
	}
	// Latency histograms observe once per query, successes and failures.
	if got := m.Queries[VerbRange].Latency.Count; got != 4 {
		t.Errorf("range latency observations = %d, want 4", got)
	}
	if m.Queries[VerbRange].Latency.Sum <= 0 {
		t.Error("range latency sum should be positive")
	}
	if m.SettledNodes == 0 || m.GraphBuilds == 0 || m.GraphSweeps == 0 {
		t.Errorf("work counters empty: settled=%d builds=%d sweeps=%d", m.SettledNodes, m.GraphBuilds, m.GraphSweeps)
	}
	if m.Mutations[OpAddDataset] != 1 {
		t.Errorf("add_dataset mutations = %d, want 1", m.Mutations[OpAddDataset])
	}
	// In-memory database: the commit path stays at zero.
	if c := m.Commit; c.Commits != 0 || c.Fsyncs != 0 || c.WALBytes != 0 || c.BatchSize.Count != 0 {
		t.Errorf("in-memory commit metrics non-zero: %+v", c)
	}
}

func TestMetricsMutationCounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.obs")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.AddDataset("P", []Point{Pt(1, 1), Pt(2, 2)}); err != nil {
		t.Fatal(err)
	}
	ids, err := db.InsertPoints("P", Pt(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeletePoints("P", ids...); err != nil {
		t.Fatal(err)
	}
	oids, err := db.AddObstacleRects(R(10, 10, 20, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveObstacles(oids...); err != nil {
		t.Fatal(err)
	}
	// Failed mutations must not count: duplicate dataset, unknown dataset.
	if err := db.AddDataset("P", nil); err == nil {
		t.Fatal("duplicate dataset accepted")
	}
	if _, err := db.InsertPoints("nope", Pt(0, 0)); err == nil {
		t.Fatal("insert into unknown dataset accepted")
	}

	m := db.Metrics()
	want := map[string]uint64{
		OpAddDataset:      1,
		OpInsertPoints:    1,
		OpDeletePoints:    1,
		OpAddObstacles:    1,
		OpRemoveObstacles: 1,
	}
	for op, n := range want {
		if m.Mutations[op] != n {
			t.Errorf("Mutations[%s] = %d, want %d", op, m.Mutations[op], n)
		}
	}
	c := m.Commit
	if c.Commits < 5 {
		t.Errorf("Commits = %d, want >= 5", c.Commits)
	}
	if c.Fsyncs == 0 || c.Fsyncs > c.Commits {
		t.Errorf("Fsyncs = %d (commits %d)", c.Fsyncs, c.Commits)
	}
	if c.BatchSize.Count != c.Fsyncs {
		t.Errorf("BatchSize observations %d != fsyncs %d", c.BatchSize.Count, c.Fsyncs)
	}
	if c.StageSeconds.Count != c.Commits {
		t.Errorf("StageSeconds observations %d != commits %d", c.StageSeconds.Count, c.Commits)
	}
	if c.AckSeconds.Count != c.Commits {
		t.Errorf("AckSeconds observations %d != commits %d", c.AckSeconds.Count, c.Commits)
	}
	if c.FsyncSeconds.Count == 0 {
		t.Error("FsyncSeconds never observed")
	}
	if c.FilePages == 0 {
		t.Error("FilePages = 0 on a durable handle")
	}
	ps := db.PersistStats()
	if math.IsNaN(ps.AvgBatch) || ps.AvgBatch <= 0 {
		t.Errorf("AvgBatch = %v after %d commits", ps.AvgBatch, ps.Commits)
	}
}

// TestMetricsZeroCommitSnapshot pins the division-by-zero guards: a freshly
// opened handle that has committed nothing must report clean zeros — not NaN
// — from both PersistStats and Metrics.
func TestMetricsZeroCommitSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.obs")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ps := db.PersistStats()
	if ps.Commits != 0 || ps.Fsyncs != 0 {
		t.Fatalf("fresh handle reports commits=%d fsyncs=%d", ps.Commits, ps.Fsyncs)
	}
	if math.IsNaN(ps.AvgBatch) || ps.AvgBatch != 0 {
		t.Errorf("zero-commit AvgBatch = %v, want 0", ps.AvgBatch)
	}

	m := db.Metrics()
	c := m.Commit
	if c.Commits != 0 || c.Fsyncs != 0 || c.GroupCommits != 0 || c.Failures != 0 {
		t.Errorf("zero-commit counters: %+v", c)
	}
	for name, h := range map[string]HistogramSnapshot{
		"stage": c.StageSeconds, "ack": c.AckSeconds, "fsync": c.FsyncSeconds,
		"batch": c.BatchSize, "checkpoint": c.CheckpointSeconds,
	} {
		if h.Count != 0 && name != "checkpoint" && name != "fsync" {
			t.Errorf("%s histogram has %d observations before any commit", name, h.Count)
		}
		if math.IsNaN(h.Mean()) || math.IsNaN(h.Quantile(0.99)) {
			t.Errorf("%s summary statistics NaN on empty histogram", name)
		}
	}
}

func TestCacheHitRate(t *testing.T) {
	var zero CacheStats
	if got := zero.HitRate(); got != 0 {
		t.Fatalf("zero-traffic HitRate = %v, want 0", got)
	}

	db := metricsDB(t, DefaultOptions())
	// The graph cache serves batch-distance queries: the first from a source
	// misses and populates, repeats hit.
	q := Pt(0, 0)
	targets := []Point{Pt(45, 5), Pt(95, 95)}
	for i := 0; i < 4; i++ {
		if _, err := db.ObstructedDistances(ctx, q, targets); err != nil {
			t.Fatal(err)
		}
	}
	cs := db.GraphCacheStats()
	if cs.Hits+cs.Misses == 0 {
		t.Fatal("no cache traffic after four batch queries")
	}
	want := float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	if got := cs.HitRate(); got != want {
		t.Errorf("HitRate = %v, want %v", got, want)
	}
	if cs.Hits == 0 {
		t.Error("repeated identical queries should hit the graph cache")
	}
	if m := db.Metrics(); m.Cache != cs && m.Cache.Hits < cs.Hits {
		t.Errorf("Metrics().Cache = %+v regressed below %+v", m.Cache, cs)
	}
}

// capturingHandler is a slog.Handler that stores every record it receives.
type capturingHandler struct {
	mu      sync.Mutex
	records []map[string]string
}

func (h *capturingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *capturingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *capturingHandler) WithGroup(string) slog.Handler            { return h }
func (h *capturingHandler) Handle(_ context.Context, r slog.Record) error {
	m := map[string]string{"msg": r.Message, "level": r.Level.String()}
	r.Attrs(func(a slog.Attr) bool {
		m[a.Key] = a.Value.String()
		return true
	})
	h.mu.Lock()
	h.records = append(h.records, m)
	h.mu.Unlock()
	return nil
}

func TestSlowQueryLog(t *testing.T) {
	h := &capturingHandler{}
	opts := DefaultOptions()
	opts.SlowQueryThreshold = time.Nanosecond // everything is slow
	opts.SlowQueryLogger = slog.New(h)
	db := metricsDB(t, opts)

	if _, err := db.NearestNeighbors(ctx, "P", Pt(0, 0), 3); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var rec map[string]string
	for _, r := range h.records {
		if r["verb"] == VerbNearestNeighbors {
			rec = r
			break
		}
	}
	if rec == nil {
		t.Fatalf("no slow-query record for %s in %v", VerbNearestNeighbors, h.records)
	}
	if rec["msg"] != "obstacles: slow query" || rec["level"] != "WARN" {
		t.Errorf("record header = %q/%q", rec["msg"], rec["level"])
	}
	for _, key := range []string{"elapsed", "threshold", "page_accesses", "settled_nodes", "graph_builds", "trace_id", "trace"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("slow-query record missing %q: %v", key, rec)
		}
	}
	// The trace must carry the graph-build span the session recorded.
	if !strings.Contains(rec["trace"], "graph-build@") {
		t.Errorf("trace %q has no graph-build span", rec["trace"])
	}
	// The trace id names a flight-recorder entry: slow traces are always
	// retained, so the full span tree is retrievable by this id.
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(rec["trace_id"]) {
		t.Errorf("trace_id = %q, want 32 hex digits", rec["trace_id"])
	}
	if snap, ok := db.TraceRecorder().Get(rec["trace_id"]); !ok || snap.Tier != "slow" {
		t.Errorf("slow query's trace %q not retained slow-tier (%+v)", rec["trace_id"], snap)
	}
	if m := db.Metrics(); m.SlowQueries == 0 {
		t.Error("SlowQueries counter not incremented")
	}
}

func TestSlowQueryLogDisabledByDefault(t *testing.T) {
	db := metricsDB(t, DefaultOptions())
	if _, err := db.Range(ctx, "P", Pt(0, 0), 150); err != nil {
		t.Fatal(err)
	}
	if m := db.Metrics(); m.SlowQueries != 0 {
		t.Errorf("SlowQueries = %d with no threshold set", m.SlowQueries)
	}
}

func TestDebugEndpoint(t *testing.T) {
	db := metricsDB(t, DefaultOptions())
	defer db.Close()
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	if _, err := db.Range(ctx, "P", Pt(0, 0), 150); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	samples := parsePrometheusText(t, string(body))
	if samples[`obstacles_queries_total{verb="range"}`] != 1 {
		t.Errorf("scrape shows %v range queries, want 1", samples[`obstacles_queries_total{verb="range"}`])
	}
	if _, ok := samples["obstacles_graph_cache_hit_rate"]; !ok {
		t.Error("scrape missing obstacles_graph_cache_hit_rate")
	}
	if samples["obstacles_graph_sweeps_total"] <= 0 {
		t.Errorf("obstacles_graph_sweeps_total = %v after a range query, want > 0", samples["obstacles_graph_sweeps_total"])
	}
	if samples[`obstacles_mutations_total{op="add_dataset"}`] != 1 {
		t.Error("scrape missing the add_dataset mutation")
	}
	// Go runtime series ride the same registry.
	if samples["go_goroutines"] <= 0 {
		t.Errorf("go_goroutines = %v, want > 0", samples["go_goroutines"])
	}
	if samples["go_heap_inuse_bytes"] <= 0 {
		t.Errorf("go_heap_inuse_bytes = %v, want > 0", samples["go_heap_inuse_bytes"])
	}
	if samples["go_heap_alloc_bytes"] <= 0 {
		t.Errorf("go_heap_alloc_bytes = %v, want > 0", samples["go_heap_alloc_bytes"])
	}
	for _, name := range []string{"go_gc_cycles_total", "go_gc_pause_ns_total",
		"obstacles_traces_error_total", "obstacles_traces_slow_total",
		"obstacles_traces_sampled_total", "obstacles_traces_dropped_total"} {
		if _, ok := samples[name]; !ok {
			t.Errorf("scrape missing %s", name)
		}
	}

	// /debug/vars must be one JSON document carrying the same snapshot.
	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Metrics Metrics
	}
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if got := vars.Metrics.Queries[VerbRange].Count; got != 1 {
		t.Errorf("/debug/vars range count = %d", got)
	}

	// The flight-recorder endpoints answer on the same mux (empty here: no
	// sampling configured, nothing slow, nothing failed).
	resp, err = http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/traces status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/debug/traces/" + strings.Repeat("0", 32))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/traces/{unknown} status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/debug/traces?min_dur=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/debug/traces?min_dur=bogus status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/debug/active")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/active status %d", resp.StatusCode)
	}

	// pprof is wired onto the same mux.
	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}

// parsePrometheusText validates body against the text exposition format —
// well-formed lines, HELP/TYPE headers preceding samples, consistent types,
// no duplicate series, cumulative histogram buckets with consistent _count —
// and returns every sample by its full series key.
func parsePrometheusText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	var (
		nameRE   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
		sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
		types    = map[string]string{}
		samples  = map[string]float64{}
	)
	base := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			b := strings.TrimSuffix(name, suffix)
			if b != name && types[b] == "histogram" {
				return b
			}
		}
		return name
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "# HELP ") || strings.HasPrefix(text, "# TYPE ") {
			parts := strings.SplitN(text, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", line, text)
			}
			if !nameRE.MatchString(parts[2]) {
				t.Fatalf("line %d: bad metric name %q", line, parts[2])
			}
			if parts[1] == "TYPE" {
				if _, dup := types[parts[2]]; dup {
					t.Fatalf("line %d: second TYPE for %s", line, parts[2])
				}
				switch parts[3] {
				case "counter", "gauge", "histogram":
				default:
					t.Fatalf("line %d: unknown type %q", line, parts[3])
				}
				types[parts[2]] = parts[3]
			}
			continue
		}
		mm := sampleRE.FindStringSubmatch(text)
		if mm == nil {
			t.Fatalf("line %d: malformed sample %q", line, text)
		}
		name := mm[1]
		if _, ok := types[base(name)]; !ok {
			t.Fatalf("line %d: sample %s has no preceding TYPE", line, name)
		}
		v, err := strconv.ParseFloat(mm[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", line, mm[3], err)
		}
		key := name + mm[2]
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate series %s", line, key)
		}
		samples[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}
	// Histogram invariants: buckets are cumulative, non-decreasing in le
	// order, and the +Inf bucket equals _count.
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		// Collect the series' label-sets (minus le) seen for this family.
		labelSets := map[string]bool{}
		bucketRE := regexp.MustCompile(`^` + regexp.QuoteMeta(name) + `_bucket\{(.*)\}$`)
		for key := range samples {
			mm := bucketRE.FindStringSubmatch(key)
			if mm == nil {
				continue
			}
			rest := regexp.MustCompile(`(,?le="[^"]*")`).ReplaceAllString(mm[1], "")
			labelSets[strings.Trim(rest, ",")] = true
		}
		for ls := range labelSets {
			sel := func(le string) string {
				l := fmt.Sprintf(`le=%q`, le)
				if ls != "" {
					l = ls + "," + l
				}
				return name + "_bucket{" + l + "}"
			}
			prev := -1.0
			for _, h := range [][]float64{{10e-6, 25e-6, 50e-6, 100e-6}, {1, 2, 4, 8}} {
				if _, ok := samples[sel(strconv.FormatFloat(h[0], 'g', -1, 64))]; ok {
					for _, b := range h {
						v := samples[sel(strconv.FormatFloat(b, 'g', -1, 64))]
						if v < prev {
							t.Errorf("%s{%s}: bucket le=%g not cumulative (%g < %g)", name, ls, b, v, prev)
						}
						prev = v
					}
					break
				}
			}
			inf, okInf := samples[sel("+Inf")]
			countKey := name + "_count"
			if ls != "" {
				countKey += "{" + ls + "}"
			}
			count, okCount := samples[countKey]
			if !okInf || !okCount {
				t.Errorf("%s{%s}: missing +Inf bucket or _count", name, ls)
			} else if inf != count {
				t.Errorf("%s{%s}: +Inf bucket %g != count %g", name, ls, inf, count)
			}
		}
	}
	return samples
}

// TestMetricsConcurrent scrapes, snapshots and queries at once; run under
// -race this pins the lock-free hot paths against the read paths.
func TestMetricsConcurrent(t *testing.T) {
	db := metricsDB(t, DefaultOptions())
	defer db.Close()
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()

	const queriers = 4
	var wg sync.WaitGroup
	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := db.Range(ctx, "P", Pt(0, 0), 150); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			_ = db.Metrics()
		}
	}()
	wg.Wait()

	if got := db.Metrics().Queries[VerbRange].Count; got != queriers*25 {
		t.Errorf("range count = %d, want %d", got, queriers*25)
	}
}
