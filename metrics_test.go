package obstacles

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
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

// scrape reads db's /metrics once through DebugHandler — the one
// process-lifetime view — and returns every sample by its full series key.
func scrape(t testing.TB, db *Database) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	db.DebugHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return parsePrometheusText(t, rec.Body.String())
}

// verbCounts reads one verb's query and error counts from a scrape.
func verbCounts(t testing.TB, db *Database, verb string) [2]float64 {
	t.Helper()
	m := scrape(t, db)
	return [2]float64{
		m[fmt.Sprintf("obstacles_queries_total{verb=%q}", verb)],
		m[fmt.Sprintf("obstacles_query_errors_total{verb=%q}", verb)],
	}
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

	m := scrape(t, db)
	count := func(family, verb string) float64 { return m[fmt.Sprintf("%s{verb=%q}", family, verb)] }
	if c, e := count("obstacles_queries_total", VerbRange), count("obstacles_query_errors_total", VerbRange); c != 4 || e != 1 {
		t.Errorf("range verb = %v queries, %v errors, want 4 and 1", c, e)
	}
	if c, e := count("obstacles_queries_total", VerbNearestNeighbors), count("obstacles_query_errors_total", VerbNearestNeighbors); c != 1 || e != 0 {
		t.Errorf("nn verb = %v queries, %v errors, want 1 and 0", c, e)
	}
	if got := count("obstacles_queries_total", VerbObstructedDistance); got != 1 {
		t.Errorf("dist verb count = %v", got)
	}
	// Every verb constant has its series, served or not.
	for _, verb := range queryVerbs {
		if _, ok := m[fmt.Sprintf("obstacles_queries_total{verb=%q}", verb)]; !ok {
			t.Errorf("scrape missing verb %q", verb)
		}
	}
	if got := count("obstacles_queries_total", VerbCluster); got != 0 {
		t.Errorf("unserved verb count = %v", got)
	}
	// Latency histograms observe once per query, successes and failures.
	if got := count("obstacles_query_seconds_count", VerbRange); got != 4 {
		t.Errorf("range latency observations = %v, want 4", got)
	}
	if count("obstacles_query_seconds_sum", VerbRange) <= 0 {
		t.Error("range latency sum should be positive")
	}
	for _, name := range []string{"obstacles_query_settled_nodes_total", "obstacles_query_graph_builds_total", "obstacles_graph_sweeps_total"} {
		if m[name] == 0 {
			t.Errorf("%s = 0 after five queries", name)
		}
	}
	if got := m[`obstacles_mutations_total{op="add_dataset"}`]; got != 1 {
		t.Errorf("add_dataset mutations = %v, want 1", got)
	}
	// In-memory database: the commit path stays at zero.
	for _, name := range []string{"obstacles_commits_total", "obstacles_wal_fsyncs_total", "obstacles_wal_bytes", "obstacles_commit_batch_size_count"} {
		if m[name] != 0 {
			t.Errorf("in-memory %s = %v, want 0", name, m[name])
		}
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

	m := scrape(t, db)
	for _, op := range mutationOps {
		if got := m[fmt.Sprintf("obstacles_mutations_total{op=%q}", op)]; got != 1 {
			t.Errorf("mutations{op=%s} = %v, want 1", op, got)
		}
	}
	commits, fsyncs := m["obstacles_commits_total"], m["obstacles_wal_fsyncs_total"]
	if commits < 5 {
		t.Errorf("commits = %v, want >= 5", commits)
	}
	if fsyncs == 0 || fsyncs > commits {
		t.Errorf("fsyncs = %v (commits %v)", fsyncs, commits)
	}
	if got := m["obstacles_commit_batch_size_count"]; got != fsyncs {
		t.Errorf("batch-size observations %v != fsyncs %v", got, fsyncs)
	}
	if got := m["obstacles_commit_batch_size_sum"]; got != commits {
		t.Errorf("batch sizes sum to %v, want the %v commits", got, commits)
	}
	for _, h := range []string{"obstacles_commit_stage_seconds_count", "obstacles_commit_ack_seconds_count"} {
		if m[h] != commits {
			t.Errorf("%s = %v, want one per commit (%v)", h, m[h], commits)
		}
	}
	if m["obstacles_wal_fsync_seconds_count"] == 0 {
		t.Error("WAL fsync latency never observed")
	}
	if m["obstacles_file_pages"] == 0 {
		t.Error("obstacles_file_pages = 0 on a durable handle")
	}
}

// TestMetricsZeroCommitSnapshot: a freshly opened handle that has committed
// nothing reports clean zeros — not NaN — on every series.
func TestMetricsZeroCommitSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.obs")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	m := scrape(t, db)
	for key, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on a fresh handle", key, v)
		}
	}
	for _, name := range []string{
		"obstacles_commits_total", "obstacles_wal_fsyncs_total", "obstacles_group_commits_total",
		"obstacles_commit_failures_total", "obstacles_commit_stage_seconds_count",
		"obstacles_commit_ack_seconds_count", "obstacles_commit_batch_size_count",
	} {
		if m[name] != 0 {
			t.Errorf("%s = %v before any commit", name, m[name])
		}
	}
}

// TestGraphCacheCountersOnScrape: repeated batch distances from one source
// hit the graph cache, and /metrics carries exactly the engine cache's
// counters — hits / (hits + misses) is the hit rate.
func TestGraphCacheCountersOnScrape(t *testing.T) {
	var zero core.CacheStats
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
	m := scrape(t, db)
	hits, misses := m["obstacles_graph_cache_hits_total"], m["obstacles_graph_cache_misses_total"]
	if hits == 0 {
		t.Fatalf("repeated identical queries should hit the graph cache (misses %v)", misses)
	}
	cs := db.engine.GraphCacheStats()
	if float64(cs.Hits) != hits || float64(cs.Misses) != misses {
		t.Errorf("scrape hits/misses %v/%v, engine cache %+v", hits, misses, cs)
	}
	if got, want := cs.HitRate(), hits/(hits+misses); got != want {
		t.Errorf("HitRate = %v, want hits/(hits+misses) = %v", got, want)
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

	// /debug/vars is one JSON document with the durable backend's state and
	// the recovery status; counts live on /metrics alone.
	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if _, ok := vars["Persist"]; !ok || len(vars) != 2 {
		t.Errorf("/debug/vars keys = %v, want Persist and Recovery", vars)
	}
	if _, ok := vars["Recovery"]; !ok {
		t.Errorf("/debug/vars keys = %v, want Persist and Recovery", vars)
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
func parsePrometheusText(t testing.TB, body string) map[string]float64 {
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

// TestMetricsConcurrent scrapes and queries at once; run under
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
		}
	}()
	wg.Wait()

	if got := scrape(t, db)[`obstacles_queries_total{verb="range"}`]; got != queriers*25 {
		t.Errorf("range count = %v, want %d", got, queriers*25)
	}
}
