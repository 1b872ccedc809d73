package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"testing"

	obstacles "repro"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// newTracingTestDB is newTestDB with the flight recorder retaining every
// trace, so tests can fetch any request's span tree deterministically.
func newTracingTestDB(t *testing.T) *obstacles.Database {
	t.Helper()
	world := dataset.Generate(dataset.DefaultConfig(7, 60))
	db, err := obstacles.NewDatabaseFromRects(world.Rects, obstacles.Options{TraceSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", world.Entities(world.EntityRand(1), 150)); err != nil {
		t.Fatal(err)
	}
	return db
}

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

// graphPair returns two free points of newTracingTestDB's world whose
// distance takes a graph search: one unit left of an obstacle, and far enough
// to its right that neither plain sight nor a detour round the few obstacles
// in the way decides it.
func graphPair(t *testing.T, db *obstacles.Database) (obstacles.Point, obstacles.Point) {
	t.Helper()
	for _, r := range dataset.Generate(dataset.DefaultConfig(7, 60)).Rects {
		y := (r.MinY + r.MaxY) / 2
		a := obstacles.Pt(r.MinX-1, y)
		for dx := 50.0; dx <= 1000; dx += 50 {
			b := obstacles.Pt(r.MaxX+dx, y)
			var qs obstacles.QueryStats
			if _, err := db.ObstructedDistance(context.Background(), a, b, obstacles.WithStats(&qs)); err != nil {
				t.Fatal(err)
			}
			if qs.Expansions > 0 {
				return a, b
			}
		}
	}
	t.Fatal("no pair needs a graph search")
	return obstacles.Point{}, obstacles.Point{}
}

// graphRangePoint returns a free point of newTracingTestDB's world, stepping
// as freePoint does, whose range query of the given radius leaves some
// candidate to a graph search.
func graphRangePoint(t *testing.T, db *obstacles.Database, radius float64) obstacles.Point {
	t.Helper()
	for q, try := obstacles.Pt(0, 0), 0; try < 64; q, try = obstacles.Pt(q.X+137.5, q.Y+89.25), try+1 {
		var qs obstacles.QueryStats
		if inside, err := db.InsideObstacle(q); err != nil || inside {
			continue
		}
		if _, err := db.Range(context.Background(), "P", q, radius, obstacles.WithStats(&qs)); err != nil {
			t.Fatal(err)
		}
		if qs.Expansions > 0 {
			return q
		}
	}
	t.Fatal("no range query needs a graph search")
	return obstacles.Point{}
}

// fetchTrace pulls one retained trace's span tree from /debug/traces/{id}.
func fetchTrace(t *testing.T, baseURL, id string) telemetry.TraceSnapshot {
	t.Helper()
	st, raw := get(t, baseURL+"/debug/traces/"+id)
	if st != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s: %d %s", id, st, raw)
	}
	var snap telemetry.TraceSnapshot
	decodeInto(t, raw, &snap)
	return snap
}

// flattenSpans walks a span forest depth-first.
func flattenSpans(spans []*telemetry.SpanSnapshot) []*telemetry.SpanSnapshot {
	var out []*telemetry.SpanSnapshot
	for _, sp := range spans {
		out = append(out, sp)
		out = append(out, flattenSpans(sp.Children)...)
	}
	return out
}

func findSpan(spans []*telemetry.SpanSnapshot, name string) *telemetry.SpanSnapshot {
	for _, sp := range flattenSpans(spans) {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}

// TestTraceparentPropagation: a request carrying a W3C traceparent header
// has its trace id adopted and echoed in Obs-Trace-Id; requests without one
// (or with a malformed one) get a fresh id.
func TestTraceparentPropagation(t *testing.T) {
	db := newTracingTestDB(t)
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	q := freePoint(t, db)

	body, _ := json.Marshal(DistanceRequest{A: Pt{q.X, q.Y}, B: Pt{q.X + 50, q.Y + 30}})
	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/distance", bytes.NewReader(body))
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distance: %d", resp.StatusCode)
	}
	id := resp.Header.Get("Obs-Trace-Id")
	if id != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("Obs-Trace-Id = %q, want the traceparent trace id", id)
	}
	// The continued trace records the caller's span as its remote parent.
	snap := fetchTrace(t, ts.URL, id)
	if snap.RemoteParent != "00f067aa0ba902b7" {
		t.Fatalf("remote parent = %q, want the traceparent parent id", snap.RemoteParent)
	}

	// No header: a fresh id, still on every response.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/distance", bytes.NewReader(body))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	fresh := resp.Header.Get("Obs-Trace-Id")
	if !traceIDRe.MatchString(fresh) || fresh == id {
		t.Fatalf("fresh Obs-Trace-Id = %q", fresh)
	}

	// Malformed header: degrade to a fresh trace, not an error.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/distance", bytes.NewReader(body))
	req.Header.Set("traceparent", "ff-garbage")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("malformed traceparent failed the request: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Obs-Trace-Id"); !traceIDRe.MatchString(got) {
		t.Fatalf("Obs-Trace-Id after malformed traceparent = %q", got)
	}
}

// TestTraceSpanTree: a served query's retained trace holds the full
// hierarchy — route root, admission wait, and the engine's verb span with
// its work attributes and chokepoint children.
func TestTraceSpanTree(t *testing.T) {
	db := newTracingTestDB(t)
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	// The distance and the range need a graph: a target in plain sight, or
	// one that a detour decides, is settled with no search at all.
	a, b := graphPair(t, db)
	q := graphRangePoint(t, db, 2500)

	body, _ := json.Marshal(DistanceRequest{A: Pt{a.X, a.Y}, B: Pt{b.X, b.Y}})
	resp, err := http.Post(ts.URL+"/v1/distance", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distance: %d", resp.StatusCode)
	}
	snap := fetchTrace(t, ts.URL, resp.Header.Get("Obs-Trace-Id"))

	if len(snap.Spans) != 1 || snap.Spans[0].Name != "distance" {
		t.Fatalf("want a single %q root span, got %+v", "distance", snap.Spans)
	}
	root := snap.Spans[0]
	if root.Attrs["status"] != float64(http.StatusOK) {
		t.Errorf("root status attr = %v, want 200", root.Attrs["status"])
	}
	if findSpan(root.Children, "admission-wait") == nil {
		t.Errorf("no admission-wait span under the root: %+v", root.Children)
	}
	verb := findSpan(root.Children, obstacles.VerbObstructedDistance)
	if verb == nil {
		t.Fatalf("no %q engine span under the root", obstacles.VerbObstructedDistance)
	}
	for _, attr := range []string{"settled_nodes", "page_reads", "graph_builds"} {
		if _, ok := verb.Attrs[attr]; !ok {
			t.Errorf("engine span missing %q attr: %+v", attr, verb.Attrs)
		}
	}
	if findSpan(verb.Children, "graph-build") == nil {
		t.Errorf("no graph-build span under the engine span")
	}
	checkSearchSpan(t, verb)

	// A range request's bounded expansion goes through the same chokepoint.
	body, _ = json.Marshal(RangeRequest{Q: Pt{q.X, q.Y}, Radius: 2500})
	resp, err = http.Post(ts.URL+"/v1/datasets/P/range", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range: %d %s", resp.StatusCode, raw)
	}
	var nr NeighborsResponse
	decodeInto(t, raw, &nr)
	if len(nr.Neighbors) == 0 {
		t.Fatal("range request found nothing: it never reached the search")
	}
	snap = fetchTrace(t, ts.URL, resp.Header.Get("Obs-Trace-Id"))
	if len(snap.Spans) != 1 {
		t.Fatalf("want a single root span, got %+v", snap.Spans)
	}
	verb = findSpan(snap.Spans[0].Children, obstacles.VerbRange)
	if verb == nil {
		t.Fatalf("no %q engine span under the root", obstacles.VerbRange)
	}
	if search := checkSearchSpan(t, verb); search.Attrs["sweeps"] == float64(0) {
		t.Errorf("a radius-2500 expansion swept no vertex: %+v", search.Attrs)
	}
}

// checkSearchSpan: adjacency is computed inside searches, so the engine span
// must hold a dijkstra child, and the span that carries the time also carries
// the sweep count.
func checkSearchSpan(t *testing.T, verb *telemetry.SpanSnapshot) *telemetry.SpanSnapshot {
	t.Helper()
	search := findSpan(verb.Children, "dijkstra")
	if search == nil {
		t.Fatalf("no dijkstra span under the %q span", verb.Name)
	}
	for _, attr := range []string{"settled_nodes", "sweeps"} {
		if _, ok := search.Attrs[attr]; !ok {
			t.Errorf("dijkstra span missing %q attr: %+v", attr, search.Attrs)
		}
	}
	return search
}

// TestActiveTraces: while a request is parked in flight, /debug/active lists
// its trace with elapsed time and the currently-open span.
func TestActiveTraces(t *testing.T) {
	db := newTracingTestDB(t)
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	q := freePoint(t, db)

	parked := make(chan struct{})
	release := make(chan struct{})
	testHookAdmitted = func(route string) {
		if route == "distance" {
			close(parked)
			<-release
		}
	}
	defer func() { testHookAdmitted = nil }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(DistanceRequest{A: Pt{q.X, q.Y}, B: Pt{q.X + 50, q.Y + 30}})
		resp, err := http.Post(ts.URL+"/v1/distance", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		readAll(t, resp)
	}()
	<-parked

	st, raw := get(t, ts.URL+"/debug/active")
	if st != http.StatusOK {
		t.Fatalf("GET /debug/active: %d %s", st, raw)
	}
	var act []telemetry.ActiveTrace
	decodeInto(t, raw, &act)
	var found *telemetry.ActiveTrace
	for i := range act {
		if act[i].Name == "distance" {
			found = &act[i]
		}
	}
	if found == nil {
		t.Fatalf("parked distance request not in /debug/active: %+v", act)
	}
	if !traceIDRe.MatchString(found.TraceID) || found.ElapsedMicros <= 0 {
		t.Fatalf("active entry: %+v", found)
	}

	close(release)
	<-done
	// Completed requests leave the active list.
	_, raw = get(t, ts.URL+"/debug/active")
	decodeInto(t, raw, &act)
	for _, a := range act {
		if a.Name == "distance" {
			t.Fatalf("finished request still active: %+v", a)
		}
	}
}

// TestDurableMutationTraceSpans: a mutation served over HTTP records the
// group-commit stages in its trace — the staging span always, and (as the
// only writer) the WAL append it led.
func TestDurableMutationTraceSpans(t *testing.T) {
	world := dataset.Generate(dataset.DefaultConfig(7, 60))
	db, err := obstacles.Open(filepath.Join(t.TempDir(), "test.obs"), obstacles.Options{TraceSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", world.Entities(world.EntityRand(1), 50)); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Shutdown(t.Context())

	body, _ := json.Marshal(InsertPointsRequest{Points: []Pt{{10, 20}, {30, 40}}})
	resp, err := http.Post(ts.URL+"/v1/datasets/P/points", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, raw)
	}
	snap := fetchTrace(t, ts.URL, resp.Header.Get("Obs-Trace-Id"))

	if findSpan(snap.Spans, "stage") == nil {
		t.Errorf("no stage span in mutation trace")
	}
	if findSpan(snap.Spans, "park") == nil {
		t.Errorf("no park span in mutation trace")
	}
	// With no concurrent writers this request led its own batch: the
	// wal-append span is its own, and there is no cross-trace link.
	if findSpan(snap.Spans, "wal-append") == nil {
		t.Fatalf("no wal-append span in mutation trace: %+v", flattenSpans(snap.Spans))
	}
	// The leader annotates its own span with the batch it wrote (ChildDur
	// children are fire-and-forget, so the attribute rides the parent).
	var batched bool
	for _, sp := range flattenSpans(snap.Spans) {
		if v, ok := sp.Attrs["batch_size"]; ok {
			batched = true
			if v != float64(1) {
				t.Errorf("batch_size = %v, want 1 (sole writer)", v)
			}
		}
	}
	if !batched {
		t.Errorf("no span carries batch_size")
	}
	if findSpan(snap.Spans, "fsync") == nil {
		t.Errorf("no fsync span in mutation trace")
	}
}

// TestRejectedClusterLeavesNoOpenSpan: a /cluster request the library rejects
// for a bad eps must not leave its verb span open — the recorded trace is
// complete, and nothing stays in the in-flight registry behind /debug/active.
func TestRejectedClusterLeavesNoOpenSpan(t *testing.T) {
	db := newTracingTestDB(t)
	defer db.Close()
	ts := httptest.NewServer(New(db, Config{}))
	defer ts.Close()

	body, _ := json.Marshal(ClusterRequest{Algorithm: "dbscan", Eps: 0})
	resp, err := http.Post(ts.URL+"/v1/datasets/P/cluster", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cluster with eps 0: %d %s", resp.StatusCode, raw)
	}
	snap := fetchTrace(t, ts.URL, resp.Header.Get("Obs-Trace-Id"))
	for _, sp := range flattenSpans(snap.Spans) {
		if sp.Open {
			t.Errorf("span %q still open in the recorded trace", sp.Name)
		}
	}
	if active := db.TraceRecorder().Active(); len(active) != 0 {
		t.Fatalf("%d trace(s) left in flight after a rejected request: %+v", len(active), active)
	}
}
