package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	obstacles "repro"
	"repro/internal/dataset"
)

// newTestDB builds a small deterministic in-memory world with two datasets.
func newTestDB(t *testing.T) *obstacles.Database {
	t.Helper()
	world := dataset.Generate(dataset.DefaultConfig(7, 60))
	db, err := obstacles.NewDatabaseFromRects(world.Rects, obstacles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", world.Entities(world.EntityRand(1), 150)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("Q", world.Entities(world.EntityRand(2), 100)); err != nil {
		t.Fatal(err)
	}
	return db
}

// newDurableTestDB opens a durable database in a temp dir with the same
// world as newTestDB.
func newDurableTestDB(t *testing.T) *obstacles.Database {
	t.Helper()
	world := dataset.Generate(dataset.DefaultConfig(7, 60))
	db, err := obstacles.Open(filepath.Join(t.TempDir(), "test.obs"), obstacles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddObstacleRects(world.Rects...); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", world.Entities(world.EntityRand(1), 150)); err != nil {
		t.Fatal(err)
	}
	return db
}

// freePoint finds a query point outside every obstacle (a blocked source
// would legitimately answer +Inf and mask what a test is probing).
func freePoint(t *testing.T, db *obstacles.Database) obstacles.Point {
	t.Helper()
	q := obstacles.Pt(0, 0)
	for try := 0; ; try++ {
		inside, err := db.InsideObstacle(q)
		if err != nil {
			t.Fatal(err)
		}
		if !inside {
			return q
		}
		if try > 64 {
			t.Fatal("no free point found")
		}
		q = obstacles.Pt(q.X+137.5, q.Y+89.25)
	}
}

func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func put(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf)
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func decodeInto(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
}

// wireErr extracts the structured error envelope, failing on malformed
// bodies so every error path is provably typed.
func wireErr(t *testing.T, raw []byte) Error {
	t.Helper()
	var er errorResponse
	decodeInto(t, raw, &er)
	if er.Error.Code == "" {
		t.Fatalf("error response without code: %s", raw)
	}
	return er.Error
}

// TestServeAllVerbs drives every query and mutation verb through the HTTP
// surface and checks the response shapes.
func TestServeAllVerbs(t *testing.T) {
	db := newTestDB(t)
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	q := freePoint(t, db)

	// Range.
	st, raw := post(t, ts.URL+"/v1/datasets/P/range", RangeRequest{Q: Pt{q.X, q.Y}, Radius: 2000})
	if st != 200 {
		t.Fatalf("range: %d %s", st, raw)
	}
	var nbs NeighborsResponse
	decodeInto(t, raw, &nbs)
	if nbs.Count != len(nbs.Neighbors) {
		t.Fatalf("range count %d != %d neighbors", nbs.Count, len(nbs.Neighbors))
	}

	// Nearest.
	st, raw = post(t, ts.URL+"/v1/datasets/P/nearest", NearestRequest{Q: Pt{q.X, q.Y}, K: 5})
	if st != 200 {
		t.Fatalf("nearest: %d %s", st, raw)
	}
	decodeInto(t, raw, &nbs)
	if nbs.Count != 5 {
		t.Fatalf("nearest returned %d, want 5", nbs.Count)
	}
	for i := 1; i < len(nbs.Neighbors); i++ {
		if nbs.Neighbors[i].Dist < nbs.Neighbors[i-1].Dist {
			t.Fatalf("nearest results out of order: %v", nbs.Neighbors)
		}
	}

	// Join.
	st, raw = post(t, ts.URL+"/v1/datasets/P/join", JoinRequest{With: "Q", Dist: 150, Limit: 32})
	if st != 200 {
		t.Fatalf("join: %d %s", st, raw)
	}
	var prs PairsResponse
	decodeInto(t, raw, &prs)

	// Closest pairs.
	st, raw = post(t, ts.URL+"/v1/datasets/P/closest-pairs", ClosestPairsRequest{With: "Q", K: 3})
	if st != 200 {
		t.Fatalf("closest-pairs: %d %s", st, raw)
	}
	decodeInto(t, raw, &prs)
	if prs.Count != 3 {
		t.Fatalf("closest-pairs returned %d, want 3", prs.Count)
	}

	// Distance, checked against the library verbatim.
	b := obstacles.Pt(q.X+900, q.Y+700)
	st, raw = post(t, ts.URL+"/v1/distance", DistanceRequest{A: Pt{q.X, q.Y}, B: Pt{b.X, b.Y}})
	if st != 200 {
		t.Fatalf("distance: %d %s", st, raw)
	}
	var dr DistanceResponse
	decodeInto(t, raw, &dr)
	want, err := db.ObstructedDistance(t.Context(), q, b)
	if err != nil {
		t.Fatal(err)
	}
	if float64(dr.Dist) != want {
		t.Fatalf("distance over the wire %v != library %v", dr.Dist, want)
	}

	// Path: endpoints match, length matches the distance verb.
	st, raw = post(t, ts.URL+"/v1/path", PathRequest{A: Pt{q.X, q.Y}, B: Pt{b.X, b.Y}})
	if st != 200 {
		t.Fatalf("path: %d %s", st, raw)
	}
	var pr PathResponse
	decodeInto(t, raw, &pr)
	if len(pr.Path) < 2 || pr.Path[0] != (Pt{q.X, q.Y}) || pr.Path[len(pr.Path)-1] != (Pt{b.X, b.Y}) {
		t.Fatalf("path endpoints wrong: %v", pr.Path)
	}
	if float64(pr.Dist) != want {
		t.Fatalf("path length %v != distance %v", pr.Dist, want)
	}

	// Distance matrix: symmetric, zero diagonal.
	pts := []Pt{{q.X, q.Y}, {q.X + 500, q.Y}, {q.X, q.Y + 500}}
	st, raw = post(t, ts.URL+"/v1/distance-matrix", DistanceMatrixRequest{Points: pts})
	if st != 200 {
		t.Fatalf("distance-matrix: %d %s", st, raw)
	}
	var mr DistanceMatrixResponse
	decodeInto(t, raw, &mr)
	if len(mr.Matrix) != 3 {
		t.Fatalf("matrix has %d rows", len(mr.Matrix))
	}
	for i := range mr.Matrix {
		if mr.Matrix[i][i] != 0 {
			t.Fatalf("matrix diagonal [%d][%d] = %v", i, i, mr.Matrix[i][i])
		}
		for j := range mr.Matrix[i] {
			if mr.Matrix[i][j] != mr.Matrix[j][i] {
				t.Fatalf("matrix not symmetric at [%d][%d]", i, j)
			}
		}
	}

	// Cluster.
	st, raw = post(t, ts.URL+"/v1/datasets/P/cluster", ClusterRequest{Algorithm: "dbscan", Eps: 400, MinPts: 3})
	if st != 200 {
		t.Fatalf("cluster: %d %s", st, raw)
	}
	var cr ClusterResponse
	decodeInto(t, raw, &cr)
	if len(cr.Assignments) == 0 {
		t.Fatal("cluster returned no assignments")
	}

	// Create a dataset, list it, mutate it.
	st, raw = put(t, ts.URL+"/v1/datasets/R", CreateDatasetRequest{Points: pts})
	if st != 200 {
		t.Fatalf("create dataset: %d %s", st, raw)
	}
	st, raw = get(t, ts.URL+"/v1/datasets")
	if st != 200 {
		t.Fatalf("datasets: %d %s", st, raw)
	}
	var ls DatasetsResponse
	decodeInto(t, raw, &ls)
	found := false
	for _, d := range ls.Datasets {
		if d.Name == "R" && d.Size == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dataset R missing from listing: %+v", ls)
	}

	st, raw = post(t, ts.URL+"/v1/datasets/R/points", InsertPointsRequest{Points: []Pt{{q.X + 7, q.Y + 7}}})
	if st != 200 {
		t.Fatalf("insert: %d %s", st, raw)
	}
	var ir InsertPointsResponse
	decodeInto(t, raw, &ir)
	if len(ir.IDs) != 1 {
		t.Fatalf("insert returned ids %v", ir.IDs)
	}
	st, raw = post(t, ts.URL+"/v1/datasets/R/points/delete", DeletePointsRequest{IDs: ir.IDs})
	if st != 200 {
		t.Fatalf("delete: %d %s", st, raw)
	}

	// Obstacles: one polygon + one rect in, then out again.
	st, raw = post(t, ts.URL+"/v1/obstacles", AddObstaclesRequest{
		Polygons: [][]Pt{{{9000, 9000}, {9050, 9000}, {9025, 9060}}},
		Rects:    [][4]float64{{9100, 9100, 9140, 9150}},
	})
	if st != 200 {
		t.Fatalf("add obstacles: %d %s", st, raw)
	}
	var ar AddObstaclesResponse
	decodeInto(t, raw, &ar)
	if len(ar.IDs) != 2 {
		t.Fatalf("add obstacles returned ids %v", ar.IDs)
	}
	st, raw = post(t, ts.URL+"/v1/obstacles/remove", RemoveObstaclesRequest{IDs: ar.IDs})
	if st != 200 {
		t.Fatalf("remove obstacles: %d %s", st, raw)
	}

	// Health.
	st, raw = get(t, ts.URL+"/healthz")
	if st != 200 {
		t.Fatalf("healthz: %d %s", st, raw)
	}
	var hr HealthResponse
	decodeInto(t, raw, &hr)
	if hr.Status != "ok" || hr.Datasets != 3 {
		t.Fatalf("health: %+v", hr)
	}

	// Metrics are mounted on the same listener and carry both families.
	st, raw = get(t, ts.URL+"/metrics")
	if st != 200 || !bytes.Contains(raw, []byte("obsd_requests_total")) ||
		!bytes.Contains(raw, []byte("obstacles_queries_total")) {
		t.Fatalf("metrics endpoint missing series (status %d)", st)
	}
}

// TestStructuredErrors checks that every failure mode answers with the
// typed envelope and the right status.
func TestStructuredErrors(t *testing.T) {
	db := newTestDB(t)
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name   string
		status int
		code   string
		do     func() (int, []byte)
	}{
		{"unknown dataset", 404, CodeUnknownDataset, func() (int, []byte) {
			return post(t, ts.URL+"/v1/datasets/nope/nearest", NearestRequest{K: 1})
		}},
		{"unknown join partner", 404, CodeUnknownDataset, func() (int, []byte) {
			return post(t, ts.URL+"/v1/datasets/P/join", JoinRequest{With: "nope", Dist: 10})
		}},
		{"malformed body", 400, CodeBadRequest, func() (int, []byte) {
			st, raw := postRaw(t, ts.URL+"/v1/distance", "{not json")
			return st, raw
		}},
		{"unknown field", 400, CodeBadRequest, func() (int, []byte) {
			st, raw := postRaw(t, ts.URL+"/v1/distance", `{"a":[0,0],"b":[1,1],"typo":true}`)
			return st, raw
		}},
		{"bad k", 400, CodeBadRequest, func() (int, []byte) {
			return post(t, ts.URL+"/v1/datasets/P/nearest", NearestRequest{K: 0})
		}},
		{"bad cluster eps", 400, CodeInvalidArgument, func() (int, []byte) {
			return post(t, ts.URL+"/v1/datasets/P/cluster", ClusterRequest{Algorithm: "dbscan", Eps: 0})
		}},
		{"bad cluster k", 400, CodeInvalidArgument, func() (int, []byte) {
			return post(t, ts.URL+"/v1/datasets/P/cluster", ClusterRequest{Algorithm: "kmedoids", K: 0})
		}},
		{"bad cluster minpts", 400, CodeInvalidArgument, func() (int, []byte) {
			return post(t, ts.URL+"/v1/datasets/P/cluster", ClusterRequest{Eps: 50, MinPts: -1})
		}},
		{"bad timeout", 400, CodeBadRequest, func() (int, []byte) {
			return post(t, ts.URL+"/v1/distance?timeout=bogus", DistanceRequest{})
		}},
		{"duplicate dataset", 409, CodeDatasetExists, func() (int, []byte) {
			return put(t, ts.URL+"/v1/datasets/P", CreateDatasetRequest{})
		}},
		{"invalid polygon", 400, CodeInvalidPolygon, func() (int, []byte) {
			return post(t, ts.URL+"/v1/obstacles", AddObstaclesRequest{
				Polygons: [][]Pt{{{0, 0}, {1, 1}}},
			})
		}},
		{"deadline expired", 504, CodeDeadlineExceeded, func() (int, []byte) {
			return post(t, ts.URL+"/v1/datasets/P/nearest?timeout=1ns", NearestRequest{Q: Pt{5000, 5000}, K: 5})
		}},
		{"delete of a duplicate id", 400, CodeInvalidArgument, func() (int, []byte) {
			return post(t, ts.URL+"/v1/datasets/P/points/delete", DeletePointsRequest{IDs: []int64{1, 1}})
		}},
		{"delete of an unknown id", 400, CodeBadRequest, func() (int, []byte) {
			return post(t, ts.URL+"/v1/datasets/P/points/delete", DeletePointsRequest{IDs: []int64{1 << 40}})
		}},
		{"remove of an unknown obstacle", 400, CodeBadRequest, func() (int, []byte) {
			return post(t, ts.URL+"/v1/obstacles/remove", RemoveObstaclesRequest{IDs: []int64{1 << 40}})
		}},
		// The handlers check the dataset before calling the library, so these
		// two library errors reach writeErr only under a race: map them directly.
		{"dataset created under the handler's feet", 409, CodeDatasetExists, func() (int, []byte) {
			rec := httptest.NewRecorder()
			s.writeErr(rec, "create_dataset", db.AddDatasetContext(context.Background(), "P", nil))
			return rec.Code, rec.Body.Bytes()
		}},
		{"dataset dropped under the handler's feet", 404, CodeUnknownDataset, func() (int, []byte) {
			rec := httptest.NewRecorder()
			_, err := db.Range(context.Background(), "nope", obstacles.Pt(0, 0), 1)
			s.writeErr(rec, "range", err)
			return rec.Code, rec.Body.Bytes()
		}},
	}
	for _, tc := range cases {
		st, raw := tc.do()
		if st != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, st, tc.status, raw)
			continue
		}
		if e := wireErr(t, raw); e.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
	}
}

func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestUnreachableOnTheWire pins the +Inf encoding: JSON cannot carry
// infinity, so an unreachable pair answers the string "Infinity", and the
// typed client representation round-trips it back to +Inf.
func TestUnreachableOnTheWire(t *testing.T) {
	db := newTestDB(t)
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A query source strictly inside an obstacle is sealed off from
	// everything: distance +Inf.
	world := dataset.Generate(dataset.DefaultConfig(7, 60))
	r := world.Rects[0]
	inside := obstacles.Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2)

	st, raw := post(t, ts.URL+"/v1/distance", DistanceRequest{
		A: Pt{inside.X, inside.Y}, B: Pt{0, 0},
	})
	if st != 200 {
		t.Fatalf("distance: %d %s", st, raw)
	}
	var loose map[string]any
	decodeInto(t, raw, &loose)
	if loose["dist"] != "Infinity" {
		t.Fatalf(`unreachable distance on the wire = %v, want "Infinity"`, loose["dist"])
	}
	var dr DistanceResponse
	decodeInto(t, raw, &dr)
	if !math.IsInf(float64(dr.Dist), 1) || !dr.Dist.Unreachable() {
		t.Fatalf("typed round-trip of unreachable = %v", dr.Dist)
	}
}

// TestDeadlinePropagation proves the ?timeout= deadline reaches the engine:
// the canceled query returns a context error, not a full result.
func TestDeadlinePropagation(t *testing.T) {
	db := newTestDB(t)
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	st, raw := post(t, ts.URL+"/v1/datasets/P/cluster?timeout=1ns",
		ClusterRequest{Eps: 400, MinPts: 3})
	if st != 504 {
		t.Fatalf("status %d (%s), want 504", st, raw)
	}
	if e := wireErr(t, raw); e.Code != CodeDeadlineExceeded {
		t.Fatalf("code %q, want %q", e.Code, CodeDeadlineExceeded)
	}
}

// TestTimeoutClamp: a huge ?timeout= is clamped to MaxTimeout rather than
// accepted or rejected.
func TestTimeoutClamp(t *testing.T) {
	db := newTestDB(t)
	defer db.Close()
	s := New(db, Config{MaxTimeout: 1}) // 1ns: everything expires instantly
	ts := httptest.NewServer(s)
	defer ts.Close()

	st, raw := post(t, ts.URL+"/v1/datasets/P/cluster?timeout=10h",
		ClusterRequest{Eps: 400, MinPts: 3})
	if st != 504 {
		t.Fatalf("status %d (%s), want 504 via clamped deadline", st, raw)
	}
}

// TestRouteTable holds the route table to its three consumers: every row is
// mounted on the mux under its own pattern, has its per-route series
// registered before the first request arrives, and is listed in README's
// "Serving" section — so a route cannot be added, renamed or dropped in one
// place only.
func TestRouteTable(t *testing.T) {
	db := newTestDB(t)
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, scrape := get(t, ts.URL+"/metrics")
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, serving, ok := strings.Cut(string(readme), "\n## Serving\n")
	if !ok {
		t.Fatal("README has no Serving section")
	}
	serving, _, _ = strings.Cut(serving, "\n## ")

	seen := map[string]bool{}
	for _, rt := range routes {
		if seen[rt.name] {
			t.Errorf("route name %q appears twice", rt.name)
		}
		seen[rt.name] = true
		method, path, _ := strings.Cut(rt.pattern, " ")
		req := httptest.NewRequest(method, strings.ReplaceAll(path, "{dataset}", "P"), nil)
		if _, pattern := s.mux.Handler(req); pattern != rt.pattern {
			t.Errorf("%s: %s %s is served by pattern %q, want %q", rt.name, method, req.URL.Path, pattern, rt.pattern)
		}
		for _, series := range []string{"obsd_requests_total", "obsd_request_errors_total", "obsd_request_seconds_count"} {
			if line := fmt.Sprintf("%s{route=%q} 0\n", series, rt.name); !strings.Contains(string(scrape), line) {
				t.Errorf("%s: no %q before the first request", rt.name, strings.TrimSpace(line))
			}
		}
		if listed := "`" + strings.ReplaceAll(rt.pattern, "{dataset}", "{ds}") + "`"; !strings.Contains(serving, listed) {
			t.Errorf("%s: README's Serving section does not list %s", rt.name, listed)
		}
	}
}
