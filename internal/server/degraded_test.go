package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	obstacles "repro"
	"repro/internal/dataset"
	"repro/internal/pagefile"
)

// TestDegradedWireSurface drives the full degraded-mode story over HTTP:
// a WAL fault poisons the store, mutations answer 503/degraded with a
// Retry-After header while reads keep serving, /healthz reports the state
// (and its ?ready=1 variant turns 503), and after the fault clears and
// Recover runs, mutations resume — all without restarting the server.
func TestDegradedWireSurface(t *testing.T) {
	inj := pagefile.NewInjector()
	world := dataset.Generate(dataset.DefaultConfig(7, 60))
	db, err := obstacles.Open(filepath.Join(t.TempDir(), "test.obs"),
		obstacles.Options{Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", world.Entities(world.EntityRand(1), 50)); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer db.Close()
	q := freePoint(t, db)

	// Healthy baseline: a mutation commits and health is "ok".
	st, raw := post(t, ts.URL+"/v1/datasets/P/points", InsertPointsRequest{Points: []Pt{{q.X + 3, q.Y + 3}}})
	if st != 200 {
		t.Fatalf("healthy insert: %d %s", st, raw)
	}

	// Break the WAL permanently; the next commit poisons the store.
	inj.Add(pagefile.FaultRule{Op: pagefile.OpWALSync})
	resp, err := http.Post(ts.URL+"/v1/datasets/P/points", "application/json",
		jsonBody(t, InsertPointsRequest{Points: []Pt{{q.X + 5, q.Y + 5}}}))
	if err != nil {
		t.Fatal(err)
	}
	raw = readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degrading insert: %d %s", resp.StatusCode, raw)
	}
	if e := wireErr(t, raw); e.Code != CodeDegraded {
		t.Fatalf("degrading insert code %q, want %q (%s)", e.Code, CodeDegraded, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 without Retry-After header")
	}

	// Every mutation verb now fails the same way; reads keep answering.
	st, raw = post(t, ts.URL+"/v1/obstacles", AddObstaclesRequest{Rects: [][4]float64{{9100, 9100, 9140, 9150}}})
	if st != http.StatusServiceUnavailable {
		t.Fatalf("degraded add obstacles: %d %s", st, raw)
	}
	if e := wireErr(t, raw); e.Code != CodeDegraded {
		t.Fatalf("degraded add obstacles code %q (%s)", e.Code, raw)
	}
	st, raw = post(t, ts.URL+"/v1/datasets/P/nearest", NearestRequest{Q: Pt{q.X, q.Y}, K: 3})
	if st != 200 {
		t.Fatalf("degraded read: %d %s", st, raw)
	}
	var nbs NeighborsResponse
	decodeInto(t, raw, &nbs)
	if nbs.Count != 3 {
		t.Fatalf("degraded nearest returned %d, want 3", nbs.Count)
	}

	// Liveness stays 200 but reports the state with recovery details.
	st, raw = get(t, ts.URL+"/healthz")
	if st != 200 {
		t.Fatalf("degraded healthz: %d %s", st, raw)
	}
	var hr HealthResponse
	decodeInto(t, raw, &hr)
	if hr.Status != "degraded" || hr.Recovery == nil || !hr.Recovery.Degraded || hr.Recovery.Cause == "" {
		t.Fatalf("degraded healthz: %+v", hr)
	}

	// Readiness turns 503 so load balancers rotate the daemon out.
	st, raw = get(t, ts.URL+"/healthz?ready=1")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("degraded readiness: %d %s", st, raw)
	}
	if e := wireErr(t, raw); e.Code != CodeDegraded {
		t.Fatalf("degraded readiness code %q (%s)", e.Code, raw)
	}

	// The degraded gauge and rejection counter are on /metrics.
	st, raw = get(t, ts.URL+"/metrics")
	if st != 200 || !bytes.Contains(raw, []byte("obstacles_degraded 1")) {
		t.Fatalf("metrics missing obstacles_degraded 1 (status %d)", st)
	}
	if !bytes.Contains(raw, []byte(`obsd_rejected_total{reason="degraded"} 2`)) {
		t.Fatal("metrics missing degraded rejection count")
	}

	// Heal the device, recover in place, and the write path resumes.
	inj.Clear()
	if err := db.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	st, raw = post(t, ts.URL+"/v1/datasets/P/points", InsertPointsRequest{Points: []Pt{{q.X + 9, q.Y + 9}}})
	if st != 200 {
		t.Fatalf("post-recovery insert: %d %s", st, raw)
	}
	st, raw = get(t, ts.URL+"/healthz?ready=1")
	if st != 200 {
		t.Fatalf("post-recovery readiness: %d %s", st, raw)
	}
	hr = HealthResponse{}
	decodeInto(t, raw, &hr)
	if hr.Status != "ok" || hr.Recovery != nil {
		t.Fatalf("post-recovery healthz: %+v", hr)
	}
	st, raw = get(t, ts.URL+"/metrics")
	if st != 200 || !bytes.Contains(raw, []byte("obstacles_degraded 0")) {
		t.Fatalf("metrics missing obstacles_degraded 0 after recovery (status %d)", st)
	}
}

// TestScrubEndpoint exercises POST /v1/admin/scrub: a clean checksummed
// database reports clean, and an in-memory database answers the typed 409.
func TestScrubEndpoint(t *testing.T) {
	db := newDurableTestDB(t)
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	st, raw := post(t, ts.URL+"/v1/admin/scrub", struct{}{})
	if st != 200 {
		t.Fatalf("scrub: %d %s", st, raw)
	}
	var sr ScrubResponse
	decodeInto(t, raw, &sr)
	if !sr.Clean || sr.Scanned == 0 || sr.Live == 0 {
		t.Fatalf("scrub response: %+v", sr)
	}

	mem := newTestDB(t)
	defer mem.Close()
	ms := httptest.NewServer(New(mem, Config{}))
	defer ms.Close()
	st, raw = post(t, ms.URL+"/v1/admin/scrub", struct{}{})
	if st != http.StatusConflict {
		t.Fatalf("in-memory scrub: %d %s", st, raw)
	}
	if e := wireErr(t, raw); e.Code != CodeNotPersistent {
		t.Fatalf("in-memory scrub code %q (%s)", e.Code, raw)
	}
}

// TestClusterEngineErrorIs500: a clustering request whose arguments are fine
// but whose engine run fails (here: every data-file page read faults) is the
// server's problem, not the client's. It must answer 500 internal, not be
// classified as a bad request because its message starts with "obstacles:".
func TestClusterEngineErrorIs500(t *testing.T) {
	inj := pagefile.NewInjector()
	world := dataset.Generate(dataset.DefaultConfig(7, 60))
	db, err := obstacles.Open(filepath.Join(t.TempDir(), "test.obs"),
		obstacles.Options{Chaos: inj, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AddObstacleRects(world.Rects...); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", world.Entities(world.EntityRand(1), 150)); err != nil {
		t.Fatal(err)
	}
	// Write every page back to the data file, so reads that miss the small
	// LRU buffers reach the (about to be faulty) device.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db, Config{}))
	defer ts.Close()

	req := ClusterRequest{Algorithm: "dbscan", Eps: 400, MinPts: 3}
	if st, raw := post(t, ts.URL+"/v1/datasets/P/cluster", req); st != 200 {
		t.Fatalf("healthy cluster: %d %s", st, raw)
	}
	inj.Add(pagefile.FaultRule{Op: pagefile.OpPageRead})
	st, raw := post(t, ts.URL+"/v1/datasets/P/cluster", req)
	if st != 500 {
		t.Fatalf("cluster over a faulting device: %d %s, want 500", st, raw)
	}
	if e := wireErr(t, raw); e.Code != CodeInternal {
		t.Fatalf("cluster over a faulting device: code %q, want %q", e.Code, CodeInternal)
	}
	inj.Clear() // let Close checkpoint cleanly
}
