package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	obstacles "repro"
	"repro/internal/server"
)

// obsctl runs one subcommand and returns what it printed.
func obsctl(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// created runs create -seed 5 into a fresh file in dir and returns its path.
func created(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if _, err := obsctl(t, "create", "-db", path, "-obstacles", "200", "-entities", "300", "-seed", "5"); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCreateSameSeedByteIdentical(t *testing.T) {
	dir := t.TempDir()
	a, err := os.ReadFile(created(t, dir, "a.obs"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(created(t, dir, "b.obs"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two create -seed 5 runs differ (%d vs %d bytes)", len(a), len(b))
	}
}

func TestCreateRejectsOneCSV(t *testing.T) {
	dir := t.TempDir()
	if _, err := obsctl(t, "gen", "-obstacles", "50", "-entities", "20", "-queries", "1", "-out", dir); err != nil {
		t.Fatal(err)
	}
	for _, one := range [][2]string{{"-obstacles-csv", "obstacles.csv"}, {"-entities-csv", "entities.csv"}} {
		flag := one[0]
		path := filepath.Join(dir, "one.obs")
		_, err := obsctl(t, "create", "-db", path, flag, filepath.Join(dir, one[1]))
		if err == nil || !strings.Contains(err.Error(), "-obstacles-csv") || !strings.Contains(err.Error(), "-entities-csv") {
			t.Errorf("create with only %s: err = %v, want one naming both flags", flag, err)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("create with only %s left a file behind", flag)
		}
	}
	out, err := obsctl(t, "create", "-db", filepath.Join(dir, "both.obs"),
		"-obstacles-csv", filepath.Join(dir, "obstacles.csv"), "-entities-csv", filepath.Join(dir, "entities.csv"))
	if err != nil || !strings.Contains(out, "20 entities in dataset \"P\" (from CSV)") {
		t.Fatalf("create from both CSVs: %q, %v", out, err)
	}
}

func TestRequestNearestMatchesLibrary(t *testing.T) {
	path := created(t, t.TempDir(), "city.obs")
	out, err := obsctl(t, "request", "-db", path, "POST", "/v1/datasets/P/nearest", `{"q":[500,400],"k":5}`)
	if err != nil {
		t.Fatal(err)
	}
	var resp server.NeighborsResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("response %q: %v", out, err)
	}

	db, err := obstacles.Open(path, obstacles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want, err := db.NearestNeighbors(context.Background(), "P", obstacles.Pt(500, 400), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Neighbors) != len(want) {
		t.Fatalf("request returned %d neighbors, library %d", len(resp.Neighbors), len(want))
	}
	for i, nb := range resp.Neighbors {
		if nb.ID != want[i].ID || nb.Dist != want[i].Distance {
			t.Errorf("neighbor %d: request (%d, %v), library (%d, %v)", i, nb.ID, nb.Dist, want[i].ID, want[i].Distance)
		}
	}
}

func TestRequestMetrics(t *testing.T) {
	path := created(t, t.TempDir(), "city.obs")
	out, err := obsctl(t, "request", "-db", path, "GET", "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# TYPE obstacles_queries_total counter\n") {
		t.Errorf("GET /metrics lacks the obstacles_queries_total family:\n%s", out)
	}
}

func TestRequestNon2xxIsError(t *testing.T) {
	path := created(t, t.TempDir(), "city.obs")
	out, err := obsctl(t, "request", "-db", path, "POST", "/v1/datasets/P/nearest", `{"q":[500,400],"k":0}`)
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("k = 0: err = %v, want a status 400 error", err)
	}
	if !strings.Contains(out, `"code":"bad_request"`) {
		t.Errorf("k = 0: body %q, want the wire error", out)
	}
	if _, err := obsctl(t, "request", "-db", path, "POST", "/v1/datasets/nope/nearest", `{"q":[0,0],"k":1}`); err == nil {
		t.Error("unknown dataset: no error")
	}
}
