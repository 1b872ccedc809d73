package server

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	obstacles "repro"
)

// capturingHandler is a slog.Handler that records every record's level,
// message, and attributes so tests can assert on the request log.
type capturingHandler struct {
	mu      sync.Mutex
	records []capturedRecord
}

type capturedRecord struct {
	level slog.Level
	msg   string
	attrs map[string]any
}

func (h *capturingHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *capturingHandler) Handle(_ context.Context, r slog.Record) error {
	rec := capturedRecord{level: r.Level, msg: r.Message, attrs: make(map[string]any)}
	r.Attrs(func(a slog.Attr) bool {
		rec.attrs[a.Key] = a.Value.Any()
		return true
	})
	h.mu.Lock()
	h.records = append(h.records, rec)
	h.mu.Unlock()
	return nil
}

func (h *capturingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *capturingHandler) WithGroup(string) slog.Handler      { return h }

func (h *capturingHandler) take() []capturedRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.records
	h.records = nil
	return out
}

// expectRecord finds the single record for route and checks its shape.
func expectRecord(t *testing.T, recs []capturedRecord, route, dataset string, status int) capturedRecord {
	t.Helper()
	var found []capturedRecord
	for _, r := range recs {
		if r.attrs["route"] == route {
			found = append(found, r)
		}
	}
	if len(found) != 1 {
		t.Fatalf("route %q: %d log records, want 1", route, len(found))
	}
	r := found[0]
	if r.msg != "request" {
		t.Errorf("route %q: msg = %q, want \"request\"", route, r.msg)
	}
	if got := r.attrs["dataset"]; got != dataset {
		t.Errorf("route %q: dataset = %v, want %q", route, got, dataset)
	}
	if got := r.attrs["status"]; got != int64(status) {
		t.Errorf("route %q: status = %v, want %d", route, got, status)
	}
	d, ok := r.attrs["duration"].(time.Duration)
	if !ok || d <= 0 {
		t.Errorf("route %q: duration = %v, want a positive duration", route, r.attrs["duration"])
	}
	id, ok := r.attrs["trace_id"].(string)
	if !ok || !traceIDRe.MatchString(id) {
		t.Errorf("route %q: trace_id = %v, want 32 hex digits", route, r.attrs["trace_id"])
	}
	return r
}

// TestRequestLogging: with Config.RequestLogger set, every request — success,
// typed error, and pipeline rejection alike — emits exactly one structured
// record carrying route, dataset, status, duration and trace id.
func TestRequestLogging(t *testing.T) {
	db := newTestDB(t)
	defer db.Close()
	h := &capturingHandler{}
	s := New(db, Config{RequestLogger: slog.New(h)})
	ts := httptest.NewServer(s)
	defer ts.Close()
	q := freePoint(t, db)

	if code, _ := post(t, ts.URL+"/v1/datasets/P/nearest", NearestRequest{Q: Pt{q.X, q.Y}, K: 3}); code != http.StatusOK {
		t.Fatalf("nearest: status %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/datasets/nope/range", RangeRequest{Q: Pt{0, 0}, Radius: 10}); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/distance?timeout=bogus", DistanceRequest{A: Pt{0, 0}, B: Pt{1, 1}}); code != http.StatusBadRequest {
		t.Fatalf("bad timeout: status %d", code)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}

	recs := h.take()
	if len(recs) != 4 {
		t.Fatalf("%d log records for 4 requests, want 4", len(recs))
	}
	ok := expectRecord(t, recs, "nearest", "P", http.StatusOK)
	if ok.level != slog.LevelInfo {
		t.Errorf("success record level = %v, want Info", ok.level)
	}
	expectRecord(t, recs, "range", "nope", http.StatusNotFound)
	// The bad ?timeout= is rejected by the pipeline before the handler runs;
	// it must still be logged.
	expectRecord(t, recs, "distance", "", http.StatusBadRequest)
	expectRecord(t, recs, "health", "", http.StatusOK)
}

// TestBackupEndpoint: POST /v1/admin/backup writes a reopenable copy of a
// durable database and reports the captured generation.
func TestBackupEndpoint(t *testing.T) {
	db := newDurableTestDB(t)
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Shutdown(context.Background())

	wantLen, err := db.DatasetLen("P")
	if err != nil {
		t.Fatal(err)
	}
	wantObst := db.NumObstacles()

	if code, raw := post(t, ts.URL+"/v1/admin/backup", BackupRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty path: status %d, body %s", code, raw)
	}

	path := filepath.Join(t.TempDir(), "copy.obs")
	code, raw := post(t, ts.URL+"/v1/admin/backup", BackupRequest{Path: path})
	if code != http.StatusOK {
		t.Fatalf("backup: status %d, body %s", code, raw)
	}
	var resp BackupResponse
	decodeInto(t, raw, &resp)
	if resp.Path != path {
		t.Errorf("response path = %q, want %q", resp.Path, path)
	}
	if resp.Generation == 0 {
		t.Error("response generation = 0, want the mutation count at backup")
	}

	copyDB, err := obstacles.Open(path, obstacles.Options{})
	if err != nil {
		t.Fatalf("reopening backup: %v", err)
	}
	defer copyDB.Close()
	if n, err := copyDB.DatasetLen("P"); err != nil || n != wantLen {
		t.Fatalf("backup DatasetLen(P) = %d, %v; want %d", n, err, wantLen)
	}
	if n := copyDB.NumObstacles(); n != wantObst {
		t.Fatalf("backup NumObstacles = %d, want %d", n, wantObst)
	}
}

// TestBackupEndpointNotPersistent: backup of an in-memory database is a
// typed 409.
func TestBackupEndpointNotPersistent(t *testing.T) {
	db := newTestDB(t)
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, raw := post(t, ts.URL+"/v1/admin/backup",
		BackupRequest{Path: filepath.Join(t.TempDir(), "copy.obs")})
	if code != http.StatusConflict {
		t.Fatalf("in-memory backup: status %d, body %s", code, raw)
	}
	if e := wireErr(t, raw); e.Code != CodeNotPersistent {
		t.Fatalf("in-memory backup code = %q, want %q", e.Code, CodeNotPersistent)
	}
}
