package obstacles_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	obstacles "repro"
	"repro/internal/server"
)

// scrapeText reads db's /metrics once through DebugHandler and returns the
// exposition text.
func scrapeText(tb testing.TB, db *obstacles.Database) string {
	tb.Helper()
	rec := httptest.NewRecorder()
	db.DebugHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

// sample returns the value of one unlabelled series from a scrape.
func sample(tb testing.TB, db *obstacles.Database, series string) float64 {
	tb.Helper()
	for _, line := range strings.Split(scrapeText(tb, db), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				tb.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	tb.Fatalf("scrape has no series %s", series)
	return 0
}

// TestREADMEMetricNamesExist: every obstacles_, obsd_ and go_ metric README.md
// names is a family on the /metrics of a durable database with the daemon's
// server registered on it, or a histogram family's _bucket, _sum or _count
// series. Wildcard stems (obsd_*) are skipped.
func TestREADMEMetricNamesExist(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	db, err := obstacles.Open(filepath.Join(t.TempDir(), "readme.obs"), obstacles.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	server.New(db, server.Config{}) // registers the obsd_* families on db's registry

	families := map[string]string{}
	for _, line := range strings.Split(scrapeText(t, db), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families[f[2]] = f[3]
		}
	}
	exists := func(name string) bool {
		if _, ok := families[name]; ok {
			return true
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && families[base] == "histogram" {
				return true
			}
		}
		return false
	}
	seen := map[string]bool{}
	for _, name := range regexp.MustCompile(`\b(?:obstacles|obsd|go)_[a-z0-9_]*`).FindAllString(string(readme), -1) {
		if strings.HasSuffix(name, "_") || seen[name] {
			continue // a wildcard stem, or already checked
		}
		seen[name] = true
		if !exists(name) {
			t.Errorf("README.md names %s, which is no family on /metrics", name)
		}
	}
	if len(seen) == 0 {
		t.Fatal("README.md names no metric")
	}
}
