package expt

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/suite_smoke.golden from this run")

func tinyConfig() Config {
	return Config{
		Seed:          3,
		ObstacleCount: 600,
		Workload:      6,
		PageSize:      1024,
		BufferFrac:    0.10,
	}
}

func TestUniverseScaling(t *testing.T) {
	full := Config{ObstacleCount: PaperObstacleCount}
	if math.Abs(full.Universe()-PaperUniverse) > 1e-9 {
		t.Errorf("full-scale universe = %v", full.Universe())
	}
	quarter := Config{ObstacleCount: PaperObstacleCount / 4}
	if math.Abs(quarter.Universe()-PaperUniverse/2) > 1 {
		t.Errorf("quarter-scale universe = %v, want ~%v", quarter.Universe(), PaperUniverse/2)
	}
}

func TestLabCachesEntitySets(t *testing.T) {
	lab, err := NewLab(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := lab.EntitySet(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.EntitySet(100)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("entity set not cached")
	}
	c, err := lab.EntitySet(200)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c.Len() != 200 {
		t.Error("different cardinality should build a new set")
	}
	if len(lab.Queries()) != tinyConfig().Workload {
		t.Errorf("workload size = %d", len(lab.Queries()))
	}
}

func TestSuiteSmoke(t *testing.T) {
	// A miniature end-to-end run of every figure: validates plumbing,
	// not performance numbers. Grids are shrunk because large k on a tiny
	// world degenerates (the k-th neighbor radius spans the universe).
	s, err := NewSuite(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Ratios = []float64{0.1, 1}
	s.ORRanges = []float64{0.05, 0.5}
	s.Ks = []int{1, 8}
	s.JoinRatios = []float64{0.05, 0.5}
	s.JoinRanges = []float64{0.01, 0.1}
	tables, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 12 {
		t.Fatalf("got %d tables", len(tables))
	}
	checkGolden(t, tables)
	for _, tb := range tables {
		if len(tb.Rows) != 2 {
			t.Errorf("%s: %d rows, want 2", tb.ID, len(tb.Rows))
		}
		for _, r := range tb.Rows {
			if r.X == "" {
				t.Errorf("%s: empty X label", tb.ID)
			}
			if r.CPUms < 0 || r.DataIO < 0 || r.ObstIO < 0 {
				t.Errorf("%s: negative measurement %+v", tb.ID, r)
			}
			if sum := r.ObstSplit[0] + r.ObstSplit[1] + r.ObstSplit[2]; math.Abs(sum-r.ObstIO) > 1e-9*(1+r.ObstIO) {
				t.Errorf("%s x=%s: obstacle reads by caller %v sum to %v, obstIO %v", tb.ID, r.X, r.ObstSplit, sum, r.ObstIO)
			}
		}
		if !strings.Contains(tb.String(), tb.ID) {
			t.Errorf("%s: String() missing ID", tb.ID)
		}
		md := tb.Markdown()
		if !strings.Contains(md, "|") || !strings.Contains(md, tb.ID) {
			t.Errorf("%s: Markdown() malformed", tb.ID)
		}
	}
}

// checkGolden compares the run's paper columns with the recorded ones. Data
// page accesses, candidates, results and the false-hit ratio are functions of
// the seed and of the paper's algorithms (candidate order, stopping rules), so
// they must be equal: a change that moves one has changed an algorithm.
// Obstacle page accesses may only fall (fewer or smaller obstacle range
// scans); -update re-records after a deliberate fall.
func checkGolden(t *testing.T, tables []Table) {
	const path = "testdata/suite_smoke.golden"
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	b.WriteString("# figure|x|dataIO|candidates|results|falseHitRatio|obstIO at tinyConfig; go test ./internal/expt -run TestSuiteSmoke -update\n")
	for _, tb := range tables {
		for _, r := range tb.Rows {
			fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%s|%s\n", tb.ID, r.X, num(r.DataIO), num(r.Candidates), num(r.Results), num(r.FalseHitRatio), num(r.ObstIO))
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimSpace(b.String()), "\n")
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d rows, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := 1; i < len(gotLines); i++ {
		g, w := gotLines[i], wantLines[i]
		gCut, wCut := strings.LastIndexByte(g, '|'), strings.LastIndexByte(w, '|')
		if g[:gCut] != w[:wCut] {
			t.Errorf("paper columns moved:\n got  %s\n want %s", g, w)
			continue
		}
		gIO, _ := strconv.ParseFloat(g[gCut+1:], 64)
		wIO, _ := strconv.ParseFloat(w[wCut+1:], 64)
		if gIO > wIO {
			t.Errorf("obstacle page accesses rose: %s, golden %v", g, wIO)
		}
	}
}

func TestSuiteMemoization(t *testing.T) {
	s, err := NewSuite(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.orByRatio()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.orByRatio()
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("orByRatio not memoized")
	}
}

func TestORWorkloadSanity(t *testing.T) {
	// The OR workload at growing e must produce growing candidate counts.
	s, err := NewSuite(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.ORRanges = []float64{0.05, 0.5}
	rows, err := s.orByRange()
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.Candidates < first.Candidates {
		t.Errorf("candidates should grow with e: %v -> %v", first.Candidates, last.Candidates)
	}
	// Results never exceed candidates (false hits are non-negative).
	for _, r := range rows {
		if r.Results > r.Candidates+1e-9 {
			t.Errorf("results %v > candidates %v", r.Results, r.Candidates)
		}
	}
}
