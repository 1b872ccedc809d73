package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestBatchDistancesMatchesPerPair: the batch primitive must agree with the
// per-pair Fig 8 computation and the brute-force oracle on randomized
// scenes, with and without the graph cache.
func TestBatchDistancesMatchesPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for sceneIdx := 0; sceneIdx < 6; sceneIdx++ {
		s := newScene(t, rng, 4+rng.Intn(12), 100)
		targets := make([]geom.Point, 25)
		for i := range targets {
			targets[i] = s.freePoint(rng, 100)
		}
		source := s.freePoint(rng, 100)
		targets[7] = source      // coincident with the source: distance 0
		targets[13] = targets[4] // duplicate target point
		if len(s.rects) > 0 {    // strictly inside an obstacle: +Inf
			targets[19] = s.rects[0].Center()
		}
		for _, cacheCap := range []int{0, 4} {
			eng := NewEngine(s.obst, DefaultEngineOptions())
			eng.EnableGraphCache(cacheCap)
			got, st, err := bg(eng).BatchDistances(source, targets)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(targets) {
				t.Fatalf("got %d distances for %d targets", len(got), len(targets))
			}
			if st.Candidates != len(targets) {
				t.Fatalf("stats candidates = %d, want %d", st.Candidates, len(targets))
			}
			for i, p := range targets {
				want, _, err := bg(eng).ObstructedDistance(source, p)
				if err != nil {
					t.Fatal(err)
				}
				if !sameDist(got[i], want) {
					t.Fatalf("scene %d cache=%d target %d: batch %v, per-pair %v",
						sceneIdx, cacheCap, i, got[i], want)
				}
				oracle := s.bruteDist(source, p)
				if p.Eq(source) {
					oracle = 0
				}
				if len(s.rects) > 0 && i == 19 {
					oracle = math.Inf(1)
				}
				if !sameDist(got[i], oracle) {
					t.Fatalf("scene %d target %d: batch %v, oracle %v", sceneIdx, i, got[i], oracle)
				}
			}
		}
	}
}

func sameDist(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= distTol
}

// TestDistanceMatrixMatchesPerPair: the full matrix is symmetric, zero on
// the diagonal, and agrees with pairwise computations.
func TestDistanceMatrixMatchesPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for sceneIdx := 0; sceneIdx < 4; sceneIdx++ {
		s := newScene(t, rng, 4+rng.Intn(10), 100)
		pts := make([]geom.Point, 12)
		for i := range pts {
			pts[i] = s.freePoint(rng, 100)
		}
		eng := NewEngine(s.obst, DefaultEngineOptions())
		m, _, err := bg(eng).DistanceMatrix(pts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			if m[i][i] != 0 {
				t.Fatalf("diagonal [%d][%d] = %v", i, i, m[i][i])
			}
			for j := i + 1; j < len(pts); j++ {
				if !sameDist(m[i][j], m[j][i]) {
					t.Fatalf("asymmetric [%d][%d]=%v [%d][%d]=%v", i, j, m[i][j], j, i, m[j][i])
				}
				want := s.bruteDist(pts[i], pts[j])
				if !sameDist(m[i][j], want) {
					t.Fatalf("scene %d [%d][%d] = %v, oracle %v", sceneIdx, i, j, m[i][j], want)
				}
			}
		}
	}
}

// TestBatchDistancesSealedTargets: targets walled off from the source come
// back Unreachable while reachable ones keep finite distances.
func TestBatchDistancesSealedTargets(t *testing.T) {
	walls := []geom.Polygon{
		geom.RectPolygon(geom.R(40, 40, 60, 45)),
		geom.RectPolygon(geom.R(40, 55, 60, 60)),
		geom.RectPolygon(geom.R(40, 40, 45, 60)),
		geom.RectPolygon(geom.R(55, 40, 60, 60)),
	}
	obst, err := NewObstacleSet(testTreeOpts(), walls, true)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(obst, DefaultEngineOptions())
	source := geom.Pt(10, 10)
	targets := []geom.Point{
		{X: 50, Y: 50}, // sealed inside the walls
		{X: 90, Y: 90},
		{X: 10, Y: 90},
	}
	got, st, err := bg(eng).BatchDistances(source, targets)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got[0], 1) {
		t.Fatalf("sealed target got %v", got[0])
	}
	for i := 1; i < len(targets); i++ {
		if math.IsInf(got[i], 1) {
			t.Fatalf("reachable target %d reported unreachable", i)
		}
	}
	if st.Results != 2 || st.FalseHits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBatchDistancesEmptyAndSourceInside covers the trivial paths.
func TestBatchDistancesEmptyAndSourceInside(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	s := newScene(t, rng, 6, 100)
	eng := NewEngine(s.obst, DefaultEngineOptions())
	if got, _, err := bg(eng).BatchDistances(geom.Pt(1, 1), nil); err != nil || len(got) != 0 {
		t.Fatalf("empty targets: %v, %v", got, err)
	}
	inside := s.rects[0].Center()
	got, _, err := bg(eng).BatchDistances(inside, []geom.Point{geom.Pt(1, 1), inside})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range got {
		if !math.IsInf(d, 1) {
			t.Fatalf("source inside obstacle: target %d got %v", i, d)
		}
	}
}

// TestBatchDistancesSavesWork is the acceptance check: one BatchDistances
// call from a source to N targets sweeps measurably fewer visibility-graph
// nodes, builds fewer graphs, and reads fewer R-tree pages than N
// independent ObstructedDistance calls. (Settled nodes are not compared:
// per-pair searches are goal-directed, the batch's multi-target expansion
// cannot be, so per-pair settles few nodes — each of which it has to sweep
// afresh, in a graph of its own.)
func TestBatchDistancesSavesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	s := newScene(t, rng, 40, 200)
	source := s.freePoint(rng, 200)
	targets := make([]geom.Point, 50)
	for i := range targets {
		targets[i] = s.freePoint(rng, 200)
	}

	perPair := NewEngine(s.obst, DefaultEngineOptions())
	pagesBefore := s.obst.Tree().PageFile().Stats().LogicalReads
	var want []float64
	var pairStats Stats
	for _, p := range targets {
		d, st, err := bg(perPair).ObstructedDistance(source, p)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
		pairStats.Merge(st)
	}
	pairPages := s.obst.Tree().PageFile().Stats().LogicalReads - pagesBefore

	batch := NewEngine(s.obst, DefaultEngineOptions())
	pagesBefore = s.obst.Tree().PageFile().Stats().LogicalReads
	got, batchStats, err := bg(batch).BatchDistances(source, targets)
	if err != nil {
		t.Fatal(err)
	}
	batchPages := s.obst.Tree().PageFile().Stats().LogicalReads - pagesBefore

	for i := range targets {
		if !sameDist(got[i], want[i]) {
			t.Fatalf("target %d: batch %v, per-pair %v", i, got[i], want[i])
		}
	}
	if batchStats.Sweeps >= pairStats.Sweeps {
		t.Fatalf("batch swept %d nodes, per-pair %d", batchStats.Sweeps, pairStats.Sweeps)
	}
	if batchStats.GraphBuilds >= pairStats.GraphBuilds {
		t.Fatalf("batch built %d graphs, per-pair %d", batchStats.GraphBuilds, pairStats.GraphBuilds)
	}
	if batchPages*2 >= pairPages {
		t.Fatalf("batch read %d obstacle pages, per-pair %d: want < half", batchPages, pairPages)
	}
}

// TestGraphCacheReuse: nearby sources hit the cache and still produce exact
// distances; far-apart sources evict cleanly.
func TestGraphCacheReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	s := newScene(t, rng, 20, 150)
	eng := NewEngine(s.obst, DefaultEngineOptions())
	eng.EnableGraphCache(2)
	targets := make([]geom.Point, 15)
	for i := range targets {
		targets[i] = s.freePoint(rng, 150)
	}
	base := s.freePoint(rng, 150)
	for trial := 0; trial < 10; trial++ {
		src := base
		if trial > 0 {
			// Jittered re-queries around the first source stay in coverage.
			src = geom.Pt(base.X+rng.Float64()*2-1, base.Y+rng.Float64()*2-1)
			inside, err := bg(eng).InsideObstacle(src)
			if err != nil {
				t.Fatal(err)
			}
			if inside {
				continue
			}
		}
		got, _, err := bg(eng).BatchDistances(src, targets)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range targets {
			if want := s.bruteDist(src, p); !sameDist(got[i], want) {
				t.Fatalf("trial %d target %d: cached %v, oracle %v", trial, i, got[i], want)
			}
		}
	}
	cs := eng.GraphCacheStats()
	if cs.Hits == 0 {
		t.Fatalf("no cache hits across re-queries: %+v", cs)
	}
	// A distant source misses and populates a second entry.
	far := geom.Pt(-500, -500)
	if _, _, err := bg(eng).BatchDistances(far, targets[:3]); err != nil {
		t.Fatal(err)
	}
	if eng.GraphCacheStats().Misses < 2 {
		t.Fatalf("expected a miss for the distant source: %+v", eng.GraphCacheStats())
	}
}

// TestCacheEntriesServeOneGeneration: a cached graph serves the obstacle
// generation it was built at and no other. After an obstacle is added across
// a warm entry's disk, a session on the new generation misses and answers as
// a fresh uncached engine does, while a session on a seal of the old
// generation still hits the warm entry and gets the old distance.
func TestCacheEntriesServeOneGeneration(t *testing.T) {
	rects := []geom.Rect{geom.R(20, 50, 30, 60), geom.R(70, -70, 80, -60)}
	wall := geom.R(45, -40, 55, 40)
	a, b := geom.Pt(0, 0), geom.Pt(100, 0)
	polys := make([]geom.Polygon, len(rects))
	for i, r := range rects {
		polys[i] = geom.RectPolygon(r)
	}
	o, err := NewObstacleSet(testTreeOpts(), polys, true)
	if err != nil {
		t.Fatal(err)
	}
	o.EnableCOW()
	eng := NewEngine(o, DefaultEngineOptions())
	eng.EnableGraphCache(4)
	dist := func(obst *ObstacleSet) float64 {
		t.Helper()
		d, _, err := eng.NewSessionAt(context.Background(), obst).ObstructedDistance(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	open := dist(nil) // the miss that publishes the entry
	if open != a.Dist(b) {
		t.Fatalf("unobstructed distance %v, want %v", open, a.Dist(b))
	}
	old := o.Seal()
	o.BeginEpoch()
	if _, err := o.Add([]geom.Polygon{geom.RectPolygon(wall)}); err != nil {
		t.Fatal(err)
	}

	before := eng.GraphCacheStats()
	walled := dist(nil)
	if cs := eng.GraphCacheStats(); cs.Misses != before.Misses+1 || cs.Hits != before.Hits {
		t.Fatalf("new generation reused an old graph: %+v -> %+v", before, cs)
	}
	fresh, err := NewObstacleSet(testTreeOpts(), append(polys, geom.RectPolygon(wall)), true)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := bg(NewEngine(fresh, DefaultEngineOptions())).ObstructedDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if walled != want || !(walled > open) {
		t.Fatalf("new generation: %v, fresh uncached engine %v, unwalled %v", walled, want, open)
	}

	before = eng.GraphCacheStats()
	if d := dist(old); d != open {
		t.Fatalf("old generation: %v, want %v", d, open)
	}
	if cs := eng.GraphCacheStats(); cs.Hits != before.Hits+1 || cs.Misses != before.Misses {
		t.Fatalf("old generation missed its warm entry: %+v -> %+v", before, cs)
	}
}
