package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestBatchDistancesMatchesPerPair: the batch primitive must agree with the
// per-pair Fig 8 computation and the brute-force oracle on randomized
// scenes.
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
		{
			eng := NewEngine(s.obst, DefaultEngineOptions())
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
					t.Fatalf("scene %d target %d: batch %v, per-pair %v",
						sceneIdx, i, got[i], want)
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
// call from a source to N targets builds fewer graphs and reads fewer R-tree
// pages than N independent ObstructedDistance calls. Passes are logged, not
// compared: a pair decides most targets by plain sight or one obstacle's
// detour, with no graph, while the batch's one disk field searches a graph
// for every target that its disk does not cover up to the detour's length.
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
	t.Logf("passes: batch %d, per-pair %d; graph builds: batch %d, per-pair %d; certificates: batch %+v, per-pair %+v",
		batchStats.Sweeps, pairStats.Sweeps, batchStats.GraphBuilds, pairStats.GraphBuilds, batchStats.Decided, pairStats.Decided)
	if batchStats.GraphBuilds >= pairStats.GraphBuilds {
		t.Fatalf("batch built %d graphs, per-pair %d", batchStats.GraphBuilds, pairStats.GraphBuilds)
	}
	if batchPages*2 >= pairPages {
		t.Fatalf("batch read %d obstacle pages, per-pair %d: want < half", batchPages, pairPages)
	}
}
