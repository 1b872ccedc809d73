package core

import (
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

// TestDistanceJoinCachedMatchesUncached: ODJ over a cached engine returns
// the identical pair set.
func TestDistanceJoinCachedMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for sceneIdx := 0; sceneIdx < 3; sceneIdx++ {
		s := newScene(t, rng, 4+rng.Intn(8), 100)
		S, _ := s.entities(t, rng, 25, 100)
		T, _ := s.entities(t, rng, 20, 100)
		dist := 8 + rng.Float64()*15
		plain := NewEngine(s.obst, DefaultEngineOptions())
		cached := NewEngine(s.obst, DefaultEngineOptions())
		cached.EnableGraphCache(4)
		a, _, err := bg(plain).DistanceJoin(S, T, dist)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := bg(cached).DistanceJoin(S, T, dist)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("scene %d: plain %d pairs, cached %d", sceneIdx, len(a), len(b))
		}
		for i := range a {
			if a[i].SID != b[i].SID || a[i].TID != b[i].TID || !sameDist(a[i].Dist, b[i].Dist) {
				t.Fatalf("scene %d pair %d differs: %v vs %v", sceneIdx, i, a[i], b[i])
			}
		}
		if cached.GraphCacheStats().Hits+cached.GraphCacheStats().Misses == 0 {
			t.Fatal("cached join never touched the cache")
		}
	}
}

// TestInvalidateRegionScoped: obstacle updates drop exactly the cached
// graphs whose coverage disk intersects the changed MBR, a stale graph
// refuses Retarget, and queries after an invalidation see the new state.
func TestInvalidateRegionScoped(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := newScene(t, rng, 10, 100)
	eng := NewEngine(s.obst, DefaultEngineOptions())
	eng.EnableGraphCache(4)

	// Warm two disjoint entries: one near the origin, one far away.
	nearSrc := s.freePoint(rng, 30)
	farSrc := geom.Pt(nearSrc.X+500, nearSrc.Y+500)
	nearTargets := []geom.Point{s.freePoint(rng, 30), s.freePoint(rng, 30)}
	farTargets := []geom.Point{geom.Pt(farSrc.X+10, farSrc.Y), geom.Pt(farSrc.X, farSrc.Y+12)}
	if _, _, err := bg(eng).BatchDistances(nearSrc, nearTargets); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bg(eng).BatchDistances(farSrc, farTargets); err != nil {
		t.Fatal(err)
	}

	// An update far from both coverage disks invalidates nothing.
	if n := eng.InvalidateObstacleRegion(geom.R(-900, -900, -890, -890)); n != 0 {
		t.Fatalf("far update invalidated %d entries", n)
	}
	// An update overlapping the near entry's disk drops exactly that entry.
	if n := eng.InvalidateObstacleRegion(geom.R(nearSrc.X-1, nearSrc.Y-1, nearSrc.X+1, nearSrc.Y+1)); n != 1 {
		t.Fatalf("near update invalidated %d entries, want 1", n)
	}
	if cs := eng.GraphCacheStats(); cs.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", cs.Invalidations)
	}

	// The far entry still serves hits; the near region rebuilds.
	before := eng.GraphCacheStats()
	if _, _, err := bg(eng).BatchDistances(farSrc, farTargets); err != nil {
		t.Fatal(err)
	}
	if cs := eng.GraphCacheStats(); cs.Hits != before.Hits+1 {
		t.Fatalf("surviving entry not reused: hits %d -> %d", before.Hits, cs.Hits)
	}
	if _, _, err := bg(eng).BatchDistances(nearSrc, nearTargets); err != nil {
		t.Fatal(err)
	}
	if cs := eng.GraphCacheStats(); cs.Misses != before.Misses+1 {
		t.Fatalf("invalidated region should miss: misses %d -> %d", before.Misses, cs.Misses)
	}
}
