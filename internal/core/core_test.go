package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/visgraph"
)

// bg starts a background-context session: one per one-shot query.
func bg(e *Engine) *Session { return e.NewSession(context.Background()) }

func testTreeOpts() rtree.Options {
	// Tiny pages force multi-level trees even for small test datasets.
	return rtree.Options{PageSize: 244, BufferPages: 32}
}

// scene is a randomly generated test world with a brute-force distance
// oracle (a full naive visibility graph over all obstacles).
type scene struct {
	rects  []geom.Rect
	polys  []geom.Polygon
	obst   *ObstacleSet
	oracle *visgraph.Graph
	// graze, when not empty, is where freePoint puts three points in four.
	graze []geom.Point
}

func newScene(t *testing.T, rng *rand.Rand, nObst int, size float64) *scene {
	t.Helper()
	var rects []geom.Rect
	for attempts := 0; len(rects) < nObst && attempts < nObst*200; attempts++ {
		x, y := rng.Float64()*size, rng.Float64()*size
		w, h := rng.Float64()*size/8+0.5, rng.Float64()*size/8+0.5
		r := geom.R(x, y, x+w, y+h)
		ok := true
		for _, o := range rects {
			if o.Expand(1e-6).Intersects(r) {
				ok = false
				break
			}
		}
		if ok {
			rects = append(rects, r)
		}
	}
	return sceneOf(t, rects)
}

// sceneOf wraps a fixed obstacle list into a scene with its oracle.
func sceneOf(t *testing.T, rects []geom.Rect) *scene {
	t.Helper()
	polys := make([]geom.Polygon, len(rects))
	obs := make([]visgraph.Obstacle, len(rects))
	for i, r := range rects {
		polys[i] = geom.RectPolygon(r)
		obs[i] = visgraph.Obstacle{ID: int64(i), Poly: polys[i]}
	}
	ostore, err := NewObstacleSet(testTreeOpts(), polys, true)
	if err != nil {
		t.Fatal(err)
	}
	return &scene{
		rects:  rects,
		polys:  polys,
		obst:   ostore,
		oracle: visgraph.Build(visgraph.Options{UseSweep: false}, obs),
	}
}

// freePoint samples a point not strictly inside any obstacle; with
// probability 1/2 it lies exactly on an obstacle boundary, as the paper's
// entity datasets do.
func (s *scene) freePoint(rng *rand.Rand, size float64) geom.Point {
	if len(s.graze) > 0 && rng.Intn(4) != 0 {
		return s.graze[rng.Intn(len(s.graze))]
	}
	if len(s.rects) > 0 && rng.Intn(2) == 0 {
		r := s.rects[rng.Intn(len(s.rects))]
		switch rng.Intn(4) {
		case 0:
			return geom.Pt(r.MinX, r.MinY+rng.Float64()*r.Height())
		case 1:
			return geom.Pt(r.MaxX, r.MinY+rng.Float64()*r.Height())
		case 2:
			return geom.Pt(r.MinX+rng.Float64()*r.Width(), r.MinY)
		default:
			return geom.Pt(r.MinX+rng.Float64()*r.Width(), r.MaxY)
		}
	}
	for {
		p := geom.Pt(rng.Float64()*size, rng.Float64()*size)
		inside := false
		for _, r := range s.rects {
			if r.ContainsStrict(p) {
				inside = true
				break
			}
		}
		if !inside {
			return p
		}
	}
}

// bruteDist is the oracle obstructed distance.
func (s *scene) bruteDist(a, b geom.Point) float64 {
	na := s.oracle.AddTerminal(a)
	nb := s.oracle.AddTerminal(b)
	d := s.oracle.ObstructedDist(na, nb)
	s.oracle.DeleteEntity(na)
	s.oracle.DeleteEntity(nb)
	return d
}

func (s *scene) entities(t *testing.T, rng *rand.Rand, n int, size float64) (*PointSet, []geom.Point) {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = s.freePoint(rng, size)
	}
	ps, err := NewPointSet(testTreeOpts(), pts, true)
	if err != nil {
		t.Fatal(err)
	}
	return ps, pts
}

const distTol = 1e-6

func TestObstructedDistanceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for sceneIdx := 0; sceneIdx < 8; sceneIdx++ {
		s := newScene(t, rng, 4+rng.Intn(12), 100)
		eng := NewEngine(s.obst, DefaultEngineOptions())
		for i := 0; i < 12; i++ {
			a := s.freePoint(rng, 100)
			b := s.freePoint(rng, 100)
			want := s.bruteDist(a, b)
			got, _, err := bg(eng).ObstructedDistance(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > distTol {
				t.Fatalf("scene %d: dO(%v,%v) = %v, oracle %v",
					sceneIdx, a, b, got, want)
			}
			if got < a.Dist(b)-distTol {
				t.Fatalf("lower bound violated: dO=%v < dE=%v", got, a.Dist(b))
			}
		}
	}
}

func TestRangeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for sceneIdx := 0; sceneIdx < 6; sceneIdx++ {
		s := newScene(t, rng, 4+rng.Intn(10), 100)
		P, pts := s.entities(t, rng, 60, 100)
		eng := NewEngine(s.obst, DefaultEngineOptions())
		for trial := 0; trial < 5; trial++ {
			q := s.freePoint(rng, 100)
			radius := 5 + rng.Float64()*30
			got, st, err := bg(eng).Range(P, q, radius)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int64]float64{}
			for i, p := range pts {
				if d := s.bruteDist(q, p); d <= radius {
					want[int64(i)] = d
				}
			}
			if len(got) != len(want) {
				t.Fatalf("scene %d: %d results, oracle %d (q=%v r=%v)",
					sceneIdx, len(got), len(want), q, radius)
			}
			for _, r := range got {
				wd, ok := want[r.ID]
				if !ok {
					t.Fatalf("unexpected result %d", r.ID)
				}
				if math.Abs(r.Dist-wd) > distTol {
					t.Fatalf("result %d dist %v, oracle %v", r.ID, r.Dist, wd)
				}
			}
			// Results sorted by distance.
			for i := 1; i < len(got); i++ {
				if got[i].Dist < got[i-1].Dist {
					t.Fatal("results not sorted")
				}
			}
			if st.Candidates < len(got) {
				t.Fatalf("stats: candidates %d < results %d", st.Candidates, len(got))
			}
			if st.FalseHits != st.Candidates-st.Results {
				t.Fatalf("stats: false hits inconsistent: %+v", st)
			}
		}
	}
}

func TestNearestNeighborsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for sceneIdx := 0; sceneIdx < 6; sceneIdx++ {
		s := newScene(t, rng, 4+rng.Intn(10), 100)
		P, pts := s.entities(t, rng, 50, 100)
		eng := NewEngine(s.obst, DefaultEngineOptions())
		for _, k := range []int{1, 4, 10} {
			q := s.freePoint(rng, 100)
			got, _, err := bg(eng).NearestNeighbors(P, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k {
				t.Fatalf("k=%d: got %d results", k, len(got))
			}
			want := make([]float64, len(pts))
			for i, p := range pts {
				want[i] = s.bruteDist(q, p)
			}
			sort.Float64s(want)
			for i := 0; i < k; i++ {
				if math.Abs(got[i].Dist-want[i]) > distTol {
					t.Fatalf("scene %d k=%d rank %d: dist %v, oracle %v (q=%v)",
						sceneIdx, k, i, got[i].Dist, want[i], q)
				}
			}
		}
	}
}

func TestNearestNeighborsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := newScene(t, rng, 6, 100)
	P, pts := s.entities(t, rng, 8, 100)
	eng := NewEngine(s.obst, DefaultEngineOptions())
	// k larger than dataset.
	got, _, err := bg(eng).NearestNeighbors(P, geom.Pt(50, 50), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Errorf("k>n: got %d, want %d", len(got), len(pts))
	}
	// k = 0.
	got, _, err = bg(eng).NearestNeighbors(P, geom.Pt(50, 50), 0)
	if err != nil || got != nil {
		t.Errorf("k=0: %v %v", got, err)
	}
	// Empty dataset.
	empty, err := NewPointSet(testTreeOpts(), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = bg(eng).NearestNeighbors(empty, geom.Pt(50, 50), 3)
	if err != nil || len(got) != 0 {
		t.Errorf("empty: %v %v", got, err)
	}
}

func TestNNIteratorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	s := newScene(t, rng, 8, 100)
	P, pts := s.entities(t, rng, 40, 100)
	eng := NewEngine(s.obst, DefaultEngineOptions())
	q := s.freePoint(rng, 100)
	batch, _, err := bg(eng).NearestNeighbors(P, q, 15)
	if err != nil {
		t.Fatal(err)
	}
	it := bg(eng).NearestIterator(P, q)
	prev := -1.0
	for i := 0; i < 15; i++ {
		r, ok := it.Next()
		if !ok {
			t.Fatalf("iterator exhausted at %d: %v", i, it.Err())
		}
		if r.Dist < prev-distTol {
			t.Fatalf("iterator not ascending at %d", i)
		}
		prev = r.Dist
		if math.Abs(r.Dist-batch[i].Dist) > distTol {
			t.Fatalf("rank %d: iter %v batch %v", i, r.Dist, batch[i].Dist)
		}
	}
	// Exhausting the iterator yields exactly len(pts) results.
	count := 15
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		count++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if count != len(pts) {
		t.Fatalf("iterator returned %d results, want %d", count, len(pts))
	}
}

func TestDistanceJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for sceneIdx := 0; sceneIdx < 4; sceneIdx++ {
		s := newScene(t, rng, 4+rng.Intn(8), 100)
		S, spts := s.entities(t, rng, 25, 100)
		T, tpts := s.entities(t, rng, 20, 100)
		eng := NewEngine(s.obst, DefaultEngineOptions())
		dist := 8 + rng.Float64()*15
		got, st, err := bg(eng).DistanceJoin(S, T, dist)
		if err != nil {
			t.Fatal(err)
		}
		want := map[[2]int64]float64{}
		for i, sp := range spts {
			for j, tp := range tpts {
				if sp.Dist(tp) > dist {
					continue
				}
				if d := s.bruteDist(sp, tp); d <= dist {
					want[[2]int64{int64(i), int64(j)}] = d
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("scene %d: %d pairs, oracle %d",
				sceneIdx, len(got), len(want))
		}
		for _, pr := range got {
			wd, ok := want[[2]int64{pr.SID, pr.TID}]
			if !ok {
				t.Fatalf("unexpected pair %v", pr)
			}
			if math.Abs(pr.Dist-wd) > distTol {
				t.Fatalf("pair %v dist %v, oracle %v", pr, pr.Dist, wd)
			}
		}
		if st.FalseHits != st.Candidates-st.Results {
			t.Fatalf("stats inconsistent: %+v", st)
		}

		// S ⋈ S is a self-join: every ordered pair of distinct entities
		// within dist, in both orientations, counted once in the stats.
		got, st, err = bg(eng).DistanceJoin(S, S, dist)
		if err != nil {
			t.Fatal(err)
		}
		clear(want)
		for i, a := range spts {
			for j, b := range spts {
				if i == j || a.Dist(b) > dist {
					continue
				}
				if d := s.bruteDist(a, b); d <= dist {
					want[[2]int64{int64(i), int64(j)}] = d
				}
			}
		}
		if len(got) != len(want) || st.Results*2 != len(want) {
			t.Fatalf("scene %d self-join: %d pairs (%d in stats), oracle %d", sceneIdx, len(got), st.Results, len(want))
		}
		for _, pr := range got {
			if wd, ok := want[[2]int64{pr.SID, pr.TID}]; !ok || math.Abs(pr.Dist-wd) > distTol {
				t.Fatalf("self-join pair %v, oracle %v (present %v)", pr, wd, ok)
			}
		}
		if st.FalseHits != st.Candidates-st.Results {
			t.Fatalf("self-join stats inconsistent: %+v", st)
		}
	}
}

func TestClosestPairsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for sceneIdx := 0; sceneIdx < 4; sceneIdx++ {
		s := newScene(t, rng, 4+rng.Intn(8), 100)
		S, spts := s.entities(t, rng, 20, 100)
		T, tpts := s.entities(t, rng, 15, 100)
		eng := NewEngine(s.obst, DefaultEngineOptions())
		for _, k := range []int{1, 5, 12} {
			got, _, err := bg(eng).ClosestPairs(S, T, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k {
				t.Fatalf("k=%d: got %d pairs", k, len(got))
			}
			var want []float64
			for _, sp := range spts {
				for _, tp := range tpts {
					want = append(want, s.bruteDist(sp, tp))
				}
			}
			sort.Float64s(want)
			for i := 0; i < k; i++ {
				if math.Abs(got[i].Dist-want[i]) > distTol {
					t.Fatalf("scene %d k=%d rank %d: %v, oracle %v",
						sceneIdx, k, i, got[i].Dist, want[i])
				}
			}
		}
	}
}

func TestCPIteratorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	s := newScene(t, rng, 8, 100)
	S, _ := s.entities(t, rng, 15, 100)
	T, _ := s.entities(t, rng, 12, 100)
	eng := NewEngine(s.obst, DefaultEngineOptions())
	batch, _, err := bg(eng).ClosestPairs(S, T, 20)
	if err != nil {
		t.Fatal(err)
	}
	it, err := bg(eng).ClosestPairIterator(S, T)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := 0; i < 20; i++ {
		pr, ok := it.Next()
		if !ok {
			t.Fatalf("iterator exhausted at %d: %v", i, it.Err())
		}
		if pr.Dist < prev-distTol {
			t.Fatalf("iterator not ascending at %d", i)
		}
		prev = pr.Dist
		if math.Abs(pr.Dist-batch[i].Dist) > distTol {
			t.Fatalf("rank %d: iter %v batch %v",
				i, pr.Dist, batch[i].Dist)
		}
	}
	// Full enumeration yields |S| x |T| pairs.
	count := 20
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		count++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if count != S.Len()*T.Len() {
		t.Fatalf("iterator returned %d pairs, want %d", count, S.Len()*T.Len())
	}
}

func TestRangeZeroRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	s := newScene(t, rng, 5, 100)
	P, pts := s.entities(t, rng, 20, 100)
	eng := NewEngine(s.obst, DefaultEngineOptions())
	// Radius 0 centered exactly on an entity returns it at distance 0.
	got, _, err := bg(eng).Range(P, pts[3], 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range got {
		if r.ID == 3 && r.Dist == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("self not found at radius 0: %v", got)
	}
}

func TestUnreachableEntity(t *testing.T) {
	// An entity sealed inside overlapping walls: ONN must still return k
	// reachable results, Range must exclude it, and its reported distance
	// elsewhere must be +Inf.
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
	pts := []geom.Point{
		{X: 50, Y: 50}, // sealed inside
		{X: 10, Y: 10},
		{X: 90, Y: 90},
		{X: 10, Y: 90},
	}
	P, err := NewPointSet(testTreeOpts(), pts, true)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping obstacles: the visibility test is exact for them.
	eng := NewEngine(obst, DefaultEngineOptions())
	d, _, err := bg(eng).ObstructedDistance(geom.Pt(10, 10), geom.Pt(50, 50))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) {
		t.Fatalf("sealed entity reachable: %v", d)
	}
	res, _, err := bg(eng).Range(P, geom.Pt(10, 10), 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == 0 {
			t.Fatalf("sealed entity in range result")
		}
	}
	nn, _, err := bg(eng).NearestNeighbors(P, geom.Pt(10, 10), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 3 {
		t.Fatalf("got %d NNs", len(nn))
	}
	for _, r := range nn[:2] {
		if math.IsInf(r.Dist, 1) {
			t.Fatalf("reachable NN reported infinite")
		}
	}
}

func TestEngineNoObstacles(t *testing.T) {
	obst, err := NewObstacleSet(testTreeOpts(), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	pts := make([]geom.Point, 30)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	P, err := NewPointSet(testTreeOpts(), pts, true)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(obst, DefaultEngineOptions())
	q := geom.Pt(50, 50)
	res, _, err := bg(eng).Range(P, q, 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if math.Abs(r.Dist-q.Dist(r.Pt)) > distTol {
			t.Errorf("no obstacles: dO != dE for %v", r)
		}
	}
	want := 0
	for _, p := range pts {
		if q.Dist(p) <= 25 {
			want++
		}
	}
	if len(res) != want {
		t.Errorf("got %d, want %d", len(res), want)
	}
	nn, _, err := bg(eng).NearestNeighbors(P, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].Dist < nn[i-1].Dist {
			t.Error("NN order wrong")
		}
	}
}

func TestBlockedQueryPoint(t *testing.T) {
	// A query point strictly inside an obstacle reaches nothing; every
	// algorithm must answer quickly (no dataset-wide range enlargement) and
	// emptily.
	rng := rand.New(rand.NewSource(43))
	s := newScene(t, rng, 8, 100)
	P, _ := s.entities(t, rng, 30, 100)
	inside := s.rects[0].Center()
	eng := NewEngine(s.obst, DefaultEngineOptions())
	if in, err := bg(eng).InsideObstacle(inside); err != nil || !in {
		t.Fatalf("InsideObstacle = %v, %v", in, err)
	}
	if in, err := bg(eng).InsideObstacle(geom.Pt(-1, -1)); err != nil || in {
		t.Fatalf("outside point flagged inside: %v, %v", in, err)
	}
	d, _, err := bg(eng).ObstructedDistance(inside, geom.Pt(-1, -1))
	if err != nil || !math.IsInf(d, 1) {
		t.Fatalf("distance from inside = %v, %v", d, err)
	}
	res, st, err := bg(eng).Range(P, inside, 50)
	if err != nil || len(res) != 0 {
		t.Fatalf("range from inside = %v, %v", res, err)
	}
	if st.FalseHits != st.Candidates {
		t.Fatalf("blocked range stats: %+v", st)
	}
	nn, _, err := bg(eng).NearestNeighbors(P, inside, 3)
	if err != nil || len(nn) != 0 {
		t.Fatalf("NN from inside = %v, %v", nn, err)
	}
	it := bg(eng).NearestIterator(P, inside)
	if r, ok := it.Next(); ok || it.Err() != nil {
		t.Fatalf("iterator from inside returned %v, %v; want an empty stream", r, it.Err())
	}
	if st := it.Stats(); st.Candidates != 1 || st.ObstReads.PointQuery != 0 {
		t.Fatalf("iterator from inside: %d candidates, %d point-query reads; want 1 and 0 (the opening scan decides)", st.Candidates, st.ObstReads.PointQuery)
	}
}

func TestCPIteratorConstrainedBrowse(t *testing.T) {
	// The paper's iOCP motivation: "find the closest pair subject to a
	// predicate", where k is unknown in advance. Browsing must visit pairs
	// in ascending obstructed order until the predicate matches, and the
	// answer must agree with filtering the brute-force pair list.
	rng := rand.New(rand.NewSource(44))
	s := newScene(t, rng, 8, 100)
	S, spts := s.entities(t, rng, 12, 100)
	T, tpts := s.entities(t, rng, 10, 100)
	eng := NewEngine(s.obst, DefaultEngineOptions())
	pred := func(sid, tid int64) bool { return (sid+tid)%5 == 0 }

	it, err := bg(eng).ClosestPairIterator(S, T)
	if err != nil {
		t.Fatal(err)
	}
	var got *JoinPair
	for {
		pr, ok := it.Next()
		if !ok {
			t.Fatal("no qualifying pair found")
		}
		if pred(pr.SID, pr.TID) {
			got = &pr
			break
		}
	}
	// Brute force: the qualifying pair with minimum obstructed distance.
	best := math.Inf(1)
	for i, sp := range spts {
		for j, tp := range tpts {
			if !pred(int64(i), int64(j)) {
				continue
			}
			if d := s.bruteDist(sp, tp); d < best {
				best = d
			}
		}
	}
	if math.Abs(got.Dist-best) > distTol {
		t.Fatalf("constrained browse found %v, oracle %v", got.Dist, best)
	}
}

func TestDistanceJoinZeroDistance(t *testing.T) {
	// e = 0 degenerates to an intersection join on points: only coincident
	// pairs qualify.
	rng := rand.New(rand.NewSource(45))
	s := newScene(t, rng, 5, 100)
	shared := s.freePoint(rng, 100)
	sp := []geom.Point{shared, s.freePoint(rng, 100)}
	tp := []geom.Point{shared, s.freePoint(rng, 100)}
	S, err := NewPointSet(testTreeOpts(), sp, true)
	if err != nil {
		t.Fatal(err)
	}
	T, err := NewPointSet(testTreeOpts(), tp, true)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s.obst, DefaultEngineOptions())
	pairs, _, err := bg(eng).DistanceJoin(S, T, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pr := range pairs {
		if pr.Dist > distTol {
			t.Fatalf("pair beyond distance 0: %+v", pr)
		}
		if pr.SID == 0 && pr.TID == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("coincident pair not reported at e=0")
	}
}

func TestObstructedDistanceSymmetry(t *testing.T) {
	// dO is a metric: symmetric even though the computation anchors its
	// range enlargement at the first argument.
	rng := rand.New(rand.NewSource(46))
	s := newScene(t, rng, 10, 100)
	eng := NewEngine(s.obst, DefaultEngineOptions())
	for i := 0; i < 15; i++ {
		a := s.freePoint(rng, 100)
		b := s.freePoint(rng, 100)
		dab, _, err := bg(eng).ObstructedDistance(a, b)
		if err != nil {
			t.Fatal(err)
		}
		dba, _, err := bg(eng).ObstructedDistance(b, a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dab-dba) > distTol && !(math.IsInf(dab, 1) && math.IsInf(dba, 1)) {
			t.Fatalf("asymmetric: d(%v,%v)=%v, d(%v,%v)=%v", a, b, dab, b, a, dba)
		}
	}
}

func TestTriangleInequality(t *testing.T) {
	// dO(a,c) <= dO(a,b) + dO(b,c) for reachable triples.
	rng := rand.New(rand.NewSource(47))
	s := newScene(t, rng, 10, 100)
	eng := NewEngine(s.obst, DefaultEngineOptions())
	for i := 0; i < 10; i++ {
		a := s.freePoint(rng, 100)
		b := s.freePoint(rng, 100)
		c := s.freePoint(rng, 100)
		dab, _, _ := bg(eng).ObstructedDistance(a, b)
		dbc, _, _ := bg(eng).ObstructedDistance(b, c)
		dac, _, err := bg(eng).ObstructedDistance(a, c)
		if err != nil {
			t.Fatal(err)
		}
		if dac > dab+dbc+distTol {
			t.Fatalf("triangle violated: d(a,c)=%v > %v + %v", dac, dab, dbc)
		}
	}
}

func TestObstructedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 8; trial++ {
		s := newScene(t, rng, 4+rng.Intn(10), 100)
		eng := NewEngine(s.obst, DefaultEngineOptions())
		a := s.freePoint(rng, 100)
		b := s.freePoint(rng, 100)
		path, d, _, err := bg(eng).ObstructedPath(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := s.bruteDist(a, b)
		if math.IsInf(want, 1) {
			if path != nil || !math.IsInf(d, 1) {
				t.Fatalf("unreachable pair returned path %v, %v", path, d)
			}
			continue
		}
		if math.Abs(d-want) > distTol {
			t.Fatalf("path length %v, oracle %v", d, want)
		}
		if path[0] != a || path[len(path)-1] != b {
			t.Fatalf("path endpoints %v..%v, want %v..%v", path[0], path[len(path)-1], a, b)
		}
		// The polyline length matches and no leg crosses an obstacle.
		sum := 0.0
		for i := 1; i < len(path); i++ {
			sum += path[i-1].Dist(path[i])
			for _, pg := range s.polys {
				if pg.BlocksSegment(path[i-1], path[i]) {
					t.Fatalf("path leg %v-%v crosses an obstacle", path[i-1], path[i])
				}
			}
		}
		if math.Abs(sum-d) > distTol {
			t.Fatalf("polyline length %v != reported %v", sum, d)
		}
	}
}

func TestObstructedPathBlockedEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	s := newScene(t, rng, 6, 100)
	eng := NewEngine(s.obst, DefaultEngineOptions())
	inside := s.rects[0].Center()
	path, d, _, err := bg(eng).ObstructedPath(inside, geom.Pt(-5, -5))
	if err != nil {
		t.Fatal(err)
	}
	if path != nil || !math.IsInf(d, 1) {
		t.Fatalf("path from inside an obstacle: %v, %v", path, d)
	}
}
