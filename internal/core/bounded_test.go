package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/telemetry"
	"repro/internal/visgraph"
)

// unbounded makes a candidate stream measure every candidate exactly, as
// Figs 9 and 11 do, whatever bound topK asks with.
func unbounded[C any, R ranked](c candidates[C, R]) candidates[C, R] {
	eval := c.eval
	c.eval = func(cand C, _ float64) (R, error) { return eval(cand, math.Inf(1)) }
	return c
}

// exactNearest is NearestNeighbors with every candidate refined unbounded.
func exactNearest(s *Session, P *PointSet, q geom.Point, k int) (_ []Result, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	// The point query decides a buried q, independently of the opening scan
	// ONN decides it from; the search still runs, so that a buried q counts
	// the candidates ONN does.
	buried, err := s.InsideObstacle(q)
	if err != nil {
		return nil, st, err
	}
	f := s.newField(q, 0, &st)
	R, err := topK(s, &st, k, unbounded(s.neighbors(P, f)), func(seed []rtree.Neighbor) error {
		f.searched = seed[len(seed)-1].Dist
		if err := f.scan(); err != nil || !buried {
			return err
		}
		return errSourceBuried
	})
	if buried && (err == nil || err == errSourceBuried) {
		st.FalseHits = st.Candidates
		return nil, st, nil
	}
	return R, st, err
}

// exactClosestPairs is ClosestPairs with every candidate refined unbounded.
func exactClosestPairs(s *Session, S, T *PointSet, k int) (_ []JoinPair, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	c, err := s.pairs(S, T, &st)
	if err != nil {
		return nil, st, err
	}
	R, err := topK(s, &st, k, unbounded(c), func([]rtree.PairNeighbor) error { return nil })
	return R, st, err
}

// overlapScene is random rectangles that may overlap one another, as street
// MBRs do at crossings.
func overlapScene(t *testing.T, rng *rand.Rand) *scene {
	var rects []geom.Rect
	for i := 0; i < 30; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		rects = append(rects, geom.R(x, y, x+rng.Float64()*20+0.5, y+rng.Float64()*20+0.5))
	}
	return sceneOf(t, rects)
}

// boundedScene is one world of TestBoundedRefinementMatchesExact.
type boundedScene struct {
	name string
	obst *ObstacleSet
	P, S *PointSet
	q    geom.Point
}

// boundedScenes are the street, random, overlapping and sealed-off worlds,
// each with 150 entities, a query point and seven closest-pair sources.
func boundedScenes(t *testing.T) []boundedScene {
	var out []boundedScene
	world := dataset.Generate(dataset.Config{Seed: 5, Universe: 2000, Obstacles: 300, Hotspots: 2, HotspotFraction: 0.5, MaxRunBlocks: 4})
	obst, err := NewObstacleSet(testTreeOpts(), world.Polys, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := world.EntityRand(11)
	P, err := NewPointSet(testTreeOpts(), world.Entities(rng, 150), true)
	if err != nil {
		t.Fatal(err)
	}
	S, err := NewPointSet(testTreeOpts(), world.Entities(rng, 7), true)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, boundedScene{name: "street", obst: obst, P: P, S: S, q: world.Queries(rng, 1)[0]})
	for i, mk := range []func(*testing.T, *rand.Rand) *scene{
		func(t *testing.T, rng *rand.Rand) *scene { return newScene(t, rng, 30, 100) },
		overlapScene,
		sealedScene,
	} {
		rng := rand.New(rand.NewSource(int64(40 + i)))
		s := mk(t, rng)
		P, _ := s.entities(t, rng, 150, 100)
		S, _ := s.entities(t, rng, 7, 100)
		out = append(out, boundedScene{name: []string{"random", "overlapping", "sealed"}[i], obst: s.obst, P: P, S: S, q: s.freePoint(rng, 100)})
	}
	return out
}

// TestBoundedRefinementMatchesExact: certifying a candidate past the k seeds
// only against the running k-th distance changes nothing a caller sees — ids
// and distances bit for bit, candidates, results — and never costs more
// obstacle-tree reads or settled nodes than measuring it exactly, as Figs 9
// and 11 do. A candidate behind a long wall costs no enlargement at all.
func TestBoundedRefinementMatchesExact(t *testing.T) {
	for _, sc := range boundedScenes(t) {
		eng := NewEngine(sc.obst, DefaultEngineOptions())
		var settled, exactSettled uint64
		for _, k := range []int{1, 4, 16, 64} {
			got, gst, err := bg(eng).NearestNeighbors(sc.P, sc.q, k)
			if err != nil {
				t.Fatal(err)
			}
			want, wst, err := exactNearest(bg(eng), sc.P, sc.q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s ONN k=%d: %d results, exact %d", sc.name, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s ONN k=%d rank %d: %+v, exact %+v", sc.name, k, i, got[i], want[i])
				}
			}
			checkNoDearer(t, sc.name+" ONN", k, gst, wst)

			gp, gst, err := bg(eng).ClosestPairs(sc.S, sc.P, k)
			if err != nil {
				t.Fatal(err)
			}
			wp, wst, err := exactClosestPairs(bg(eng), sc.S, sc.P, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(gp) != len(wp) {
				t.Fatalf("%s OCP k=%d: %d results, exact %d", sc.name, k, len(gp), len(wp))
			}
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("%s OCP k=%d rank %d: %+v, exact %+v", sc.name, k, i, gp[i], wp[i])
				}
			}
			checkNoDearer(t, sc.name+" OCP", k, gst, wst)
			settled, exactSettled = settled+gst.SettledNodes, exactSettled+wst.SettledNodes
		}
		t.Logf("%s: %d settled nodes over every k and both verbs, %d measuring every candidate", sc.name, settled, exactSettled)
	}
	t.Run("wall", candidateBehindWall)
}

// checkNoDearer compares a bounded run's stats with the exact run's over the
// same candidate stream: the same candidates and results, and no more
// obstacle-tree reads (logical, so page-buffer history does not enter; the
// data-tree reads of the two runs are the same stream's) or settled nodes.
func checkNoDearer(t *testing.T, verb string, k int, got, exact Stats) {
	t.Helper()
	if got.Candidates != exact.Candidates || got.Results != exact.Results {
		t.Errorf("%s k=%d: %d candidates, %d results; exact %d, %d", verb, k, got.Candidates, got.Results, exact.Candidates, exact.Results)
	}
	if got.IO.LogicalReads > exact.IO.LogicalReads || got.SettledNodes > exact.SettledNodes {
		t.Errorf("%s k=%d: %d page reads and %d settled nodes; exact %d and %d", verb, k,
			got.IO.LogicalReads, got.SettledNodes, exact.IO.LogicalReads, exact.SettledNodes)
	}
}

// candidateBehindWall: a candidate whose Euclidean distance is within the
// running k-th distance but whose way around a long wall is far longer is
// rejected on the graph the seeds left, with no enlargement, where measuring
// it exactly enlarges the range to the wall's end.
func candidateBehindWall(t *testing.T) {
	polys := []geom.Polygon{
		geom.RectPolygon(geom.R(-300, -6, 300, -5)), // the long wall, under q
		geom.RectPolygon(geom.R(4, -2, 5, 2)),       // a short one, between q and the k-th seed
	}
	// Obstacles out past the wall's ends, so an enlargement has pages to read.
	for i := 0; i < 40; i++ {
		x := -400 + 20*float64(i)
		polys = append(polys, geom.RectPolygon(geom.R(x, 200, x+5, 205)))
	}
	obst, err := NewObstacleSet(testTreeOpts(), polys, true)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(obst, DefaultEngineOptions())
	q := geom.Pt(0, 0)
	// The seeds at k = 3: two in plain sight and the k-th, (7, 0), behind the
	// short obstacle at about 8.3; the fourth candidate, (0, -8), is closer
	// than that in Euclidean terms, but under the wall; (30, 30) ends the
	// stream.
	seeds := []geom.Point{geom.Pt(3, 0), geom.Pt(0, 4), geom.Pt(7, 0), geom.Pt(30, 30)}
	behind := geom.Pt(0, -8)
	grows := func(run func(s *Session) []Result) (int, []Result) {
		s := bg(eng)
		root := telemetry.NewTrace().Root("query")
		s.SetSpan(root)
		res := run(s)
		root.End()
		n := 0
		for _, sp := range root.Trace().Snapshot().Spans[0].Children {
			if sp.Name == "graph-grow" {
				n++
			}
		}
		return n, res
	}
	for _, exact := range []bool{false, true} {
		counts := [2]int{}
		for i, pts := range [][]geom.Point{seeds, append(seeds[:len(seeds):len(seeds)], behind)} {
			P, err := NewPointSet(testTreeOpts(), pts, true)
			if err != nil {
				t.Fatal(err)
			}
			n, res := grows(func(s *Session) []Result {
				nn := s.NearestNeighbors
				if exact {
					nn = func(P *PointSet, q geom.Point, k int) ([]Result, Stats, error) { return exactNearest(s, P, q, k) }
				}
				res, _, err := nn(P, q, 3)
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
			if len(res) != 3 || res[2].ID != 2 || res[2].Dist < 8 || res[2].Dist > 8.5 {
				t.Fatalf("exact=%v with %d entities: %+v; want the third seed third at about 8.3", exact, len(pts), res)
			}
			counts[i] = n
		}
		if !exact && counts[1] != counts[0] {
			t.Errorf("bounded: the candidate behind the wall cost %d enlargements", counts[1]-counts[0])
		}
		if exact && counts[1] <= counts[0] {
			t.Errorf("exact: the candidate behind the wall cost no enlargement (%d vs %d); the scene does not test anything", counts[1], counts[0])
		}
	}
}

// buriedScene holds every case the buried check must decide like the point
// query: a plain rectangle, two rectangles touching at one corner, two
// sharing an edge, and two overlapping.
var buriedScene = []geom.Rect{
	geom.R(10, 10, 20, 20),
	geom.R(30, 10, 40, 20), geom.R(40, 20, 50, 30), // touch at (40, 20)
	geom.R(30, 20, 40, 30),                         // shares the edge y = 20 with the second
	geom.R(60, 10, 75, 25), geom.R(70, 15, 85, 30), // overlap in (70..75, 15..25)
}

// buriedProbes are points strictly inside, on an edge, on a shared corner or
// edge, inside an overlap, and just outside.
var buriedProbes = []geom.Point{
	{X: 15, Y: 15}, {X: 10.001, Y: 15}, // strictly inside
	{X: 10, Y: 15}, {X: 15, Y: 20}, {X: 20, Y: 12}, // on an edge
	{X: 40, Y: 20}, {X: 35, Y: 20}, {X: 40, Y: 25}, // shared corner, shared edges
	{X: 72, Y: 20}, {X: 62, Y: 12}, {X: 80, Y: 28}, {X: 75, Y: 15}, // overlap, either side, corners inside the other
	{X: 9.999, Y: 15}, {X: 20.000001, Y: 15}, {X: 15, Y: 9.99}, {X: 50.01, Y: 25}, // just outside
}

// TestBuriedMatchesPointQuery: Graph.Inside and field.buried decide every
// probe as Session.InsideObstacle does — inside the scanned disk from the
// field's own obstacles (scan result or graph) at no point-query
// read, outside it through the point query.
func TestBuriedMatchesPointQuery(t *testing.T) {
	polys := make([]geom.Polygon, len(buriedScene))
	obs := make([]visgraph.Obstacle, len(buriedScene))
	for i, r := range buriedScene {
		polys[i] = geom.RectPolygon(r)
		obs[i] = visgraph.Obstacle{ID: int64(i), Poly: polys[i]}
	}
	obst, err := NewObstacleSet(testTreeOpts(), polys, true)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(obst, DefaultEngineOptions())
	g := visgraph.Build(visgraph.Options{UseSweep: true}, obs)
	far := geom.Pt(500, 500) // a center whose small disk holds none of the probes
	for _, p := range buriedProbes {
		want, err := bg(eng).InsideObstacle(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Inside(p); got != want {
			t.Errorf("Graph.Inside(%v) = %v, point query %v", p, got, want)
		}
		for _, c := range []struct {
			name     string
			center   geom.Point
			r        float64
			attach   bool
			pointQry bool // the probe is outside the scanned disk
		}{
			{"scan", geom.Pt(45, 20), 45, false, false},
			{"graph", geom.Pt(45, 20), 45, true, false},
			{"scan, probe outside", far, 5, false, true},
			{"graph, probe outside", far, 5, true, true},
		} {
			s := bg(eng)
			var st Stats
			f := s.newField(c.center, c.r, &st)
			if err := f.scan(); err != nil {
				t.Fatal(err)
			}
			if c.attach {
				if err := f.attach(); err != nil {
					t.Fatal(err)
				}
			}
			before := s.obstIO[obstPointQuery].LogicalReads
			got, err := f.buried(p)
			f.close()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s: buried(%v) = %v, point query %v", c.name, p, got, want)
			}
			if asked := s.obstIO[obstPointQuery].LogicalReads > before; asked != c.pointQry {
				t.Errorf("%s: buried(%v) asked the R-tree: %v, want %v", c.name, p, asked, c.pointQry)
			}
		}
	}
}

// TestObstacleReadsSumToObstacleIO: the split of Stats.ObstReads accounts
// for every obstacle-tree page access of every verb — the three parts sum to
// the obstacle tree's share of Stats.IO — and ONN decides its query point
// from its opening scan, with no point query.
func TestObstacleReadsSumToObstacleIO(t *testing.T) {
	world := dataset.Generate(dataset.Config{Seed: 9, Universe: 2000, Obstacles: 300, Hotspots: 2, HotspotFraction: 0.5, MaxRunBlocks: 4})
	obst, err := NewObstacleSet(testTreeOpts(), world.Polys, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := world.EntityRand(3)
	P, err := NewPointSet(testTreeOpts(), world.Entities(rng, 200), true)
	if err != nil {
		t.Fatal(err)
	}
	S, err := NewPointSet(testTreeOpts(), world.Entities(rng, 20), true)
	if err != nil {
		t.Fatal(err)
	}
	qs := world.Queries(rng, 4)
	{
		eng := NewEngine(obst, DefaultEngineOptions())
		verbs := map[string]func(s *Session, q geom.Point) (Stats, error){
			"Range": func(s *Session, q geom.Point) (Stats, error) {
				_, st, err := s.Range(P, q, 150)
				return st, err
			},
			"NearestNeighbors": func(s *Session, q geom.Point) (Stats, error) {
				_, st, err := s.NearestNeighbors(P, q, 16)
				return st, err
			},
			"NearestIterator": func(s *Session, q geom.Point) (Stats, error) {
				it := s.NearestIterator(P, q)
				for i := 0; i < 8; i++ {
					it.Next()
				}
				return it.Stats(), it.Err()
			},
			"ClosestPairs": func(s *Session, _ geom.Point) (Stats, error) {
				_, st, err := s.ClosestPairs(S, P, 8)
				return st, err
			},
			"DistanceJoin": func(s *Session, _ geom.Point) (Stats, error) {
				_, st, err := s.DistanceJoin(S, P, 60)
				return st, err
			},
			"ObstructedDistance": func(s *Session, q geom.Point) (Stats, error) {
				_, st, err := s.ObstructedDistance(q, qs[0])
				return st, err
			},
			"BatchDistances": func(s *Session, q geom.Point) (Stats, error) {
				_, st, err := s.BatchDistances(q, append(qs, q))
				return st, err
			},
		}
		for name, run := range verbs {
			for _, q := range qs {
				obstBefore := obst.Tree().PageFile().Stats().PhysicalReads
				dataBefore := P.Tree().PageFile().Stats().PhysicalReads + S.Tree().PageFile().Stats().PhysicalReads
				s := bg(eng)
				st, err := run(s, q)
				if err != nil {
					t.Fatal(err)
				}
				obstReads := obst.Tree().PageFile().Stats().PhysicalReads - obstBefore
				dataReads := P.Tree().PageFile().Stats().PhysicalReads + S.Tree().PageFile().Stats().PhysicalReads - dataBefore
				split := st.ObstReads.PointQuery + st.ObstReads.Scan + st.ObstReads.Enlarge
				if split != obstReads || st.IO.PhysicalReads-dataReads != obstReads {
					t.Errorf("%s(%v): split %+v sums to %d; the obstacle tree read %d, Stats.IO %d less %d data pages",
						name, q, st.ObstReads, split, obstReads, st.IO.PhysicalReads, dataReads)
				}
				if got := s.obstIO[obstPointQuery].LogicalReads; name == "NearestNeighbors" && got != 0 {
					t.Errorf("ONN(%v): %d point-query reads over %d candidates, want none", q, got, st.Candidates)
				}
			}
		}
	}
}
