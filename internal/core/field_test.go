package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// courtyardWorld is 600 street rectangles with a walled courtyard (four walls
// overlapping at the corners) cut into them at (4000, 4000)-(4200, 4200), a
// query point just outside its south wall, up to eight entities inside it —
// sealed off, not buried — and forty reachable entities, all of them farther
// from q than the sealed ones.
func courtyardWorld(t *testing.T) (obst *ObstacleSet, q geom.Point, sealed, reachable []geom.Point) {
	t.Helper()
	world := dataset.Generate(dataset.DefaultConfig(7, 600))
	yard := geom.R(4000, 4000, 4200, 4200)
	polys := []geom.Polygon{
		geom.RectPolygon(geom.R(4000, 4000, 4200, 4010)),
		geom.RectPolygon(geom.R(4000, 4190, 4200, 4200)),
		geom.RectPolygon(geom.R(4000, 4000, 4010, 4200)),
		geom.RectPolygon(geom.R(4190, 4000, 4200, 4200)),
	}
	for i, r := range world.Rects {
		if !r.Intersects(yard.Expand(20)) {
			polys = append(polys, world.Polys[i])
		}
	}
	obst, err := NewObstacleSet(testTreeOpts(), polys, true)
	if err != nil {
		t.Fatal(err)
	}
	q = geom.Pt(4100, 3990)
	for i := 0; i < 8; i++ {
		sealed = append(sealed, geom.Pt(4100, 4050+10*float64(i)))
	}
	rng := world.EntityRand(3)
	for len(reachable) < 40 {
		if p := world.BoundaryPoint(rng); p.Dist(q) > 300 && !yard.Expand(20).Contains(p) {
			reachable = append(reachable, p)
		}
	}
	return obst, q, sealed, reachable
}

// TestSealedCandidatesProvedOnce: proving the first sealed-off candidate
// unreachable takes obstacle range scans out to the radius that covers every
// obstacle, and the graph then holds them all. Every further sealed candidate
// of the same source is one more search on that graph: it may add its own
// InsideObstacle point query to the obstacle tree's reads and nothing else.
func TestSealedCandidatesProvedOnce(t *testing.T) {
	obst, q, sealed, reachable := courtyardWorld(t)
	eng := NewEngine(obst, DefaultEngineOptions())
	S, err := NewPointSet(testTreeOpts(), []geom.Point{q}, true)
	if err != nil {
		t.Fatal(err)
	}
	reads := func() uint64 { return obst.Tree().PageFile().Stats().LogicalReads }
	verbs := []struct {
		name string
		run  func(P *PointSet) (Stats, float64)
	}{
		{"NearestNeighbors", func(P *PointSet) (Stats, float64) {
			res, st, err := bg(eng).NearestNeighbors(P, q, 1)
			if err != nil || len(res) != 1 {
				t.Fatal(res, err)
			}
			return st, res[0].Dist
		}},
		{"NearestIterator", func(P *PointSet) (Stats, float64) {
			it := bg(eng).NearestIterator(P, q)
			r, ok := it.Next()
			if !ok {
				t.Fatal(it.Err())
			}
			return it.Stats(), r.Dist
		}},
		{"ClosestPairs", func(P *PointSet) (Stats, float64) {
			res, st, err := bg(eng).ClosestPairs(S, P, 1)
			if err != nil || len(res) != 1 {
				t.Fatal(res, err)
			}
			return st, res[0].Dist
		}},
	}
	for _, v := range verbs {
		var prevReads, prevSearches uint64
		var first float64
		for n := 1; n <= len(sealed); n++ {
			c := sealed[n-1]
			before := reads()
			if inside, err := bg(eng).InsideObstacle(c); err != nil || inside {
				t.Fatalf("courtyard entity %v: inside=%v err=%v; want sealed off, not buried", c, inside, err)
			}
			pointQuery := reads() - before

			P, err := NewPointSet(testTreeOpts(), append(append([]geom.Point(nil), sealed[:n]...), reachable...), true)
			if err != nil {
				t.Fatal(err)
			}
			before = reads()
			st, d := v.run(P)
			cost := reads() - before
			if math.IsInf(d, 1) || st.Candidates <= n {
				t.Fatalf("%s with %d sealed: nearest at %v after %d candidates; want a reachable entity behind the sealed ones", v.name, n, d, st.Candidates)
			}
			if n == 1 {
				first = d
			} else {
				if d != first {
					t.Errorf("%s with %d sealed: nearest at %v, with one %v", v.name, n, d, first)
				}
				if cost > prevReads+pointQuery || st.Expansions > prevSearches+1 {
					t.Errorf("%s: sealed candidate %d cost %d obstacle-tree reads and %d searches; want at most its point query (%d reads) and one search",
						v.name, n, cost-prevReads, st.Expansions-prevSearches, pointQuery)
				}
			}
			prevReads, prevSearches = cost, st.Expansions
		}
	}
}
