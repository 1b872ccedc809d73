package visgraph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func rectObstacle(id int64, r geom.Rect) Obstacle {
	return Obstacle{ID: id, Poly: geom.RectPolygon(r)}
}

// disjointRects generates n pairwise-disjoint rectangles in [0,size]^2.
func disjointRects(rng *rand.Rand, n int, size float64) []geom.Rect {
	var out []geom.Rect
	for attempts := 0; len(out) < n && attempts < n*200; attempts++ {
		x, y := rng.Float64()*size, rng.Float64()*size
		w, h := rng.Float64()*size/8+1, rng.Float64()*size/8+1
		r := geom.R(x, y, x+w, y+h)
		ok := true
		for _, o := range out {
			if o.Expand(geom.Eps * 10).Intersects(r) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

// freePoint samples a point not strictly inside any rectangle.
func freePoint(rng *rand.Rand, rects []geom.Rect, size float64) geom.Point {
	for {
		p := geom.Pt(rng.Float64()*size, rng.Float64()*size)
		inside := false
		for _, r := range rects {
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

func buildWith(useSweep bool, rects []geom.Rect) *Graph {
	obs := make([]Obstacle, len(rects))
	for i, r := range rects {
		obs[i] = rectObstacle(int64(i), r)
	}
	return Build(Options{UseSweep: useSweep}, obs)
}

func TestNoObstaclesDirectDistance(t *testing.T) {
	for _, sweep := range []bool{false, true} {
		g := Build(Options{UseSweep: sweep}, nil)
		a := g.AddTerminal(geom.Pt(0, 0))
		b := g.AddTerminal(geom.Pt(3, 4))
		if d := g.ObstructedDist(a, b); math.Abs(d-5) > 1e-9 {
			t.Errorf("sweep=%v: dist = %v, want 5", sweep, d)
		}
	}
}

func TestSingleRectangleDetour(t *testing.T) {
	// Points on either side of a unit-height wall: shortest path rounds a
	// corner. Wall from (2,0)-(3,10); a=(0,5), b=(5,5).
	// Direct distance 5 is blocked; path over the top corner (2,10),(3,10):
	// dist = |a-(2,10)| + 1 + |(3,10)-b|.
	for _, sweep := range []bool{false, true} {
		g := buildWith(sweep, []geom.Rect{geom.R(2, 0, 3, 10)})
		a := g.AddTerminal(geom.Pt(0, 5))
		b := g.AddTerminal(geom.Pt(5, 5))
		want := geom.Pt(0, 5).Dist(geom.Pt(2, 10)) + 1 + geom.Pt(3, 10).Dist(geom.Pt(5, 5))
		if d := g.ObstructedDist(a, b); math.Abs(d-want) > 1e-9 {
			t.Errorf("sweep=%v: dist = %v, want %v", sweep, d, want)
		}
	}
}

func TestEntityOnObstacleBoundary(t *testing.T) {
	// Entities on the boundary of the obstacle itself, as the paper's
	// datasets have. The path between two entities on opposite edges rounds
	// the nearest corner.
	for _, sweep := range []bool{false, true} {
		g := buildWith(sweep, []geom.Rect{geom.R(0, 0, 4, 2)})
		a := g.AddTerminal(geom.Pt(0, 1)) // left edge
		b := g.AddTerminal(geom.Pt(4, 1)) // right edge
		want := 1 + 4 + 1.0               // around (0,0),(4,0) or (0,2),(4,2)
		if d := g.ObstructedDist(a, b); math.Abs(d-want) > 1e-9 {
			t.Errorf("sweep=%v: boundary dist = %v, want %v", sweep, d, want)
		}
	}
}

func TestUnreachableEnclosed(t *testing.T) {
	// Four overlapping walls sealing the origin region. (Overlapping
	// obstacles violate the plane sweep's ordering assumptions, so this
	// scene uses the naive oracle — the mode a caller with overlapping data
	// would pick.)
	walls := []geom.Rect{
		geom.R(-3, -3, 3, -2), // bottom
		geom.R(-3, 2, 3, 3),   // top
		geom.R(-3, -3, -2, 3), // left, overlapping both
		geom.R(2, -3, 3, 3),   // right, overlapping both
	}
	g := buildWith(false, walls)
	in := g.AddTerminal(geom.Pt(0, 0))
	out := g.AddTerminal(geom.Pt(10, 10))
	if d := g.ObstructedDist(in, out); !math.IsInf(d, 1) {
		t.Errorf("enclosed dist = %v, want +Inf", d)
	}
	// Obstructed distance is infinite but the Euclidean one is not: exactly
	// the situation that makes ONN's dEmax bound unusable until some
	// reachable neighbor is found.
}

func TestTouchingWallsLeaveSeam(t *testing.T) {
	// Walls that merely touch (share boundary segments) do NOT seal the
	// region: the obstructed metric forbids crossing interiors, and a path
	// may slide along the shared boundary. This documents the open-interior
	// semantics.
	walls := []geom.Rect{
		geom.R(-3, -3, 3, -2), // bottom
		geom.R(-3, 2, 3, 3),   // top
		geom.R(-3, -2, -2, 2), // left, touching both
		geom.R(2, -2, 3, 2),   // right, touching both
	}
	g := buildWith(false, walls)
	in := g.AddTerminal(geom.Pt(0, 0))
	out := g.AddTerminal(geom.Pt(10, 10))
	if d := g.ObstructedDist(in, out); math.IsInf(d, 1) {
		t.Error("touching walls should leave a seam path")
	}
}

func TestConcaveObstacle(t *testing.T) {
	// U-shaped obstacle opening upward; path from inside the cavity to below
	// must climb out and around.
	u := geom.MustPolygon([]geom.Point{
		{X: 0, Y: 0}, {X: 6, Y: 0}, {X: 6, Y: 6}, {X: 4, Y: 6},
		{X: 4, Y: 2}, {X: 2, Y: 2}, {X: 2, Y: 6}, {X: 0, Y: 6},
	})
	for _, sweep := range []bool{false, true} {
		g := Build(Options{UseSweep: sweep}, []Obstacle{{ID: 1, Poly: u}})
		in := g.AddTerminal(geom.Pt(3, 4))   // inside cavity
		out := g.AddTerminal(geom.Pt(3, -2)) // below the U
		d := g.ObstructedDist(in, out)
		// Path must exit over (2,6) or (4,6): length >= 2 (to rim) and the
		// direct distance 6 must be exceeded substantially.
		if d < 10 {
			t.Errorf("sweep=%v: cavity dist = %v, suspiciously short", sweep, d)
		}
		if math.IsInf(d, 1) {
			t.Errorf("sweep=%v: cavity should be reachable", sweep)
		}
	}
}

func TestEuclideanLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rects := disjointRects(rng, 12, 100)
	for _, sweep := range []bool{false, true} {
		g := buildWith(sweep, rects)
		for i := 0; i < 20; i++ {
			a := freePoint(rng, rects, 100)
			b := freePoint(rng, rects, 100)
			na := g.AddTerminal(a)
			nb := g.AddTerminal(b)
			if d := g.ObstructedDist(na, nb); d < a.Dist(b)-1e-9 {
				t.Fatalf("sweep=%v: dO(%v,%v)=%v < dE=%v", sweep, a, b, d, a.Dist(b))
			}
			g.DeleteEntity(na)
			g.DeleteEntity(nb)
		}
	}
}

// TestSweepMatchesNaiveDistances is the core property test: on random
// scenes, the sweep-built and naive-built graphs must induce identical
// shortest-path distances (edge sets may differ on zero-length grazes).
func TestSweepMatchesNaiveDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for scene := 0; scene < 40; scene++ {
		rects := disjointRects(rng, 3+rng.Intn(10), 100)
		gn := buildWith(false, rects)
		gs := buildWith(true, rects)
		var pts []geom.Point
		for i := 0; i < 6; i++ {
			pts = append(pts, freePoint(rng, rects, 100))
		}
		var nn, ns []NodeID
		for _, p := range pts {
			nn = append(nn, gn.AddTerminal(p))
			ns = append(ns, gs.AddTerminal(p))
		}
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				dn := gn.ObstructedDist(nn[i], nn[j])
				ds := gs.ObstructedDist(ns[i], ns[j])
				if math.Abs(dn-ds) > 1e-6 && !(math.IsInf(dn, 1) && math.IsInf(ds, 1)) {
					t.Fatalf("scene %d: dist(%v,%v) naive=%v sweep=%v",
						scene, pts[i], pts[j], dn, ds)
				}
			}
		}
	}
}

// TestSweepEdgesAreTrulyVisible ensures the sweep never reports a blocked
// pair as visible (no false positives), validated by the naive oracle.
func TestSweepEdgesAreTrulyVisible(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for scene := 0; scene < 30; scene++ {
		rects := disjointRects(rng, 3+rng.Intn(8), 100)
		g := buildWith(true, rects)
		for i := 0; i < 4; i++ {
			g.AddTerminal(freePoint(rng, rects, 100))
		}
		materialise(g)
		if g.NumEdges() == 0 {
			t.Fatalf("scene %d: no edges to check", scene)
		}
		for u := range g.nodes {
			if !g.nodes[u].alive {
				continue
			}
			for _, he := range g.nodes[u].adj {
				if NodeID(u) > he.To {
					continue
				}
				if !g.Visible(g.nodes[u].pt, g.nodes[he.To].pt) {
					t.Fatalf("scene %d: sweep edge %v-%v crosses an obstacle",
						scene, g.nodes[u].pt, g.nodes[he.To].pt)
				}
			}
		}
	}
}

// TestSweepWithBoundaryEntities stresses the axis-aligned collinear cases:
// entities placed exactly on rectangle edges (as the paper's generator
// does), where sweep rays pass collinearly through corners.
func TestSweepWithBoundaryEntities(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for scene := 0; scene < 30; scene++ {
		rects := disjointRects(rng, 2+rng.Intn(8), 100)
		gn := buildWith(false, rects)
		gs := buildWith(true, rects)
		var pts []geom.Point
		for _, r := range rects[:2] {
			// One point on each of two edges of the rectangle.
			pts = append(pts,
				geom.Pt(r.MinX, r.MinY+rng.Float64()*(r.MaxY-r.MinY)),
				geom.Pt(r.MinX+rng.Float64()*(r.MaxX-r.MinX), r.MaxY))
		}
		var nn, ns []NodeID
		for _, p := range pts {
			nn = append(nn, gn.AddTerminal(p))
			ns = append(ns, gs.AddTerminal(p))
		}
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				dn := gn.ObstructedDist(nn[i], nn[j])
				ds := gs.ObstructedDist(ns[i], ns[j])
				if math.Abs(dn-ds) > 1e-6 {
					t.Fatalf("scene %d: boundary dist %d-%d naive=%v sweep=%v",
						scene, i, j, dn, ds)
				}
			}
		}
	}
}

func TestAddObstacleUpdatesDistances(t *testing.T) {
	for _, sweep := range []bool{false, true} {
		// Start with an empty graph, then grow it; after each addition the
		// distance must equal a fresh batch-built graph's distance.
		rng := rand.New(rand.NewSource(25))
		rects := disjointRects(rng, 8, 100)
		a := freePoint(rng, rects, 100)
		b := freePoint(rng, rects, 100)

		g := Build(Options{UseSweep: sweep}, nil)
		na := g.AddTerminal(a)
		nb := g.AddTerminal(b)
		for i, r := range rects {
			if g.AddObstacles([]Obstacle{{ID: int64(i), Poly: geom.RectPolygon(r)}}) != 1 {
				t.Fatalf("AddObstacles(%d) reported duplicate", i)
			}
			fresh := buildWith(sweep, rects[:i+1])
			fa := fresh.AddTerminal(a)
			fb := fresh.AddTerminal(b)
			dg := g.ObstructedDist(na, nb)
			df := fresh.ObstructedDist(fa, fb)
			if math.Abs(dg-df) > 1e-6 && !(math.IsInf(dg, 1) && math.IsInf(df, 1)) {
				t.Fatalf("sweep=%v: after obstacle %d: incremental=%v fresh=%v", sweep, i, dg, df)
			}
		}
		// Duplicate addition is a no-op.
		if g.AddObstacles([]Obstacle{{ID: 0, Poly: geom.RectPolygon(rects[0])}}) != 0 {
			t.Error("duplicate obstacle accepted")
		}
		if !g.HasObstacle(0) || g.HasObstacle(999) {
			t.Error("HasObstacle wrong")
		}
	}
}

func TestDeleteEntityRestoresGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	rects := disjointRects(rng, 6, 100)
	g := buildWith(true, rects)
	materialise(g)
	nodesBefore := g.NumNodes()
	edgesBefore := g.NumEdges()
	for i := 0; i < 10; i++ {
		p := freePoint(rng, rects, 100)
		id := g.AddEntity(p)
		g.DeleteEntity(id)
		if g.NumNodes() != nodesBefore || g.NumEdges() != edgesBefore {
			t.Fatalf("iter %d: nodes %d->%d edges %d->%d", i,
				nodesBefore, g.NumNodes(), edgesBefore, g.NumEdges())
		}
	}
	// Deleting a vertex node is refused.
	g.DeleteEntity(NodeID(0))
	if g.NumNodes() != nodesBefore {
		t.Error("vertex node deleted")
	}
}

func TestEntityEntityEdgesSkipped(t *testing.T) {
	g := buildWith(true, []geom.Rect{geom.R(10, 10, 12, 12)})
	p1, p2 := geom.Pt(0, 0), geom.Pt(1, 1)
	e1 := g.AddEntity(p1)
	e2 := g.AddEntity(p2)
	// With nothing between them, only a direct edge could make the two
	// entities as close as their Euclidean distance; any other route bends
	// at a far obstacle corner.
	if d := g.ObstructedDist(e1, e2); d < p1.Dist(p2)+1 {
		t.Errorf("entity-entity edge created: distance %v", d)
	}
	// Terminals do connect to entities.
	qp := geom.Pt(0, 1)
	q := g.AddTerminal(qp)
	if d := g.ObstructedDist(q, e1); !distEq(d, qp.Dist(p1)) {
		t.Errorf("terminal not connected to entity: distance %v", d)
	}
}

func TestShortestPathConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	rects := disjointRects(rng, 10, 100)
	g := buildWith(true, rects)
	for i := 0; i < 15; i++ {
		a := g.AddTerminal(freePoint(rng, rects, 100))
		b := g.AddTerminal(freePoint(rng, rects, 100))
		path, d := g.ShortestPath(a, b)
		if math.IsInf(d, 1) {
			if path != nil {
				t.Fatal("unreachable but path non-nil")
			}
			continue
		}
		if path[0] != a || path[len(path)-1] != b {
			t.Fatal("path endpoints wrong")
		}
		sum := 0.0
		for j := 1; j < len(path); j++ {
			pa, pb := g.Point(path[j-1]), g.Point(path[j])
			if !g.Visible(pa, pb) {
				t.Fatalf("path segment %v-%v blocked", pa, pb)
			}
			sum += pa.Dist(pb)
		}
		if math.Abs(sum-d) > 1e-9 {
			t.Fatalf("path length %v != dist %v", sum, d)
		}
		if d2 := g.ObstructedDist(a, b); math.Abs(d-d2) > 1e-9 {
			t.Fatalf("ShortestPath dist %v != ObstructedDist %v", d, d2)
		}
		g.DeleteEntity(a)
		g.DeleteEntity(b)
	}
}

func TestExpandOrderAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	rects := disjointRects(rng, 8, 100)
	g := buildWith(true, rects)
	src := g.AddTerminal(freePoint(rng, rects, 100))
	prev := -1.0
	var dists []float64
	g.Expand(src, 60, func(n NodeID, d float64) bool {
		if d < prev {
			t.Fatalf("Expand out of order: %v after %v", d, prev)
		}
		if d > 60+1e-9 {
			t.Fatalf("Expand exceeded bound: %v", d)
		}
		prev = d
		dists = append(dists, d)
		return true
	})
	if len(dists) == 0 {
		t.Fatal("Expand visited nothing")
	}
	// Early stop.
	count := 0
	g.Expand(src, math.Inf(1), func(NodeID, float64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop at %d", count)
	}
}

func TestSelfDistanceZero(t *testing.T) {
	g := buildWith(true, []geom.Rect{geom.R(0, 0, 1, 1)})
	a := g.AddTerminal(geom.Pt(5, 5))
	if d := g.ObstructedDist(a, a); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	path, d := g.ShortestPath(a, a)
	if d != 0 || len(path) != 1 {
		t.Errorf("self path = %v, %v", path, d)
	}
}

func TestCoincidentPoints(t *testing.T) {
	for _, sweep := range []bool{false, true} {
		g := buildWith(sweep, []geom.Rect{geom.R(10, 10, 12, 12)})
		p := geom.Pt(3, 3)
		a := g.AddTerminal(p)
		b := g.AddTerminal(p)
		if d := g.ObstructedDist(a, b); d > 1e-9 {
			t.Errorf("sweep=%v: coincident terminals dist = %v", sweep, d)
		}
	}
}

func TestEntityAtObstacleCorner(t *testing.T) {
	for _, sweep := range []bool{false, true} {
		g := buildWith(sweep, []geom.Rect{geom.R(2, 2, 4, 4)})
		a := g.AddTerminal(geom.Pt(2, 2)) // exactly at a corner
		b := g.AddTerminal(geom.Pt(0, 0))
		want := geom.Pt(2, 2).Dist(geom.Pt(0, 0))
		if d := g.ObstructedDist(a, b); math.Abs(d-want) > 1e-9 {
			t.Errorf("sweep=%v: corner entity dist = %v, want %v", sweep, d, want)
		}
	}
}

// TestBitangentKeepsShortestPaths: on the degenerate configurations street
// data is made of, the pruned production graph and the unpruned reference
// graph agree on every terminal-to-terminal distance. Terminals sit on every
// vertex, on every side's midpoint and at a few free points.
func TestBitangentKeepsShortestPaths(t *testing.T) {
	rects := func(rs ...geom.Rect) []geom.Polygon {
		out := make([]geom.Polygon, len(rs))
		for i, r := range rs {
			out[i] = geom.RectPolygon(r)
		}
		return out
	}
	var checkerboard []geom.Rect
	for i := 0; i < 4; i++ {
		for j := i % 2; j < 4; j += 2 {
			checkerboard = append(checkerboard, geom.R(10*float64(i), 10*float64(j), 10*float64(i+1), 10*float64(j+1)))
		}
	}
	cases := []struct {
		name  string
		polys []geom.Polygon
		free  []geom.Point
	}{
		{"diagonal shared corners", rects(checkerboard...),
			[]geom.Point{{X: 15, Y: 5}, {X: 5, Y: 35}, {X: 35, Y: 25}, {X: 25, Y: 15}, {X: -5, Y: 45}, {X: 45, Y: -5}}},
		{"T-junction", rects(geom.R(0, 0, 30, 4), geom.R(13, 4, 17, 20)),
			[]geom.Point{{X: 5, Y: 10}, {X: 25, Y: 10}, {X: 15, Y: -5}, {X: 15, Y: 25}}},
		{"collinear end-to-end chain", rects(geom.R(0, 0, 10, 2), geom.R(10, 0, 20, 2), geom.R(20, 0, 30, 2), geom.R(30, 2, 32, 12)),
			[]geom.Point{{X: 5, Y: -4}, {X: 25, Y: 6}, {X: 40, Y: 1}, {X: -5, Y: 2}}},
		{"L-shaped reflex vertex", []geom.Polygon{geom.MustPolygon([]geom.Point{
			{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 20, Y: 8}, {X: 8, Y: 8}, {X: 8, Y: 20}, {X: 0, Y: 20}})},
			[]geom.Point{{X: 15, Y: 15}, {X: 12, Y: 30}, {X: 30, Y: 12}, {X: -3, Y: 10}, {X: 10, Y: -3}, {X: 25, Y: 25}}},
		{"coincident vertices", rects(geom.R(0, 0, 10, 5), geom.R(0, 5, 10, 10), geom.R(10, 10, 20, 20), geom.R(10, -6, 16, 0)),
			[]geom.Point{{X: 15, Y: 5}, {X: 5, Y: 15}, {X: -5, Y: 5}, {X: 25, Y: 15}, {X: 5, Y: -5}}},
	}
	for _, tc := range cases {
		var obs []Obstacle
		pts := tc.free
		for i, pg := range tc.polys {
			obs = append(obs, Obstacle{ID: int64(i), Poly: pg})
			for j := range pg.NumVertices() {
				e := pg.Edge(j)
				pts = append(pts, e.A, e.A.Add(e.B).Scale(0.5))
			}
		}
		// Two terminals at a time: a third could stand in for the vertex
		// node it sits on.
		pruned, full := Build(Options{UseSweep: true}, obs), Build(Options{UseSweep: false}, obs)
		dist := func(g *Graph, a, b geom.Point) float64 {
			na, nb := g.AddTerminal(a), g.AddTerminal(b)
			defer g.DeleteEntity(na)
			defer g.DeleteEntity(nb)
			return g.ObstructedDist(na, nb)
		}
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if got, want := dist(pruned, pts[i], pts[j]), dist(full, pts[i], pts[j]); got != want {
					t.Errorf("%s: dist(%v, %v) pruned %v, reference %v", tc.name, pts[i], pts[j], got, want)
				}
			}
		}
	}

	// On a street world the filter must actually drop edges.
	world := dataset.Generate(dataset.DefaultConfig(77, 120))
	obs := make([]Obstacle, len(world.Polys))
	for i, pg := range world.Polys {
		obs[i] = Obstacle{ID: int64(i), Poly: pg}
	}
	pruned, full := Build(Options{UseSweep: true}, obs), Build(Options{UseSweep: false}, obs)
	for _, p := range world.Entities(world.EntityRand(1), 12) {
		pruned.AddTerminal(p)
		full.AddTerminal(p)
	}
	materialise(pruned)
	materialise(full)
	if pruned.NumEdges() >= full.NumEdges() {
		t.Fatalf("street world: pruned graph has %d edges, reference %d", pruned.NumEdges(), full.NumEdges())
	}
	t.Logf("street world: %d of %d reference edges are bitangent", pruned.NumEdges(), full.NumEdges())
}
