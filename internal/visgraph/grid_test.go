package visgraph

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// checkGridAgainstLinear requires the grid walk and the linear reference to
// agree on the segment between every two probes, in both directions.
func checkGridAgainstLinear(t *testing.T, g *Graph, probes []geom.Point) {
	t.Helper()
	for _, a := range probes {
		for _, b := range probes {
			if got, want := g.Visible(a, b), g.visibleLinear(a, b); got != want {
				t.Fatalf("Visible(%v, %v) = %v through the grid (cell %g, %dx%d), %v by linear scan",
					a, b, got, g.grid.cell, g.grid.nx, g.grid.ny, want)
			}
		}
	}
}

// gridProbes returns the points a grid walk is most likely to get wrong: every
// obstacle corner, every crossing of two cell boundaries (so segments between
// them run along boundaries and through cell corners), points beyond each
// side of the grid's bounds, and some free points.
func gridProbes(rng *rand.Rand, g *Graph) []geom.Point {
	var probes []geom.Point
	for _, pg := range g.obstacles {
		probes = append(probes, pg.Vertices()...)
	}
	gr := &g.grid
	b := gr.bounds
	for i := 0; i <= gr.nx; i += 1 + gr.nx/4 {
		for j := 0; j <= gr.ny; j += 1 + gr.ny/4 {
			probes = append(probes, geom.Pt(b.MinX+float64(i)*gr.cell, b.MinY+float64(j)*gr.cell))
		}
	}
	w, h := b.Width()+1, b.Height()+1
	c := b.Center()
	probes = append(probes,
		geom.Pt(b.MinX-w, c.Y), geom.Pt(b.MaxX+w, c.Y), geom.Pt(c.X, b.MinY-h), geom.Pt(c.X, b.MaxY+h),
		geom.Pt(b.MinX-w, b.MinY-h), geom.Pt(b.MaxX+w, b.MaxY+h), geom.Pt(b.MinX-w, b.MinY), geom.Pt(b.MaxX, b.MaxY+h))
	for i := 0; i < 10; i++ {
		probes = append(probes, geom.Pt(b.MinX+rng.Float64()*w, b.MinY+rng.Float64()*h))
	}
	return probes
}

func TestGridNoObstacles(t *testing.T) {
	g := Build(Options{UseSweep: true}, nil)
	if !g.Visible(geom.Pt(0, 0), geom.Pt(10, 10)) || !g.Visible(geom.Pt(3, 3), geom.Pt(3, 3)) {
		t.Fatal("an empty graph blocks a segment")
	}
	if g.grid.cell != 0 {
		t.Fatal("an empty graph built a grid")
	}
	a, b := g.AddTerminal(geom.Pt(0, 0)), g.AddTerminal(geom.Pt(3, 4))
	if d := g.ObstructedDist(a, b); d != 5 {
		t.Fatalf("distance with no obstacles = %v, want 5", d)
	}
}

func TestGridSingleObstacle(t *testing.T) {
	g := buildWith(true, []geom.Rect{geom.R(0, 0, 10, 4)})
	probes := []geom.Point{
		{X: -5, Y: 2}, {X: 15, Y: 2}, {X: 5, Y: -3}, {X: 5, Y: 9}, // around
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 4}, {X: 0, Y: 4}, // corners
		{X: 5, Y: 0}, {X: 10, Y: 2}, {X: 5, Y: 4}, {X: 0, Y: 2}, // on the sides
		{X: -5, Y: 0}, {X: 15, Y: 4}, {X: 10, Y: 9}, // on the lines through the sides
		{X: 5, Y: 2}, // inside
	}
	checkGridAgainstLinear(t, g, probes)
	if g.Visible(probes[0], probes[1]) || !g.Visible(probes[4], probes[5]) {
		t.Fatal("one rectangle: straight through must be blocked, along a side visible")
	}
	if g.grid.nx*g.grid.ny > 4 {
		t.Fatalf("one obstacle got a %dx%d grid", g.grid.nx, g.grid.ny)
	}
}

// TestGridGrowth adds obstacles in batches that extend the grid in place,
// outgrow its bounds and double its count, and checks every state against the
// linear scan. Obstacle (i, j) is a small rectangle in cell (i, j) of a
// 10-unit lattice.
func TestGridGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	at := func(cells ...[2]int) []Obstacle {
		var out []Obstacle
		for _, c := range cells {
			x, y := 10*float64(c[0]), 10*float64(c[1])
			out = append(out, rectObstacle(int64(100*c[0]+c[1]), geom.R(x+2, y+2, x+7, y+6)))
		}
		return out
	}
	g := Build(Options{UseSweep: true}, at(
		[2]int{2, 2}, [2]int{5, 5}, [2]int{2, 5}, [2]int{5, 2}, [2]int{3, 3}, [2]int{4, 4}, [2]int{3, 4}, [2]int{4, 3}))
	check := func(what string, wantBuilt int) {
		t.Helper()
		g.Visible(geom.Pt(0, 0), geom.Pt(100, 100)) // builds the grid if it was dropped
		if g.grid.built != wantBuilt {
			t.Fatalf("%s: grid was last built for %d obstacles, want %d", what, g.grid.built, wantBuilt)
		}
		checkGridAgainstLinear(t, g, gridProbes(rng, g))
	}
	check("first build", 8)

	g.AddObstacles(at([2]int{3, 2}, [2]int{2, 3}, [2]int{4, 2}))
	if g.grid.cell == 0 {
		t.Fatal("a batch inside the bounds dropped the grid")
	}
	check("extended in place", 8)

	g.AddObstacles(at([2]int{0, 0}))
	if g.grid.cell != 0 {
		t.Fatal("a box outside the bounds left the grid in place")
	}
	check("rebuilt for new bounds", 12)

	// Grow without leaving the bounds until the count doubles.
	for i := 0; len(g.obstacles) < 23; i++ {
		if g.AddObstacles(at([2]int{i % 6, 1 + i/6})); g.grid.cell == 0 {
			t.Fatalf("the grid built for 12 was dropped at %d obstacles", len(g.obstacles))
		}
	}
	check("still the grid built for 12", 12)
	if g.AddObstacles(at([2]int{5, 4})); g.grid.cell != 0 {
		t.Fatal("the grid built for 12 survived the 24th obstacle")
	}
	check("rebuilt for a doubled count", 24)
}

// TestAddObstaclesRemovesBlockedEdges: growing a graph whose adjacency is
// materialised keeps exactly the edges no obstacle blocks, by the linear scan,
// whether the production pass walks each edge through the grid against the
// new obstacles or the reference pass tests every new polygon; batches inside
// the grid's bounds and past them both.
func TestAddObstaclesRemovesBlockedEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 10; trial++ {
		rects := disjointRects(rng, 40, 200)
		obs := make([]Obstacle, len(rects))
		for i, r := range rects {
			obs[i] = rectObstacle(int64(i), r)
		}
		// The far batch lies past the first batch's bounds, so the grid is
		// rebuilt for it.
		far := []Obstacle{rectObstacle(1000, geom.R(260, 260, 270, 290)), rectObstacle(1001, geom.R(-40, 90, -30, 120))}
		for _, production := range []bool{true, false} {
			g := Build(Options{UseSweep: production}, obs[:20])
			for i := 0; i < 4; i++ {
				g.AddTerminal(freePoint(rng, rects, 200))
			}
			materialise(g)
			type edge struct{ u, v NodeID }
			var before []edge
			for u := range g.nodes {
				for _, he := range g.nodes[u].adj {
					if NodeID(u) < he.To {
						before = append(before, edge{NodeID(u), he.To})
					}
				}
			}
			for i, batch := range [][]Obstacle{obs[20:], far} {
				g.AddObstacles(batch)
				kept := 0
				for _, e := range before {
					a, b := g.nodes[e.u].pt, g.nodes[e.v].pt
					has, back := hasEdge(g, e.u, e.v), hasEdge(g, e.v, e.u)
					if want := g.visibleLinear(a, b); has != want || back != has {
						t.Fatalf("trial %d production=%v batch %d: edge %v-%v kept %v at one end and %v at the other, visible by linear scan %v",
							trial, production, i, a, b, has, back, want)
					}
					if has {
						kept++
					}
				}
				if i == 0 && kept == len(before) || kept != g.NumEdges() {
					t.Fatalf("trial %d production=%v batch %d: %d of %d edges kept, the graph counts %d", trial, production, i, kept, len(before), g.NumEdges())
				}
			}
		}
	}
}

// hasEdge reports whether u's adjacency lists v.
func hasEdge(g *Graph, u, v NodeID) bool {
	return slices.ContainsFunc(g.nodes[u].adj, func(he HalfEdge) bool { return he.To == v })
}

// forget removes every edge at point u from both ends, leaving u alive, and
// makes it a point that arrived just now and has not passed, so that a test
// can run u's first pass again over every pair of its.
func forget(g *Graph, u NodeID) {
	n := &g.nodes[u]
	for _, he := range n.adj {
		g.dropHalf(he.To, u)
		g.numEdges--
	}
	n.adj = n.adj[:0]
	n.seen, n.cover, n.born = -1, -1, g.clock
	g.clock++
}

// TestGridStreetScene runs the probe set on touching, collinear street
// rectangles, where obstacle sides lie on cell boundaries.
func TestGridStreetScene(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := buildWith(true, streetRects(rng, 30))
	g.Visible(geom.Pt(0, 0), geom.Pt(1, 1))
	checkGridAgainstLinear(t, g, gridProbes(rng, g))
}

// TestPassAllocatesNothing: the grid, its stamps and the general clip's
// parameter buffer are reused, so a visibility test allocates nothing and a
// pass allocates only to grow adjacency arrays — none when it finds again the
// edges it had before they were unlinked.
func TestPassAllocatesNothing(t *testing.T) {
	g, a, b := bigGraph(t)
	pa, pb := g.Point(a), g.Point(b)
	if n := testing.AllocsPerRun(50, func() { g.Visible(pa, pb); g.Visible(pb, pa) }); n != 0 {
		t.Errorf("Visible allocates %v times per run", n)
	}
	var m Metrics
	g.opts.Metrics = &m
	if n := testing.AllocsPerRun(50, func() { forget(g, a); g.complete(a, math.Inf(1)) }); n != 0 {
		t.Errorf("a first pass over known edges allocates %v times per run on a %d-node graph", n, g.NumNodes())
	}
	if m.Sweeps == 0 {
		t.Error("the passes were not counted")
	}
}
