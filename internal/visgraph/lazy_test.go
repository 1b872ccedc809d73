package visgraph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// materialise completes every live node: the fully built visibility graph
// the paper constructs up front, which tests use as the reference for what
// lazy adjacency must converge to.
func materialise(g *Graph) {
	for id := range g.nodes {
		if g.nodes[id].alive {
			g.complete(NodeID(id))
		}
	}
}

// swept returns the nodes that have had their visibility pass.
func swept(g *Graph) map[NodeID]bool {
	out := make(map[NodeID]bool)
	for id := range g.nodes {
		if g.nodes[id].alive && g.nodes[id].seen >= 0 {
			out[NodeID(id)] = true
		}
	}
	return out
}

// TestBuildComputesNoVisibility: construction and growth create nodes only;
// the first search pays for the nodes it expands and no others.
func TestBuildComputesNoVisibility(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rects := disjointRects(rng, 30, 200)
	var m Metrics
	obs := make([]Obstacle, len(rects))
	for i, r := range rects {
		obs[i] = rectObstacle(int64(i), r)
	}
	g := Build(Options{UseSweep: true, Metrics: &m}, obs[:20])
	g.AddObstacles(obs[20:])
	if m.Sweeps != 0 || g.NumEdges() != 0 || g.NumNodes() != 4*len(rects) {
		t.Fatalf("after Build+AddObstacles: %d sweeps, %d edges, %d nodes; want 0, 0, %d",
			m.Sweeps, g.NumEdges(), g.NumNodes(), 4*len(rects))
	}
	a := g.AddTerminal(freePoint(rng, rects, 200))
	b := g.AddTerminal(freePoint(rng, rects, 200))
	if m.Sweeps != 2 {
		t.Fatalf("two terminals cost %d sweeps, want 2", m.Sweeps)
	}
	g.ObstructedDist(a, b)
	if got, want := m.Sweeps, uint64(len(swept(g))); got != want {
		t.Fatalf("%d sweeps for %d swept nodes", got, want)
	}
	// Each terminal cost its sweep when added and none when settled; every
	// vertex settled on the way was swept exactly once.
	if m.Sweeps != m.SettledNodes {
		t.Fatalf("%d sweeps, %d settled nodes", m.Sweeps, m.SettledNodes)
	}
	if int(m.Sweeps) >= g.NumNodes() {
		t.Fatalf("a point-to-point search swept all %d nodes", g.NumNodes())
	}
}

// TestGrowthNeverResweeps is the incremental-completion invariant on one
// shared graph, the shape ONN and the graph cache use: after AddObstacles, a
// second search sweeps only nodes no search had expanded before, brings the
// others up to date against the new vertices alone, and still finds the
// distance a fresh graph finds.
func TestGrowthNeverResweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		rects := disjointRects(rng, 24, 150)
		obs := make([]Obstacle, len(rects))
		for i, r := range rects {
			obs[i] = rectObstacle(int64(i), r)
		}
		var m Metrics
		g := Build(Options{UseSweep: true, Metrics: &m}, obs[:12])
		a := g.AddTerminal(freePoint(rng, rects, 150))
		b := g.AddTerminal(freePoint(rng, rects, 150))
		g.ObstructedDist(a, b)
		before, sweeps := swept(g), m.Sweeps

		g.AddObstacles(obs[12:])
		if m.Sweeps != sweeps {
			t.Fatalf("trial %d: AddObstacles swept %d nodes", trial, m.Sweeps-sweeps)
		}
		got := g.ObstructedDist(a, b)
		first := 0
		for n := range swept(g) {
			if !before[n] {
				first++
			}
		}
		if int(m.Sweeps-sweeps) != first {
			t.Fatalf("trial %d: second search made %d sweeps for %d first-time expansions",
				trial, m.Sweeps-sweeps, first)
		}
		if int(g.nodes[a].seen) != len(g.verts) {
			t.Fatalf("trial %d: source not brought up to date: seen %d of %d", trial, g.nodes[a].seen, len(g.verts))
		}
		fresh := Build(Options{UseSweep: false}, obs)
		want := fresh.ObstructedDist(fresh.AddTerminal(g.Point(a)), fresh.AddTerminal(g.Point(b)))
		if !distEq(got, want) {
			t.Fatalf("trial %d: grown graph %v, fresh graph %v", trial, got, want)
		}
	}
}

// bigGraph returns a materialised graph of at least 500 nodes and two
// terminals in it.
func bigGraph(tb testing.TB) (*Graph, NodeID, NodeID) {
	rng := rand.New(rand.NewSource(73))
	rects := disjointRects(rng, 140, 1000)
	g := buildWith(true, rects)
	a := g.AddTerminal(freePoint(rng, rects, 1000))
	b := g.AddTerminal(freePoint(rng, rects, 1000))
	materialise(g)
	if g.NumNodes() < 500 {
		tb.Fatalf("graph has %d nodes, want >= 500", g.NumNodes())
	}
	return g, a, b
}

// TestSearchAllocatesNothing: search state lives in generation-stamped
// scratch owned by the graph, so a warmed-up search allocates nothing, let
// alone anything proportional to the graph.
func TestSearchAllocatesNothing(t *testing.T) {
	g, a, b := bigGraph(t)
	if d := g.ObstructedDist(a, b); math.IsInf(d, 1) {
		t.Fatal("terminals disconnected")
	}
	if n := testing.AllocsPerRun(50, func() { g.ObstructedDist(a, b) }); n != 0 {
		t.Errorf("ObstructedDist allocates %v times per run on a %d-node graph", n, g.NumNodes())
	}
	visit := func(NodeID, float64) bool { return true }
	g.Expand(a, math.Inf(1), visit)
	if n := testing.AllocsPerRun(50, func() { g.Expand(a, math.Inf(1), visit) }); n != 0 {
		t.Errorf("Expand allocates %v times per run on a %d-node graph", n, g.NumNodes())
	}
}

// TestGoalDirectedSettlesFewer: with a target the search is A*, which must
// agree with Dijkstra on the distance and settle no more nodes.
func TestGoalDirectedSettlesFewer(t *testing.T) {
	g, a, b := bigGraph(t)
	var m Metrics
	g.Retarget(&m, nil)
	want := math.Inf(1)
	g.Expand(a, math.Inf(1), func(n NodeID, d float64) bool {
		if n == b {
			want = d
		}
		return n != b
	})
	dijkstra := m.SettledNodes
	got := g.ObstructedDist(a, b)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("A* %v, Dijkstra %v", got, want)
	}
	if astar := m.SettledNodes - dijkstra; astar > dijkstra {
		t.Fatalf("A* settled %d nodes, Dijkstra %d", astar, dijkstra)
	}
	if p := g.Path(b); len(p) < 2 || p[0] != a || p[len(p)-1] != b {
		t.Fatalf("Path after ObstructedDist = %v", p)
	}
	g.Expand(b, 0, func(NodeID, float64) bool { return true })
	if p := g.Path(a); p != nil {
		t.Fatalf("Path to a node the last search never reached = %v", p)
	}
}

// TestInterruptPolledBeforeEverySweep: a settle can cost a whole sweep, so
// cancellation must not wait for the 64-settle stride. The scene is a
// serpentine of three walls: every path from a to b bends at two corners of
// each, and a search reaches b only after sweeping every bend, so with
// fewer than four passes allowed it cannot finish first.
func TestInterruptPolledBeforeEverySweep(t *testing.T) {
	rects := []geom.Rect{geom.R(0, 50, 150, 52), geom.R(50, 100, 200, 102), geom.R(0, 150, 150, 152)}
	for allowed := 0; allowed < 4; allowed++ {
		var m Metrics
		polls := 0
		g := buildWith(true, rects)
		g.Retarget(&m, func() bool { polls++; return polls > allowed })
		a := g.AddTerminal(geom.Pt(20, 20))
		b := g.AddTerminal(geom.Pt(20, 180))
		m = Metrics{}
		if d := g.ObstructedDist(a, b); !math.IsInf(d, 1) {
			t.Fatalf("interrupted search returned %v", d)
		}
		if int(m.Sweeps) != allowed {
			t.Errorf("interrupt on poll %d: %d sweeps ran, want %d", allowed+1, m.Sweeps, allowed)
		}
	}
}
