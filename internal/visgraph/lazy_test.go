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
			g.complete(NodeID(id), math.Inf(1))
		}
	}
}

// decided reports whether some pass has decided the pair u, v (gnode.tested).
func decided(g *Graph, u, v NodeID) bool {
	a, b := &g.nodes[u], &g.nodes[v]
	d := b.pt.Sub(a.pt)
	d2 := d.X*d.X + d.Y*d.Y
	return a.tested(b, d2) || b.tested(a, d2)
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
	if m.Sweeps != 0 {
		t.Fatalf("two terminals cost %d sweeps, want 0", m.Sweeps)
	}
	g.ObstructedDist(a, b)
	if got, want := m.Sweeps, uint64(len(swept(g))); got != want {
		t.Fatalf("%d sweeps for %d swept nodes", got, want)
	}
	// The source and every vertex settled on the way were swept exactly once;
	// the target, a sink, was settled and never swept.
	if m.Sweeps != m.SettledNodes-1 || swept(g)[b] {
		t.Fatalf("%d sweeps, %d settled nodes, target swept: %v", m.Sweeps, m.SettledNodes, swept(g)[b])
	}
	if int(m.Sweeps) >= g.NumNodes() {
		t.Fatalf("a point-to-point search swept all %d nodes", g.NumNodes())
	}
}

// TestGrowthNeverResweeps is the incremental-completion invariant on one
// shared graph, the shape ONN's field uses: after AddObstacles, a
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
	g.opts.Metrics = &m
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
		g.opts.Metrics, g.opts.Interrupt = &m, func() bool { polls++; return polls > allowed }
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

// TestEachPairDecidedOnce: a pass skips the pairs its partner's pass has
// decided, so over any history — nodes completed in random order and to
// random radii, obstacle batches in between, points added before and after
// passes, entities deleted and their slots reused, the graph reset and built
// again in its own storage as Release and Build do — no unordered pair is
// asked twice, no adjacency lists a neighbour twice, and the adjacency of
// every decided pair is the reference pass's verdict on it, of bitangent
// pairs for the production pass. Once every node has passed without a bound,
// every pair is decided. Both passes share the rule; the reference pass asks
// every pair it decides by linear scan, so there the count is exact.
func TestEachPairDecidedOnce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for kind := uint8(0); kind < numScenes; kind++ {
			for _, production := range []bool{true, false} {
				rng := rand.New(rand.NewSource(seed))
				o := &once{t: t, production: production, verdicts: make(map[[2]int]bool)}
				o.pool, o.pts = scene(rng, kind)
				o.run(rng)
			}
		}
	}
}

// once drives one graph and keeps its own account, by node incarnation, of
// the pairs some pass has decided.
type once struct {
	t          *testing.T
	g          *Graph
	m          Metrics
	production bool
	pool       []Obstacle // not yet added
	added      []Obstacle
	pts        []geom.Point
	points     []NodeID // live entities and terminals
	inc        []int    // inc[id]: the incarnation of the node in slot id
	n          int      // incarnations handed out
	decided    map[[2]int]bool
	verdicts   map[[2]int]bool // the reference edge set, until obstacles arrive
}

func (o *once) run(rng *rand.Rand) {
	o.build()
	for op := 0; op < 60; op++ {
		switch r := rng.Intn(10); {
		case op == 30:
			o.g.reset()
			o.build()
		case r < 2 && len(o.pool) > 0:
			k := min(1+rng.Intn(4), len(o.pool))
			first := len(o.g.verts)
			o.g.AddObstacles(o.pool[:k])
			o.added, o.pool = append(o.added, o.pool[:k]...), o.pool[k:]
			for _, id := range o.g.verts[first:] {
				o.born(id)
			}
			clear(o.verdicts)
		case r < 4:
			add := o.g.AddTerminal
			if r == 3 {
				add = o.g.AddEntity
			}
			walks := o.m.Walks
			id := add(o.pts[rng.Intn(len(o.pts))])
			o.born(id)
			o.points = append(o.points, id)
			if o.m.Walks != walks {
				o.t.Fatalf("adding point %d made %d visibility tests", id, o.m.Walks-walks)
			}
		case r == 4 && len(o.points) > 0:
			i := rng.Intn(len(o.points))
			o.g.DeleteEntity(o.points[i])
			o.points = append(o.points[:i], o.points[i+1:]...)
		case len(o.g.nodes) > 0:
			// Half the passes are bounded, to a radius of up to a third of
			// the scene.
			cover := math.Inf(1)
			if rng.Intn(2) == 0 {
				r := rng.Float64() * 35
				cover = r * r
			}
			o.complete(NodeID(rng.Intn(len(o.g.nodes))), cover)
		}
		o.check(false)
	}
	for _, id := range rng.Perm(len(o.g.nodes)) {
		o.complete(NodeID(id), math.Inf(1))
	}
	o.check(true)
}

// build starts the graph over the obstacles added so far, in the storage of
// the one before it when there was one; no pair is decided yet.
func (o *once) build() {
	opts := Options{UseSweep: o.production, Metrics: &o.m}
	if o.g == nil {
		o.g = Build(opts, o.added)
	} else {
		o.g.build(opts, o.added)
	}
	o.points, o.decided = nil, make(map[[2]int]bool)
	clear(o.verdicts)
	for _, id := range o.g.verts {
		o.born(id)
	}
}

func (o *once) born(id NodeID) {
	for len(o.inc) <= int(id) {
		o.inc = append(o.inc, -1)
	}
	o.inc[id] = o.n
	o.n++
}

func (o *once) key(u, v NodeID) [2]int {
	a, b := o.inc[u], o.inc[v]
	return [2]int{min(a, b), max(a, b)}
}

// complete runs a pass of u to the squared radius cover and checks the
// visibility tests it made against the pairs it newly decided: none the
// model had seen decided before, as many as it made in the reference pass,
// no more (the last blocker settles some without a walk) among the
// bitangent ones in the production pass.
func (o *once) complete(u NodeID, cover float64) {
	g := o.g
	if !g.nodes[u].alive {
		return
	}
	before := make([]bool, len(g.nodes))
	for v := range g.nodes {
		before[v] = g.nodes[v].alive && NodeID(v) != u && decided(g, u, NodeID(v))
	}
	walks := o.m.Walks
	g.complete(u, cover)
	walks = o.m.Walks - walks
	want := uint64(0)
	un := &g.nodes[u]
	for v := range g.nodes {
		vn := &g.nodes[v]
		if !vn.alive || NodeID(v) == u || before[v] || !decided(g, u, NodeID(v)) || un.kind == EntityNode && vn.kind == EntityNode {
			continue
		}
		if k := o.key(u, NodeID(v)); o.decided[k] {
			o.t.Fatalf("production=%v: the pass of %d decided the pair with %d again", o.production, u, v)
		} else {
			o.decided[k] = true
		}
		if !o.production || bitangent(un, vn) {
			want++
		}
	}
	if walks > want || !o.production && walks != want {
		o.t.Fatalf("production=%v: the pass of %d made %d visibility tests for %d pairs it decided", o.production, u, walks, want)
	}
}

// edge is the reference verdict on a pair: not two entities, visible by
// linear scan and, for the production pass, bitangent.
func (o *once) edge(u, v NodeID) bool {
	un, vn := &o.g.nodes[u], &o.g.nodes[v]
	if un.kind == EntityNode && vn.kind == EntityNode || o.production && !bitangent(un, vn) {
		return false
	}
	k := o.key(u, v)
	e, ok := o.verdicts[k]
	if !ok {
		e = o.g.visibleLinear(un.pt, vn.pt)
		o.verdicts[k] = e
	}
	return e
}

// check: every adjacency lists each neighbour once, its edges are reference
// edges listed at both ends, every decided pair has its reference edge, and
// with all set every pair is decided.
func (o *once) check(all bool) {
	g, halves := o.g, 0
	for u := range g.nodes {
		n := &g.nodes[u]
		if !n.alive {
			continue
		}
		has := make(map[NodeID]bool)
		for _, he := range n.adj {
			if has[he.To] {
				o.t.Fatalf("production=%v: node %d lists neighbour %d twice", o.production, u, he.To)
			}
			has[he.To] = true
			if !g.nodes[he.To].alive || !hasEdge(g, he.To, NodeID(u)) {
				o.t.Fatalf("production=%v: edge %d-%d is listed at one end only", o.production, u, he.To)
			}
		}
		halves += len(n.adj)
		for v := range g.nodes {
			if v == u || !g.nodes[v].alive {
				continue
			}
			want, dec := o.edge(NodeID(u), NodeID(v)), decided(g, NodeID(u), NodeID(v))
			if has[NodeID(v)] && !want || !has[NodeID(v)] && want && dec || all && !dec {
				o.t.Fatalf("production=%v: node %d has edge to %d: %v, reference %v, decided %v",
					o.production, u, v, has[NodeID(v)], want, dec)
			}
		}
	}
	if halves != 2*g.NumEdges() {
		o.t.Fatalf("production=%v: %d half edges, %d edges counted", o.production, halves, g.NumEdges())
	}
}
