package visgraph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// streetRects lays thin axis-aligned rectangles on a 10-unit integer grid,
// at most one per cell: horizontal ones span their cell's width along its
// bottom edge, vertical ones its height along its left edge. Neighbours in a
// row or column are collinear and touch end to end, crossing ones touch along
// a side or at a corner, and interiors never overlap — the degenerate
// configurations street-MBR data is made of.
func streetRects(rng *rand.Rand, n int) []geom.Rect {
	const cells, cell, width = 7, 10.0, 2.0
	var out []geom.Rect
	for _, c := range rng.Perm(cells * cells)[:n] {
		x, y := float64(c%cells)*cell, float64(c/cells)*cell
		if rng.Intn(2) == 0 {
			out = append(out, geom.R(x, y, x+cell, y+width))
		} else {
			out = append(out, geom.R(x, y, x+width, y+cell))
		}
	}
	return out
}

// lShapes returns n pairwise-disjoint L-shaped polygons in [0,size]^2: the
// boxes of disjointRects with one corner quadrant cut out, so every polygon
// has one reflex vertex, where the notch's two sides meet.
func lShapes(rng *rand.Rand, n int, size float64) []geom.Polygon {
	var out []geom.Polygon
	for _, r := range disjointRects(rng, n, size) {
		cx := r.MinX + (0.25+rng.Float64()/2)*r.Width()
		cy := r.MinY + (0.25+rng.Float64()/2)*r.Height()
		// The box's corners counter-clockwise from (MinX, MinY); corner k is
		// replaced by the notch's three vertices, in the same order: one on
		// the side arriving at the corner, the reflex one, one on the side
		// leaving it.
		c := r.Vertices()
		k := rng.Intn(4)
		var v []geom.Point
		for i, p := range c {
			switch {
			case i != k:
				v = append(v, p)
			case c[(i+3)%4].X == p.X: // arriving side vertical
				v = append(v, geom.Pt(p.X, cy), geom.Pt(cx, cy), geom.Pt(cx, p.Y))
			default:
				v = append(v, geom.Pt(cx, p.Y), geom.Pt(cx, cy), geom.Pt(p.X, cy))
			}
		}
		out = append(out, geom.MustPolygon(v))
	}
	return out
}

// Scene kinds of the lazy-graph fuzzer.
const (
	sceneRandom  = iota // disjoint rectangles
	sceneStreet         // streetRects: touching, collinear, shared corners
	sceneConcave        // lShapes: reflex vertices
	sceneGraze          // disjoint rectangles, points whose segments graze corners and run along sides
	sceneDetour         // detourScene: a wall, its twin, and blocks on the ways round
	numScenes
)

// diff drives a lazy graph (indexed, pruned pass) and an always fully
// materialised oracle (reference pass: every obstacle by linear scan, no grid,
// no tangent filter) through the same operations; node ids coincide because
// both allocate slots the same way. Batches grow the lazy graph's grid in
// place, past its bounds and past twice its count, so every way the grid comes
// about is compared.
type diff struct {
	t            *testing.T
	lazy, oracle *Graph
	pool         []Obstacle // not yet added
	added        []Obstacle
	pts          []geom.Point // where entities and terminals may go
	points       []NodeID     // live entities and terminals
}

// scene returns the obstacles of a scene of the given kind and the points
// entities and terminals may take in it: a vertex (coincident with a vertex
// node) and a side midpoint of every polygon, and free points.
func scene(rng *rand.Rand, kind uint8) ([]Obstacle, []geom.Point) {
	var polys []geom.Polygon
	var around []geom.Point // a detour scene's points
	size := 100.0
	switch kind % numScenes {
	case sceneRandom:
		for _, r := range disjointRects(rng, 16, size) {
			polys = append(polys, geom.RectPolygon(r))
		}
	case sceneStreet:
		size = 70
		for _, r := range streetRects(rng, 16) {
			polys = append(polys, geom.RectPolygon(r))
		}
	case sceneConcave:
		polys = lShapes(rng, 12, size)
	case sceneDetour:
		polys, around = detourScene(rng)
	case sceneGraze:
		for _, r := range disjointRects(rng, 12, size) {
			// Integer corners, so that the points below lie exactly on the
			// lines they are meant to.
			r = geom.R(math.Floor(r.MinX), math.Floor(r.MinY), math.Ceil(r.MaxX), math.Ceil(r.MaxY))
			if !overlapsAny(polys, r) {
				polys = append(polys, geom.RectPolygon(r))
			}
		}
	}
	var obs []Obstacle
	pts := around
	for i, pg := range polys {
		obs = append(obs, Obstacle{ID: int64(i), Poly: pg})
		e := pg.Edge(2)
		pts = append(pts, pg.Vertex(0), e.A.Add(e.B).Scale(0.5))
		if kind%numScenes == sceneGraze {
			// Both ends of a diagonal through the min corner, which only
			// touches the box there, and two points on the line of its
			// bottom side, beyond either end.
			b := pg.Bounds()
			for _, p := range []geom.Point{
				geom.Pt(b.MinX-3, b.MinY+3), geom.Pt(b.MinX+2, b.MinY-2),
				geom.Pt(b.MinX-2, b.MinY), geom.Pt(b.MaxX+4, b.MinY),
			} {
				if !containsAny(polys, p) {
					pts = append(pts, p)
				}
			}
		}
	}
	for i := 0; i < 12; i++ {
		pts = append(pts, freeOf(rng, polys, size))
	}
	return obs, pts
}

// detourScene returns a wall and its twin further along a street, and
// points on both sides, so that most segments between the points are blocked
// by one wall or both. The two ways round a wall tie for a pair level with
// its middle, and the detours around the two walls tie for a pair placed
// symmetrically about the street between them; the detour around one wall
// alone is blocked by the other for a pair across both. A block has its
// corner on the leg from one point to the wall's corner, which it grazes,
// and a stone sits on the leg down from the wall's far corner.
func detourScene(rng *rand.Rand) ([]geom.Polygon, []geom.Point) {
	x, y := float64(20+rng.Intn(20)), float64(20+rng.Intn(20))
	w, h := float64(4+rng.Intn(10)), float64(12+2*rng.Intn(8))
	gap, k := float64(6+rng.Intn(10)), float64(2+rng.Intn(4))
	twinX := x + w + gap
	rects := []geom.Rect{
		geom.R(x, y, x+w, y+h),
		geom.R(twinX, y, twinX+w, y+h),
		// The leg from (x-2k, y+h-2k) to the wall's corner (x, y+h) touches
		// this block at its corner (x-k, y+h-k) only.
		geom.R(x-k, y+h-k-float64(1+rng.Intn(3)), x-k+float64(1+rng.Intn(int(k))), y+h-k),
		geom.R(x+w+1, y+h-1, x+w+3, y+h+2),
	}
	polys := make([]geom.Polygon, len(rects))
	for i, r := range rects {
		polys[i] = geom.RectPolygon(r)
	}
	var pts []geom.Point
	for _, p := range []geom.Point{
		geom.Pt(x-2*k, y+h-2*k), geom.Pt(x-k, y+h/2), geom.Pt(x+w+gap/2, y+h-2*k),
		geom.Pt(twinX+w+k, y+h/2), geom.Pt(twinX+w+2*k, y+h-2*k),
		geom.Pt(x+w/2, y-k), geom.Pt(x+w/2, y+h+k),
	} {
		if !containsAny(polys, p) {
			pts = append(pts, p)
		}
	}
	return polys, pts
}

func newDiff(t *testing.T, seed int64, kind uint8) *diff {
	rng := rand.New(rand.NewSource(seed))
	d := &diff{t: t}
	d.pool, d.pts = scene(rng, kind)
	first := rng.Intn(min(6, len(d.pool)+1)) // a detour scene has 4 polygons
	// The lazy graph is built in the storage the previous input's released
	// (what Release hands Build), so a grid, stamp, slot or adjacency array
	// that reset leaves stale answers wrong here.
	if recycled == nil {
		recycled = &Graph{obstIDs: make(map[int64]int)}
	}
	d.lazy, recycled = recycled.build(Options{UseSweep: true}, d.pool[:first]), nil
	d.oracle = Build(Options{UseSweep: false}, d.pool[:first])
	d.added, d.pool = d.pool[:first:first], d.pool[first:]
	materialise(d.oracle)
	return d
}

// freeOf samples a point in [0,size]^2 not strictly inside any polygon.
func freeOf(rng *rand.Rand, polys []geom.Polygon, size float64) geom.Point {
	for {
		if p := geom.Pt(rng.Float64()*size, rng.Float64()*size); !containsAny(polys, p) {
			return p
		}
	}
}

// containsAny reports whether p lies strictly inside one of polys.
func containsAny(polys []geom.Polygon, p geom.Point) bool {
	for _, pg := range polys {
		if pg.ContainsStrict(p) {
			return true
		}
	}
	return false
}

// overlapsAny reports whether r comes within 1 of one of polys' boxes.
func overlapsAny(polys []geom.Polygon, r geom.Rect) bool {
	for _, pg := range polys {
		if pg.Bounds().Expand(1).Intersects(r) {
			return true
		}
	}
	return false
}

// node picks a live node, point nodes twice as often as obstacle vertices.
func (d *diff) node(b byte) NodeID {
	if len(d.points) > 0 && b%3 != 0 {
		return d.points[int(b/3)%len(d.points)]
	}
	for i := 0; i < len(d.lazy.nodes); i++ {
		if id := NodeID((int(b) + i) % len(d.lazy.nodes)); d.lazy.nodes[id].alive {
			return id
		}
	}
	return Invalid
}

func (d *diff) step(op, a, b byte) {
	t := d.t
	switch op % 8 {
	case 0: // a batch of new obstacles, with one already present among them
		k := min(1+int(a)%4, len(d.pool))
		batch := append([]Obstacle(nil), d.pool[:k]...)
		if len(d.added) > 0 {
			batch = append(batch, d.added[int(b)%len(d.added)])
		}
		if got := d.lazy.AddObstacles(batch); got != k {
			t.Fatalf("lazy AddObstacles added %d, want %d", got, k)
		}
		d.oracle.AddObstacles(batch)
		d.added, d.pool = append(d.added, d.pool[:k]...), d.pool[k:]
	case 1, 2:
		p := d.pts[int(a)%len(d.pts)]
		add := (*Graph).AddTerminal
		if op%8 == 2 {
			add = (*Graph).AddEntity
		}
		id := add(d.lazy, p)
		if oid := add(d.oracle, p); oid != id {
			t.Fatalf("node ids diverged: lazy %d, oracle %d", id, oid)
		}
		d.points = append(d.points, id)
	case 3:
		if len(d.points) == 0 {
			return
		}
		i := int(a) % len(d.points)
		d.lazy.DeleteEntity(d.points[i])
		d.oracle.DeleteEntity(d.points[i])
		d.points = append(d.points[:i], d.points[i+1:]...)
	case 4, 5:
		from, to := d.node(a), d.node(b)
		if from == Invalid {
			return
		}
		// The reference distance comes from plain Dijkstra, so the check also
		// covers the goal-directed search against the undirected one.
		want := math.Inf(1)
		d.oracle.Expand(from, math.Inf(1), func(n NodeID, dist float64) bool {
			if n == to {
				want = dist
			}
			return n != to
		})
		var path []NodeID
		got := math.Inf(1)
		if op%8 == 4 {
			got = d.lazy.ObstructedDist(from, to)
		} else {
			path, got = d.lazy.ShortestPath(from, to)
		}
		d.checkDist(from, to, got, want)
		d.checkDetours(d.lazy.Point(from), d.lazy.Point(to), want)
		if op%8 == 4 {
			return
		}
		if math.IsInf(got, 1) {
			if path != nil {
				t.Fatalf("unreachable, yet path %v", path)
			}
			return
		}
		if path[0] != from || path[len(path)-1] != to {
			t.Fatalf("path %v does not run from %d to %d", path, from, to)
		}
		sum := 0.0
		for i := 1; i < len(path); i++ {
			p, q := d.lazy.Point(path[i-1]), d.lazy.Point(path[i])
			if !d.oracle.visibleLinear(p, q) {
				t.Fatalf("path leg %v-%v is blocked", p, q)
			}
			sum += p.Dist(q)
		}
		if math.Abs(sum-got) > 1e-9*math.Max(1, got) {
			t.Fatalf("path legs sum to %v, reported length %v", sum, got)
		}
	case 6, 7:
		from := d.node(a)
		if from == Invalid {
			return
		}
		bound := math.Inf(1)
		if op%8 == 7 {
			bound = 5 + float64(b)/2
		} else if b >= 128 {
			// A bound at exactly the oracle's distance to a node, or one ulp
			// either side: the node must be reached at and above it.
			to := d.node(b)
			d.oracle.Expand(from, math.Inf(1), func(n NodeID, dist float64) bool {
				if n == to {
					bound = []float64{dist, math.Nextafter(dist, 0), math.Nextafter(dist, math.Inf(1))}[b%3]
				}
				return n != to
			})
		}
		type visit struct {
			n    NodeID
			dist float64
		}
		// The rooted subsequences must be equal, visit for visit; every other
		// node the lazy graph reaches the oracle reaches no farther away.
		var want, got []visit
		reached := make(map[NodeID]float64)
		d.oracle.Expand(from, bound, func(n NodeID, dist float64) bool {
			reached[n] = dist
			if d.rooted(from, n) {
				want = append(want, visit{n, dist})
			}
			return true
		})
		d.lazy.Expand(from, bound, func(n NodeID, dist float64) bool {
			if d.rooted(from, n) {
				got = append(got, visit{n, dist})
			}
			if w, ok := reached[n]; !ok || dist < w {
				t.Fatalf("Expand(%d, %v): lazy reached %d at %v, oracle at %v (reached: %v)", from, bound, n, dist, w, ok)
			}
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("Expand(%d, %v): lazy visited %d rooted nodes, oracle %d", from, bound, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Expand(%d, %v) rooted visit %d: lazy %v, oracle %v", from, bound, i, got[i], want[i])
			}
		}
	}
	if op%8 <= 3 {
		materialise(d.oracle)
	}
	d.checkAdjacency()
}

// rooted reports whether the distance between a and b is one the pruned graph
// keeps exact: a terminal at one end and no bare obstacle vertex at the other.
// The others (a vertex node's distance, an entity-to-entity detour) may only
// rise.
func (d *diff) rooted(a, b NodeID) bool {
	ka, kb := d.lazy.nodes[a].kind, d.lazy.nodes[b].kind
	return (ka == TerminalNode || kb == TerminalNode) && ka != VertexNode && kb != VertexNode
}

// checkDist compares a lazy distance with the oracle's: equal when rooted,
// never lower otherwise (the lazy graph's edges are a subset of the oracle's).
func (d *diff) checkDist(from, to NodeID, got, want float64) {
	if d.rooted(from, to) && got != want || got < want {
		d.t.Fatalf("distance %d-%d (kinds %d, %d): lazy %v, oracle %v",
			from, to, d.lazy.nodes[from].kind, d.lazy.nodes[to].kind, got, want)
	}
}

// checkDetours holds Detour, around each obstacle the graphs hold that blocks
// the segment ab and around all of them together, to the reference graph
// over those obstacles alone, and to a lower bound on want, the distance
// among all the graphs hold: its path runs from a to b, its legs clear of
// those obstacles, and they sum to its length.
func (d *diff) checkDetours(a, b geom.Point, want float64) {
	var blockers []Obstacle
	for _, ob := range d.added {
		if ob.Poly.BlocksSegment(a, b) {
			blockers = append(blockers, ob)
			d.checkDetour(a, b, want, []Obstacle{ob})
		}
	}
	if len(blockers) > 1 {
		d.checkDetour(a, b, want, blockers)
	}
}

func (d *diff) checkDetour(a, b geom.Point, want float64, set []Obstacle) {
	t := d.t
	pgs := make([]*geom.Polygon, len(set))
	for i := range set {
		pgs[i] = &set[i].Poly
	}
	path, got := Detour(pgs, a, b, nil)
	ref := Build(Options{}, set)
	alone := ref.ObstructedDist(ref.AddTerminal(a), ref.AddTerminal(b))
	ref.Release()
	if math.IsInf(got, 1) != math.IsInf(alone, 1) || math.Abs(got-alone) > 1e-9*math.Max(1, alone) {
		t.Fatalf("Detour(%v, %v) around %d obstacles = %v, reference graph %v", a, b, len(set), got, alone)
	}
	if got > want*(1+1e-9) {
		t.Fatalf("Detour(%v, %v) around %d obstacles = %v exceeds the distance %v", a, b, len(set), got, want)
	}
	if math.IsInf(got, 1) {
		if len(path) != 0 {
			t.Fatalf("Detour(%v, %v): no way round, yet path %v", a, b, path)
		}
		return
	}
	sum := 0.0
	for i := 1; i < len(path); i++ {
		for _, pg := range pgs {
			if pg.BlocksSegment(path[i-1], path[i]) {
				t.Fatalf("Detour(%v, %v) leg %v-%v crosses %v", a, b, path[i-1], path[i], pg.Vertices())
			}
		}
		sum += path[i-1].Dist(path[i])
	}
	if path[0] != a || path[len(path)-1] != b || math.Abs(sum-got) > 1e-9*math.Max(1, got) {
		t.Fatalf("Detour(%v, %v) = %v: legs sum to %v, length %v", a, b, path, sum, got)
	}
}

// bitangent is the production pass's filter as complete writes it out: the
// tangent test at both ends of the segment between a and b.
func bitangent(a, b *gnode) bool {
	d := b.pt.Sub(a.pt)
	m := tangentSlack * (math.Abs(d.X) + math.Abs(d.Y))
	return a.tangent(d, m) && b.tangent(d, m)
}

// checkAdjacency is the lazy invariant: every materialised edge is an oracle
// edge that passes the tangent test, and every pair some pass has decided
// (gnode.tested) has its edge exactly when the oracle has it.
func (d *diff) checkAdjacency() {
	for id := range d.lazy.nodes {
		n := &d.lazy.nodes[id]
		if !n.alive {
			continue
		}
		want := make(map[NodeID]bool)
		for _, he := range d.oracle.nodes[id].adj {
			if bitangent(n, &d.lazy.nodes[he.To]) {
				want[he.To] = true
			}
		}
		has := make(map[NodeID]bool, len(n.adj))
		for _, he := range n.adj {
			if !want[he.To] {
				d.t.Fatalf("lazy edge %d-%d (%v-%v) is not a bitangent oracle edge", id, he.To, n.pt, d.lazy.nodes[he.To].pt)
			}
			has[he.To] = true
		}
		for v := range want {
			if !has[v] && decided(d.lazy, NodeID(id), v) {
				d.t.Fatalf("pair %d-%d is decided, yet its bitangent oracle edge is missing", id, v)
			}
		}
	}
}

// checkSymmetric requires Visible and visibleLinear to give every pair of
// live nodes the same answer in both directions: a pass asks a pair from one
// end only, so an answer that depended on the direction would make the edge
// set depend on which end completed first.
func (d *diff) checkSymmetric() {
	g := d.lazy
	for i := range g.nodes {
		for j := i + 1; j < len(g.nodes); j++ {
			if !g.nodes[i].alive || !g.nodes[j].alive {
				continue
			}
			a, b := g.nodes[i].pt, g.nodes[j].pt
			if g.Visible(a, b) != g.Visible(b, a) || g.visibleLinear(a, b) != g.visibleLinear(b, a) {
				d.t.Fatalf("visibility of %v-%v depends on the direction: grid %v/%v, linear %v/%v",
					a, b, g.Visible(a, b), g.Visible(b, a), g.visibleLinear(a, b), g.visibleLinear(b, a))
			}
		}
	}
}

// FuzzLazyMatchesOracle interleaves Build / AddObstacles / AddTerminal /
// AddEntity / DeleteEntity (freed slots are reused by whatever node comes
// next) with ObstructedDist, ShortestPath and bounded Expand, on random,
// street, concave, graze and detour scenes. The lazy indexed graph holds only bitangent
// edges, so it must answer exactly as the fully materialised reference one
// where a terminal is at one end and no bare vertex at the other — equal
// distances, equal Expand visit order among those nodes — and never closer
// anywhere; its paths' legs are mutually visible and sum to their length.
// Visibility between the final graph's live nodes is the same both ways. The
// detour around each obstacle blocking a searched pair is checked on the way
// (checkDetours).
func FuzzLazyMatchesOracle(f *testing.F) {
	// One program per seed scene: grow-search-grow-search with deletions in
	// between, then sweeps of every query kind.
	program := []byte{
		1, 40, 0, 1, 33, 0, 4, 1, 2, 0, 2, 0, 5, 1, 2, 2, 5, 0, 3, 0, 0, 0, 1, 1, 1, 7, 0,
		6, 1, 0, 7, 2, 40, 0, 3, 2, 4, 4, 5, 5, 0, 9, 2, 3, 0, 6, 0, 0, 1, 36, 0, 5, 2, 1,
		0, 3, 3, 4, 1, 5, 7, 4, 90, 6, 3, 0, 0, 2, 1, 5, 6, 9, 4, 12, 2,
	}
	for seed := int64(1); seed <= 4; seed++ {
		for kind := uint8(0); kind < numScenes; kind++ {
			f.Add(seed, kind, program)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, prog []byte) {
		d := newDiff(t, seed, kind)
		for i := 0; i+2 < len(prog) && i < 3*48; i += 3 {
			d.step(prog[i], prog[i+1], prog[i+2])
		}
		d.checkSymmetric()
		recycled = d.lazy.reset()
	})
}

// recycled is the lazy graph of the fuzzer's previous input, reset as
// Release resets it, for the next input to build on.
var recycled *Graph
