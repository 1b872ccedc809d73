// Package visgraph implements local visibility graphs over polygonal
// obstacles, the machinery behind obstructed-distance computation (Sections
// 3-6 of the paper). Nodes are obstacle vertices plus query/entity points
// (terminals and entities). Two nodes are connected iff they are mutually
// visible — the open segment between them crosses no obstacle interior — and
// the segment is tangent to the obstacle at each end that is an obstacle
// vertex: the vertex's two boundary edges do not lie strictly on opposite
// sides of its line. Entities are never connected to each other.
//
// That is a stated deviation from the paper's full visibility graph, and it
// keeps every distance a caller reads exact. A shortest obstacle-avoiding path
// between two points bends only at convex vertices it wraps around [LW79], so
// every edge it uses is tangent at its vertex ends, and shortest paths in this
// graph realize the obstructed distance between a terminal and any terminal
// or entity. Two kinds of distance may exceed the full graph's and no caller
// reads either: that of a bare vertex node (the last edge into a vertex need
// not be tangent there), and entity to entity (already a detour through
// vertices, since entity-entity edges are absent). Only the pairs that pass the
// tangent test — four multiplications per vertex end, on boundary directions
// AddObstacles stores with each vertex — are asked Visible at all: about a
// quarter of the vertex pairs of a street world, which halves a full pass.
//
// Adjacency is lazy. Build and AddObstacles only create vertex nodes; a
// node's visible set is computed by one visibility pass the first time a
// search expands it, so a search pays for the nodes it reaches and not for
// the O(n^2 log n) graph the paper builds up front. A search expands only
// obstacle vertices and its own source: a shortest path never bends at a
// point [LW79], so a point a search reaches is settled and not expanded.
// Each unordered pair is decided once, by the first pass to reach it from
// either end (gnode.tested says how a pass knows), and its edge goes into
// both adjacencies. Every node remembers how many obstacle vertices its
// adjacency accounts for: when the graph has grown since, only the vertices
// added in between are tested.
//
// A bounded search's passes stop at its bound: a pass at a node the search
// settled at distance g tests only the candidates within bound - g of it,
// the only ones relaxation could keep, and the node records the radius its
// passes have covered. A later pass with a larger bound tests the ring
// beyond that radius. An unbounded search's passes cover everything.
//
// The graph is dynamic, mirroring the operations the paper defines:
// AddObstacle incorporates a newly discovered obstacle (removing the
// materialised edges it blocks), AddEntity/AddTerminal incorporate points,
// and DeleteEntity removes a point once its distance computation is done.
// Adding a point computes nothing. A point that arrives before any pass is a
// sink: every pass tests it, and it needs no pass of its own unless a search
// starts there. A point that arrives later is one that the passes before it
// never tested and later top-ups, which test new vertices only, never will:
// it decides those pairs itself, in a pass at the start of the next search,
// before anything can relax into it. PassFirst asks the same for a sink.
//
// A graph's storage outlives the graph. Release hands it to the next Build,
// which reuses the node array with every node's adjacency array, the id map,
// the vertex list, the obstacle grid and the search scratch, so
// queries that build one small graph after another — a join's seeds, the
// requests of a server — allocate no graph storage once warm. Only a graph's
// owner releases it, once nothing reads it any more: a query releases its
// local graphs when its answer has been read out of them.
//
// There is one visibility pass: every live bitangent candidate is tested with
// the exact predicate Visible (geom.Polygon.BlocksSegment against the
// obstacles near the segment), which is right for touching and for
// overlapping obstacles. Visible finds those obstacles in a uniform grid over
// their bounding boxes (grid.go), sized from the obstacle set itself; a pass
// asks the obstacle that blocked its last candidate before it walks the grid.
// This is a stated deviation from the paper, which builds its graphs with the
// rotational plane sweep of [SS84]: entities sit on obstacle boundaries, so
// every pair a sweep accepts has to be confirmed by the exact test anyway,
// and once that test is cheap (a slab clip per rectangle, a grid walk per
// segment) asking it directly costs a third to a fifth of the sweep at every
// local-graph size measured (README's table; CHANGES.md, PR 23), so the sweep
// was deleted rather than kept beside it.
package visgraph

import (
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
)

// NodeID identifies a node of a Graph. IDs are stable across deletions.
type NodeID int

// Invalid is returned for absent nodes.
const Invalid NodeID = -1

// Kind classifies graph nodes.
type Kind uint8

const (
	// VertexNode is an obstacle vertex.
	VertexNode Kind = iota
	// EntityNode is a data point; entity-entity edges are skipped because a
	// shortest path never bends at an entity [LW79].
	EntityNode
	// TerminalNode is a query endpoint; it connects to every visible node,
	// including entities.
	TerminalNode
)

// Options configures a Graph.
type Options struct {
	// UseSweep selects the visibility pass, and keeps the name it had when
	// the choice was the [SS84] sweep because the benchmark's probe sets it
	// (ROADMAP item 1 renames it there and here together). True is the one
	// production pass: the tangent filter, then Visible through the obstacle
	// grid, so edges are bitangent (see the package doc for which distances
	// that keeps exact). False is the reference pass that only tests use as
	// their oracle: every pair against every obstacle by linear scan, no
	// filter, no grid and no shortcut — the paper's full visibility graph.
	UseSweep bool
	// Metrics, when non-nil, accumulates work counters across every graph
	// built with these options. A query session shares one Metrics across
	// all the local graphs of one query, so batch primitives can demonstrate
	// their savings against per-pair execution.
	Metrics *Metrics
	// Interrupt, when non-nil, is polled during searches (every few settled
	// nodes and before every visibility pass); a true return aborts the
	// search mid-flight. Query sessions wire it to their context's
	// cancellation so a canceled query stops promptly instead of settling
	// the rest of a large graph.
	Interrupt func() bool
}

// Metrics accumulates graph work counters. One Metrics may be shared by many
// graphs (the sharer is single-threaded, like the graphs themselves).
type Metrics struct {
	// SettledNodes counts nodes settled (dequeued final) across all
	// searches.
	SettledNodes uint64
	// Expansions counts searches (Expand, ShortestPath and ObstructedDist
	// calls).
	Expansions uint64
	// Builds counts graph constructions via Build.
	Builds uint64
	// Sweeps counts visibility passes: one per node the first time a search
	// expands it or, for a point that arrived after some pass, the first time
	// a search starts with it in the graph — the dominant cost of distance
	// computation. A pass tests the undecided pairs within its radius against
	// the tangent filter and asks Visible only about those that pass
	// (complete). The later passes that widen a node's radius or bring it up
	// to date with new vertices are not counted.
	Sweeps uint64
	// Walks counts the passes' visibility tests that their last blocker did
	// not settle: grid walks, or linear scans in the reference pass.
	Walks uint64
}

// Sub returns the work done between an earlier reading o and m.
func (m Metrics) Sub(o Metrics) Metrics {
	return Metrics{
		SettledNodes: m.SettledNodes - o.SettledNodes,
		Expansions:   m.Expansions - o.Expansions,
		Builds:       m.Builds - o.Builds,
		Sweeps:       m.Sweeps - o.Sweeps,
		Walks:        m.Walks - o.Walks,
	}
}

// HalfEdge is an adjacency record: the far node and the Euclidean length.
type HalfEdge struct {
	To     NodeID
	Weight float64
}

type gnode struct {
	pt geom.Point
	// cover is the squared radius the node's passes have covered, -1 until
	// its first pass: every pair with a candidate that close (see tested) has
	// been decided.
	cover float64
	// born is when the node arrived: a vertex's index in g.verts, a point's
	// tick on g.clock.
	born int64
	// first is the g.clock tick of the node's first pass.
	first int64
	// seen is how many obstacle vertices (in g.verts order) the node's passes
	// have tested: -1 until its first pass.
	seen  int32
	kind  Kind
	alive bool
	adj   []HalfEdge
	// prev and next are an obstacle vertex's two boundary directions, toward
	// the polygon's previous and next vertex, scaled to unit L1 length; zero
	// for a point node, which makes every line tangent to it.
	prev, next geom.Point
}

// tested reports whether a pass of n has decided the pair with v, whose
// squared distance from n is d2: v lies within n's cover and is among the
// nodes n's passes test, the vertices up to n.seen and the points that
// arrived before n's first pass. The points that arrived after it decide
// the pair themselves (complete). Both ends' answers together say whether a
// pair is decided, so a pass asks neither about a pair its partner decided
// nor about one it decided itself.
func (n *gnode) tested(v *gnode, d2 float64) bool { return d2 <= n.cover && n.has(v) }

// has reports whether v is among the nodes n's passes test.
func (n *gnode) has(v *gnode) bool {
	if v.kind == VertexNode {
		return v.born < int64(n.seen)
	}
	return v.born < n.first
}

// Graph is a dynamic visibility graph. It is not safe for concurrent use.
type Graph struct {
	opts      Options
	nodes     []gnode
	obstacles []geom.Polygon
	obstIDs   map[int64]int // external obstacle id -> obstacles index
	// verts lists the obstacle-vertex nodes in the order they arrived, which
	// is what lets a node record how much of the graph it has been tested
	// against as one number.
	verts []NodeID
	// clock ticks once per point arrival and once per first pass, which
	// orders the two (gnode.born, gnode.first). late lists the points that
	// arrived after some pass (swept), or were named to PassFirst, until a
	// pass of theirs covers everything.
	clock    int64
	swept    bool
	late     []NodeID
	numEdges int
	live     int // nodes currently alive
	free     []NodeID
	// grid indexes obstacles by bounding box for Visible: built at the first
	// test, extended or dropped for rebuilding by AddObstacles.
	grid obstGrid
	// Search scratch, reused by every search on this graph: slots[i] belongs
	// to the current search iff its gen equals gen, so starting a search
	// clears nothing.
	slots []slot
	gen   uint32
	queue minHeap
}

// Obstacle couples a polygon with the caller's identifier (typically the
// R-tree data id), so incremental additions can be deduplicated.
type Obstacle struct {
	ID   int64
	Poly geom.Polygon
}

// Build starts the visibility graph of a static obstacle set: every vertex
// becomes a node and no visibility is computed — searches materialise
// adjacency at the nodes they expand. Further obstacles and points can still
// be added dynamically. The graph is built in the storage of one released
// earlier (Release) when there is one.
func Build(opts Options, obstacles []Obstacle) *Graph {
	g, _ := released.Get().(*Graph)
	if g == nil {
		g = &Graph{obstIDs: make(map[int64]int)}
	}
	return g.build(opts, obstacles)
}

// build starts g, empty (new or reset), as Build's graph.
func (g *Graph) build(opts Options, obstacles []Obstacle) *Graph {
	g.opts = opts
	if opts.Metrics != nil {
		opts.Metrics.Builds++
	}
	g.AddObstacles(obstacles)
	return g
}

// released holds graphs their owners are done with, for Build to reuse.
var released sync.Pool

// maxReleasedNodes caps the graphs Release keeps: a near-global graph (a
// sealed-off target's proof, a k-medoids matrix) would otherwise hold its
// storage for the small graphs after it and make every reset clear it.
const maxReleasedNodes = 1 << 14

// Release hands the graph's storage to a later Build (see the package doc);
// the graph must not be used after it. A graph of more than maxReleasedNodes
// nodes is left to the garbage collector.
func (g *Graph) Release() {
	if len(g.nodes) <= maxReleasedNodes {
		released.Put(g.reset())
	}
}

// reset empties the graph, keeping its storage, and returns it. The grid is
// rebuilt in its arrays at the next Visible; search and grid generations
// carry on, so no old stamp looks current, and the slots are cut to zero
// length so that Path finds no settled node before the next search.
func (g *Graph) reset() *Graph {
	g.opts = Options{}
	g.nodes = g.nodes[:0] // newNode empties the adjacency array of a slot it takes
	clear(g.obstacles)    // drop the polygons' vertex arrays
	g.obstacles = g.obstacles[:0]
	clear(g.obstIDs)
	g.verts, g.free, g.slots, g.late = g.verts[:0], g.free[:0], g.slots[:0], g.late[:0]
	g.numEdges, g.live, g.clock, g.swept = 0, 0, 0, false
	g.grid.cell = 0
	return g
}

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return g.live }

// NumEdges returns the number of undirected visibility edges materialised so
// far (adjacency is lazy: edges at nodes no search has expanded are absent).
func (g *Graph) NumEdges() int { return g.numEdges }

// HasObstacle reports whether the obstacle with the external id is present.
func (g *Graph) HasObstacle(id int64) bool {
	_, ok := g.obstIDs[id]
	return ok
}

// Point returns the location of a node.
func (g *Graph) Point(n NodeID) geom.Point { return g.nodes[n].pt }

// newNode adds a node at p, in the slot of a deleted one or the next one,
// keeping the adjacency array of the node that held the slot before.
func (g *Graph) newNode(p geom.Point, kind Kind) NodeID {
	g.live++
	var id NodeID
	if len(g.free) > 0 {
		id = g.free[len(g.free)-1]
		g.free = g.free[:len(g.free)-1]
	} else {
		id = NodeID(len(g.nodes))
		g.nodes = slices.Grow(g.nodes, 1)[:id+1]
	}
	born := int64(len(g.verts))
	if kind != VertexNode {
		born = g.clock
		g.clock++
		if g.swept {
			g.late = append(g.late, id)
		}
	}
	n := &g.nodes[id]
	*n = gnode{pt: p, kind: kind, alive: true, seen: -1, cover: -1, born: born, adj: n.adj[:0]}
	return id
}

func (g *Graph) addEdge(u, v NodeID) {
	w := g.nodes[u].pt.Dist(g.nodes[v].pt)
	g.nodes[u].adj = append(g.nodes[u].adj, HalfEdge{To: v, Weight: w})
	g.nodes[v].adj = append(g.nodes[v].adj, HalfEdge{To: u, Weight: w})
	g.numEdges++
}

// dropHalf removes the half edge u->v from u's adjacency.
func (g *Graph) dropHalf(u, v NodeID) {
	adj := g.nodes[u].adj
	for i, he := range adj {
		if he.To == v {
			g.nodes[u].adj = append(adj[:i], adj[i+1:]...)
			return
		}
	}
}

// AddObstacles incorporates a batch of obstacles (the add_obstacle operation
// of Section 4, batched), returning how many were new: obstacles are
// identified by an external id, so repeated additions are no-ops. The
// iterative range enlargement of the obstructed-distance computation (Fig 8)
// discovers obstacles in batches; adding them together removes blocked edges
// in a single pass over the graph instead of one scan per obstacle. The new
// vertices get no edges here: nodes whose adjacency was complete before learn
// about them when a search next expands them.
func (g *Graph) AddObstacles(batch []Obstacle) int {
	first := len(g.obstacles)
	for _, ob := range batch {
		if _, ok := g.obstIDs[ob.ID]; ok {
			continue
		}
		g.obstIDs[ob.ID] = len(g.obstacles)
		g.obstacles = append(g.obstacles, ob.Poly)
		vs := ob.Poly.Vertices()
		for i, v := range vs {
			id := g.newNode(v, VertexNode)
			n := &g.nodes[id]
			n.prev = unitL1(vs[(i+len(vs)-1)%len(vs)].Sub(v))
			n.next = unitL1(vs[(i+1)%len(vs)].Sub(v))
			g.verts = append(g.verts, id)
		}
	}
	fresh := g.obstacles[first:]
	if len(fresh) == 0 {
		return 0
	}
	if g.grid.cell != 0 && !g.grid.extend(g.obstacles, first) {
		g.grid.cell = 0 // the next Visible rebuilds it
	}
	if g.numEdges == 0 {
		return len(fresh)
	}
	// Remove materialised edges blocked by any new polygon, in one pass; the
	// new vertices have none yet. The production pass walks each edge through
	// the grid asking only the new obstacles; the reference pass tests every
	// edge against every new polygon's box and then the polygon, the oracle
	// the walk is checked against.
	blocked := func(a, b geom.Point) bool { return g.blocker(a, b, first, -1, nil) >= 0 }
	if !g.opts.UseSweep {
		blocked = func(a, b geom.Point) bool {
			sb := geom.Seg(a, b).Bounds()
			for _, pg := range fresh {
				if pg.Bounds().Intersects(sb) && pg.BlocksSegment(a, b) {
					return true
				}
			}
			return false
		}
	}
	for u := range g.nodes {
		un := &g.nodes[u]
		if !un.alive {
			continue
		}
		for i := 0; i < len(un.adj); {
			if v := un.adj[i].To; NodeID(u) < v && blocked(un.pt, g.nodes[v].pt) {
				un.adj = slices.Delete(un.adj, i, i+1)
				g.dropHalf(v, NodeID(u))
				g.numEdges--
				continue // adj shifted; re-check index i
			}
			i++
		}
	}
	return len(fresh)
}

// PassFirst has point n passed at the start of the next search, as a late
// point is. Where a search will pass most of the graph, scattered points'
// pairs cost fewer walks from their own passes, whose consecutive candidates
// hide behind the same obstacles, than from the vertices' passes.
func (g *Graph) PassFirst(n NodeID) {
	if !math.IsInf(g.nodes[n].cover, 1) && !slices.Contains(g.late, n) {
		g.late = append(g.late, n)
	}
}

// AddEntity adds a data point, connecting it to visible obstacle vertices
// and terminals but not to other entities (a shortest path never bends at an
// entity, so entity-entity edges cannot change any terminal's distance). Its
// edges to vertices are the bitangent ones, which keeps its distance from
// every terminal exact; its graph distance to another entity is a detour
// through vertices, not an obstructed distance. Its edges are computed by
// the searches that use it (see the package doc).
func (g *Graph) AddEntity(p geom.Point) NodeID { return g.newNode(p, EntityNode) }

// AddTerminal adds a query endpoint, connecting it to every visible node
// including entities (paths start or end here, so direct edges matter) —
// to a vertex only where the edge is tangent at that vertex. Distances from
// a terminal to terminals and entities are exact. Like AddEntity, it
// computes nothing until a search uses the point.
func (g *Graph) AddTerminal(p geom.Point) NodeID { return g.newNode(p, TerminalNode) }

// complete brings u's adjacency up to date with the graph within the squared
// radius cover: a node never passed before gets one visibility pass over the
// live candidates that close; a later pass tests the vertices added since
// (blocked edges were already removed when the obstacles arrived) and, when
// cover exceeds what its passes covered, the ring of every node beyond. A
// pass skips the pairs decided already, from either end (gnode.tested), and
// puts an edge into both adjacencies, so no neighbour is left incomplete.
// Points that arrived after u's first pass are no candidates of u's: they
// decide the pair themselves.
//
// The production pass asks Visible only about bitangent candidates (the
// tangent test at both ends, written out in the loop because a call per
// candidate costs more than the test), so its edges are the pairs that are
// mutually visible and tangent at every vertex end; the reference pass asks
// about every candidate by linear scan and keeps the full visibility graph.
// See the package doc for which distances that keeps exact. The production
// pass asks its last blocker first: neighbouring candidates hide behind it.
func (g *Graph) complete(u NodeID, cover float64) {
	n := &g.nodes[u]
	if n.seen < 0 {
		n.first, g.swept = g.clock, true
		g.clock++
		if g.opts.Metrics != nil {
			g.opts.Metrics.Sweeps++
		}
	}
	cover = max(cover, n.cover)
	// The candidates: every node when the radius grows, verts[seen:] when
	// only new vertices are left to test.
	ring := cover > n.cover
	lo, hi := int(n.seen), len(g.verts)
	if ring {
		lo, hi = 0, len(g.nodes)
	}
	last, walks := -1, uint64(0)
	for k := lo; k < hi; k++ {
		id := NodeID(k)
		if !ring {
			id = g.verts[k]
		}
		v := &g.nodes[id]
		// Skipped: entity pairs, since a shortest path never bends at an
		// entity, and points that arrived after u's first pass.
		if !v.alive || id == u || n.kind == EntityNode && v.kind == EntityNode || v.kind != VertexNode && v.born > n.first {
			continue
		}
		// Skipped: pairs already decided (a pass of v that covered everything
		// needs no distance to tell), and candidates beyond the radius.
		if math.IsInf(v.cover, 1) && v.has(n) {
			continue
		}
		d := v.pt.Sub(n.pt)
		if d2 := d.X*d.X + d.Y*d.Y; d2 > cover || n.tested(v, d2) || v.tested(n, d2) {
			continue
		}
		if !g.opts.UseSweep {
			if walks++; g.visibleLinear(n.pt, v.pt) {
				g.addEdge(u, id)
			}
			continue
		}
		m := tangentSlack * (math.Abs(d.X) + math.Abs(d.Y))
		if !n.tangent(d, m) || !v.tangent(d, m) {
			continue
		}
		switch b := g.blocker(n.pt, v.pt, 0, last, nil); {
		case b < 0:
			walks++
			g.addEdge(u, id)
		case b != last: // b == last: the last blocker settled it, no walk
			walks++
			last = b
		}
	}
	n.seen, n.cover = int32(len(g.verts)), cover
	if g.opts.Metrics != nil {
		g.opts.Metrics.Walks += walks
	}
}

// coverSlack is how far, relative to the bound, a bounded pass reaches
// beyond the bound left to it (reach).
const coverSlack = 1e-12

// reach returns the squared radius a pass at a node settled at dist must
// cover in a search bounded by bound: every candidate that relaxation could
// keep, dist + |uv| <= bound. The radius is rounded up by coverSlack of the
// bound, thousands of times the rounding of the subtraction and of the
// relaxation's sum, so rounding never loses an edge; the few candidates it
// admits beyond are tested needlessly, never wrongly.
func reach(dist, bound float64) float64 {
	if math.IsInf(bound, 1) {
		return bound
	}
	r := max(bound-dist+bound*coverSlack, 0)
	return r * r
}

// tangentSlack is the tangent test's margin relative to the two directions'
// L1 lengths: far above float64 rounding in a cross product (about 1e-16 of
// the same), so a pair the test drops is decided by the geometry, not by
// rounding, and a near-collinear one is kept for Visible to decide.
const tangentSlack = 1e-9

// tangent reports whether the line through n of direction d is tangent to n's
// obstacle at n: n's two boundary directions do not lie one above m and the
// other below -m in cross product with d, i.e. strictly on opposite sides of
// the line. A shortest path between points bends only at convex vertices it
// wraps around [LW79], and an edge that fails the test at a vertex end either
// turns into the obstacle there or passes the vertex without wrapping it, so
// no such path uses it. A point node has zero directions and passes. The test
// gives the same answer for -d, so it is symmetric in the edge's two ends.
func (n *gnode) tangent(d geom.Point, m float64) bool {
	c1 := d.X*n.prev.Y - d.Y*n.prev.X
	c2 := d.X*n.next.Y - d.Y*n.next.X
	return !(c1 > m && c2 < -m || c1 < -m && c2 > m)
}

// unitL1 scales d to unit L1 length, so the tangent test's margin is relative
// to the segment alone.
func unitL1(d geom.Point) geom.Point {
	l := math.Abs(d.X) + math.Abs(d.Y)
	return geom.Pt(d.X/l, d.Y/l)
}

// DeleteEntity removes an entity or terminal node and its incident edges
// (the delete_entity operation of Section 4). Obstacle vertices cannot be
// deleted.
func (g *Graph) DeleteEntity(id NodeID) {
	n := &g.nodes[id]
	if !n.alive || n.kind == VertexNode {
		return
	}
	for _, he := range n.adj {
		g.dropHalf(he.To, id)
		g.numEdges--
	}
	n.adj = n.adj[:0]
	n.alive = false
	g.live--
	g.free = append(g.free, id)
	if i := slices.Index(g.late, id); i >= 0 {
		g.late = slices.Delete(g.late, i, i+1)
	}
}
