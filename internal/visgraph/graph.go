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
// the O(n^2 log n) graph the paper builds up front. Each unordered pair is
// decided once, by the first pass to reach it from either end (gnode.born
// says how a pass knows), and its edge goes into both adjacencies. Every node
// remembers how many obstacle vertices its adjacency accounts for: when the
// graph has grown since, only the vertices added in between are tested.
//
// The graph is dynamic, mirroring the operations the paper defines:
// AddObstacle incorporates a newly discovered obstacle (removing the
// materialised edges it blocks), AddEntity/AddTerminal incorporate points
// (these are searched from at once, so they compute their visible set
// immediately), and DeleteEntity removes a point once its distance
// computation is done.
//
// A graph's storage outlives the graph. Release hands it to the next Build,
// which reuses the node array with every node's adjacency array, the id map,
// the vertex list, the obstacle grid and the search scratch, so
// queries that build one small graph after another — a join's seeds, the
// requests of a server — allocate no graph storage once warm. Only a graph's
// owner releases it, once nothing reads it any more: a query releases its
// local graphs when its answer has been read out of them, and a graph kept
// for other queries (a graph-cache entry) is never released.
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
	// expands it, one per AddEntity/AddTerminal — the dominant cost of
	// distance computation. A pass tests the undecided pairs against the
	// tangent filter and asks Visible only about those that pass (complete).
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
	pt    geom.Point
	kind  Kind
	alive bool
	// seen is how many obstacle vertices (in g.verts order) adj accounts for:
	// adj holds exactly the edges (see complete) among entities, terminals and
	// verts[:seen]. -1 until the node's first visibility pass.
	seen int32
	// born is len(g.verts) when the node arrived: a vertex's own index there.
	// A pass of u skips a candidate v with v.seen > u.born, as some pass of v
	// has decided the pair: a first pass that set v.seen above u.born ran
	// after u arrived and tested every live node, and a top-up that raised it
	// from at most u.born tested verts[old seen:], u included if a vertex (a
	// point u never meets that case: its first pass runs as it arrives, its
	// top-ups meet only vertices born later). u asks the rule in its first
	// pass and its top-ups, the passes in which it has not decided the pair
	// itself; once u has asked v, v's passes skip u or never test it.
	born int32
	adj  []HalfEdge
	// prev and next are an obstacle vertex's two boundary directions, toward
	// the polygon's previous and next vertex, scaled to unit L1 length; zero
	// for a point node, which makes every line tangent to it.
	prev, next geom.Point
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
	verts    []NodeID
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

// Retarget rebinds the graph's per-query hooks: subsequent work counts into
// m (may be nil) and searches poll interrupt (may be nil). Graphs cached
// across queries are retargeted to each acquiring query in turn, so work and
// cancellation attribute to the query actually running, not the one that
// originally built the graph.
func (g *Graph) Retarget(m *Metrics, interrupt func() bool) {
	g.opts.Metrics = m
	g.opts.Interrupt = interrupt
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
	g.verts, g.free, g.slots = g.verts[:0], g.free[:0], g.slots[:0]
	g.numEdges, g.live = 0, 0
	g.grid.cell = 0
	return g
}

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return g.live }

// NumObstacles returns the number of obstacles incorporated so far.
func (g *Graph) NumObstacles() int { return len(g.obstacles) }

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
	n := &g.nodes[id]
	*n = gnode{pt: p, kind: kind, alive: true, seen: -1, born: int32(len(g.verts)), adj: n.adj[:0]}
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
	blocked := func(a, b geom.Point) bool { return g.blocker(a, b, first, -1) >= 0 }
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

// AddEntity adds a data point, connecting it to visible obstacle vertices
// and terminals but not to other entities (a shortest path never bends at an
// entity, so entity-entity edges cannot change any terminal's distance). Its
// edges to vertices are the bitangent ones, which keeps its distance from
// every terminal exact; its graph distance to another entity is a detour
// through vertices, not an obstructed distance.
func (g *Graph) AddEntity(p geom.Point) NodeID {
	id := g.newNode(p, EntityNode)
	g.complete(id)
	return id
}

// AddTerminal adds a query endpoint, connecting it to every visible node
// including entities (paths start or end here, so direct edges matter) —
// to a vertex only where the edge is tangent at that vertex. Distances from
// a terminal to terminals and entities are exact.
func (g *Graph) AddTerminal(p geom.Point) NodeID {
	id := g.newNode(p, TerminalNode)
	g.complete(id)
	return id
}

// complete brings u's adjacency up to date with the graph: a node never
// expanded before gets one visibility pass over every live candidate; a node
// the graph has grown under is tested against just the vertices added since
// (blocked edges were already removed when the obstacles arrived). A pass
// skips the pairs decided from their other end (gnode.born) and puts an edge
// into both adjacencies, so no completed neighbour is left incomplete.
//
// The production pass asks Visible only about bitangent candidates (the
// tangent test at both ends, written out in the loop because a call per
// candidate costs more than the test), so its edges are the pairs that are
// mutually visible and tangent at every vertex end; the reference pass asks
// about every candidate by linear scan and keeps the full visibility graph.
// See the package doc for which distances that keeps exact. The production
// pass asks its last blocker first: neighbouring candidates hide behind it.
func (g *Graph) complete(u NodeID) {
	n := &g.nodes[u]
	// The candidates: every node on a first pass, verts[lo:] on a top-up.
	top := n.seen >= 0
	lo, hi := 0, len(g.nodes)
	if top {
		lo, hi = int(n.seen), len(g.verts)
	} else if g.opts.Metrics != nil {
		g.opts.Metrics.Sweeps++
	}
	last, walks := -1, uint64(0)
	for k := lo; k < hi; k++ {
		id := NodeID(k)
		if top {
			id = g.verts[k]
		}
		v := &g.nodes[id]
		// Skipped: pairs decided from v's end (gnode.born), and entity pairs,
		// since a shortest path never bends at an entity.
		if !v.alive || id == u || v.seen > n.born || (n.kind == EntityNode && v.kind == EntityNode) {
			continue
		}
		if !g.opts.UseSweep {
			if walks++; g.visibleLinear(n.pt, v.pt) {
				g.addEdge(u, id)
			}
			continue
		}
		d := v.pt.Sub(n.pt)
		m := tangentSlack * (math.Abs(d.X) + math.Abs(d.Y))
		if !n.tangent(d, m) || !v.tangent(d, m) {
			continue
		}
		switch b := g.blocker(n.pt, v.pt, 0, last); {
		case b < 0:
			walks++
			g.addEdge(u, id)
		case b != last: // b == last: the last blocker settled it, no walk
			walks++
			last = b
		}
	}
	n.seen = int32(len(g.verts))
	if g.opts.Metrics != nil {
		g.opts.Metrics.Walks += walks
	}
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
}
