// Package visgraph implements local visibility graphs over polygonal
// obstacles, the machinery behind obstructed-distance computation (Sections
// 3-6 of the paper). Nodes are obstacle vertices plus query/entity points;
// two nodes are connected iff they are mutually visible, i.e. the open
// segment between them crosses no obstacle interior. Shortest paths in this
// graph realize the obstructed distance [LW79].
//
// Adjacency is lazy. Build and AddObstacles only create vertex nodes; a
// node's visible set is computed by one visibility pass the first time a
// search expands it, so a search pays for the nodes it reaches and not for
// the O(n^2 log n) graph the paper builds up front. Edges are inserted
// symmetrically and every node remembers how many obstacle vertices its
// adjacency accounts for: when the graph has grown since, only the vertices
// added in between are tested, never the whole node again.
//
// The graph is dynamic, mirroring the operations the paper defines:
// AddObstacle incorporates a newly discovered obstacle (removing the
// materialised edges it blocks), AddEntity/AddTerminal incorporate points
// (these are searched from at once, so they compute their visible set
// immediately), and DeleteEntity removes a point once its distance
// computation is done.
//
// There is one visibility pass: every live candidate is tested with the exact
// predicate Visible (geom.Polygon.BlocksSegment against the obstacles near
// the segment), which is right for touching and for overlapping obstacles.
// Visible finds those obstacles in a uniform grid over their bounding boxes
// (grid.go), sized from the obstacle set itself. This is a stated deviation
// from the paper, which builds its graphs with the rotational plane sweep of
// [SS84]: entities sit on obstacle boundaries, so every pair a sweep accepts
// has to be confirmed by the exact test anyway, and once that test is cheap
// (a slab clip per rectangle, a grid walk per segment) asking it directly
// costs a third to a fifth of the sweep at every local-graph size measured —
// 38 vs 104 us per pass at 265 vertices, 127 vs 429 at 1,025, 400 vs 1,717 at
// 3,641, 880 vs 4,793 at 8,401 (CHANGES.md, PR 23) — so the sweep was deleted
// rather than kept beside it.
package visgraph

import "repro/internal/geom"

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
	// production pass: Visible through the obstacle grid. False is the
	// reference pass that only tests use as their oracle: every pair against
	// every obstacle by linear scan, no grid and no shortcut.
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
	// distance computation.
	Sweeps uint64
}

// Sub returns the work done between an earlier reading o and m.
func (m Metrics) Sub(o Metrics) Metrics {
	return Metrics{
		SettledNodes: m.SettledNodes - o.SettledNodes,
		Expansions:   m.Expansions - o.Expansions,
		Builds:       m.Builds - o.Builds,
		Sweeps:       m.Sweeps - o.Sweeps,
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
	// adj holds exactly the visible nodes among entities, terminals and
	// verts[:seen]. -1 until the node's first visibility pass.
	seen int32
	adj  []HalfEdge
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
	// edgeSet tracks undirected visibility edges for O(1) duplicate checks.
	edgeSet  map[uint64]bool
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
// be added dynamically.
func Build(opts Options, obstacles []Obstacle) *Graph {
	g := &Graph{
		opts:    opts,
		obstIDs: make(map[int64]int),
		edgeSet: make(map[uint64]bool),
	}
	if opts.Metrics != nil {
		opts.Metrics.Builds++
	}
	g.AddObstacles(obstacles)
	return g
}

func edgeKey(u, v NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
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

func (g *Graph) newNode(p geom.Point, kind Kind) NodeID {
	n := gnode{pt: p, kind: kind, alive: true, seen: -1}
	g.live++
	if len(g.free) > 0 {
		id := g.free[len(g.free)-1]
		g.free = g.free[:len(g.free)-1]
		g.nodes[id] = n
		return id
	}
	g.nodes = append(g.nodes, n)
	return NodeID(len(g.nodes) - 1)
}

func (g *Graph) addEdge(u, v NodeID) {
	if u == v {
		return
	}
	k := edgeKey(u, v)
	if g.edgeSet[k] {
		return
	}
	g.edgeSet[k] = true
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

func (g *Graph) removeEdge(u, v NodeID) {
	k := edgeKey(u, v)
	if !g.edgeSet[k] {
		return
	}
	delete(g.edgeSet, k)
	g.dropHalf(u, v)
	g.dropHalf(v, u)
	g.numEdges--
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
		for _, v := range ob.Poly.Vertices() {
			g.verts = append(g.verts, g.newNode(v, VertexNode))
		}
	}
	fresh := g.obstacles[first:]
	if len(fresh) == 0 {
		return 0
	}
	if g.grid.cell != 0 && !g.grid.extend(g.obstacles, first) {
		g.grid.cell = 0 // the next Visible rebuilds it
	}
	// Remove materialised edges blocked by any new polygon (one pass,
	// bounding boxes first); the new vertices have none yet.
	for u := range g.nodes {
		un := &g.nodes[u]
		if !un.alive {
			continue
		}
	adjLoop:
		for i := 0; i < len(un.adj); {
			v := un.adj[i].To
			if NodeID(u) < v {
				sb := geom.Seg(un.pt, g.nodes[v].pt).Bounds()
				for _, pg := range fresh {
					if pg.Bounds().Intersects(sb) && pg.BlocksSegment(un.pt, g.nodes[v].pt) {
						g.removeEdge(NodeID(u), v)
						continue adjLoop // adj shifted; re-check index i
					}
				}
			}
			i++
		}
	}
	return len(fresh)
}

// AddEntity adds a data point, connecting it to visible obstacle vertices
// and terminals but not to other entities (a shortest path never bends at an
// entity, so entity-entity edges cannot change any distance).
func (g *Graph) AddEntity(p geom.Point) NodeID {
	id := g.newNode(p, EntityNode)
	g.complete(id)
	return id
}

// AddTerminal adds a query endpoint, connecting it to every visible node
// including entities (paths start or end here, so direct edges matter).
func (g *Graph) AddTerminal(p geom.Point) NodeID {
	id := g.newNode(p, TerminalNode)
	g.complete(id)
	return id
}

// complete brings u's adjacency up to date with the graph: a node never
// expanded before gets one visibility pass over every live candidate; a node
// the graph has grown under is tested against just the vertices added since
// (blocked edges were already removed when the obstacles arrived). Edges go
// in symmetrically, so completing u never leaves a completed neighbour
// incomplete.
func (g *Graph) complete(u NodeID) {
	visible := g.visibleLinear
	if g.opts.UseSweep {
		visible = g.Visible
	}
	n := &g.nodes[u]
	if n.seen < 0 {
		if g.opts.Metrics != nil {
			g.opts.Metrics.Sweeps++
		}
		for i := range g.nodes {
			v := &g.nodes[i]
			// A shortest path never bends at an entity, so entities skip
			// each other.
			if !v.alive || NodeID(i) == u || (n.kind == EntityNode && v.kind == EntityNode) {
				continue
			}
			if visible(n.pt, v.pt) {
				g.addEdge(u, NodeID(i))
			}
		}
	} else {
		for _, v := range g.verts[n.seen:] {
			if visible(n.pt, g.nodes[v].pt) {
				g.addEdge(u, v)
			}
		}
	}
	n.seen = int32(len(g.verts))
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
		delete(g.edgeSet, edgeKey(id, he.To))
		g.numEdges--
	}
	n.adj = nil
	n.alive = false
	g.live--
	g.free = append(g.free, id)
}
