package visgraph

import (
	"math"
	"slices"
)

// slot is one node's state in the current search.
type slot struct {
	gen    uint32 // the search best, parent and done belong to
	done   bool   // settled: best is final
	parent NodeID
	best   float64
}

// pqItem is a priority-queue element: dist is the length of the best known
// path from the source, key what the queue orders by — dist itself for
// Dijkstra's algorithm [D59], dist plus the Euclidean distance to the target
// for A*.
type pqItem struct {
	node      NodeID
	dist, key float64
}

// before orders the queue: smallest key first; among equal keys the item
// nearer the target (larger dist; equal in a Dijkstra search), then the
// smaller node id, so the settling order depends on the graph's edge set and
// not on the order its edges were materialised in.
func (a pqItem) before(b pqItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	return a.node < b.node
}

// minHeap is a binary heap of pqItems; typed, so pushes do not box.
type minHeap []pqItem

func (h *minHeap) push(it pqItem) {
	q := append(*h, it)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *minHeap) pop() pqItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// interruptEvery is how many settled nodes pass between Interrupt polls on
// materialised adjacency: a large enough stride that polling is free, small
// enough that cancellation lands within microseconds on real graphs. Nodes
// whose adjacency is still to be computed poll before doing so.
const interruptEvery = 64

// search is the one shortest-path loop. It settles nodes in ascending key,
// calling visit (when non-nil) on each; visit returns false to stop. A
// relaxation whose key exceeds bound is dropped. Duplicates in the queue are
// skipped on dequeue, as in Fig 5 of the paper. Only the source and obstacle
// vertices are expanded: a shortest path never bends at a point [LW79]. An
// expanded node's adjacency is brought up to date (complete) before it is
// relaxed, within the bound left to it, which is the only place
// obstacle-vertex visibility is ever computed; the points that decide their
// own pairs (see the package doc) are brought up to the bound first.
//
// Without a target the key is the distance from source, so the search settles
// exactly the nodes within bound. With a target (not Invalid) the search is
// A* under the Euclidean lower bound — consistent, so settled distances are
// still exact — and the key is the distance plus the Euclidean distance left
// to the target, a lower bound on any path through the node: a bounded search
// drops only nodes no path of length <= bound passes, and settles the same
// nodes as an unbounded one up to the target. It stops at the target,
// returning its distance; parents of the settled nodes stay in the graph's
// scratch for Path. In every other case (no target, target not reached within
// bound, visit stopped the search, Options.Interrupt fired) it returns +Inf;
// callers that wire Interrupt check their context after every search.
func (g *Graph) search(source, target NodeID, bound float64, visit func(n NodeID, dist float64) bool) float64 {
	m := g.opts.Metrics
	if m != nil {
		m.Expansions++
	}
	if !g.passLate(reach(0, bound)) {
		return math.Inf(1)
	}
	if g.gen++; g.gen == 0 { // wrapped: no slot may look current
		clear(g.slots)
		g.gen = 1
	}
	for len(g.slots) < len(g.nodes) {
		g.slots = append(g.slots, slot{})
	}
	g.slots[source] = slot{gen: g.gen, parent: Invalid}
	g.queue = append(g.queue[:0], pqItem{node: source})
	sinceCheck := 0
	for len(g.queue) > 0 {
		it := g.queue.pop()
		u := it.node
		if g.slots[u].done {
			continue
		}
		g.slots[u].done = true
		if m != nil {
			m.SettledNodes++
		}
		if visit != nil && !visit(u, it.dist) {
			break
		}
		if u == target {
			return it.dist
		}
		n := &g.nodes[u]
		if n.kind != VertexNode && u != source {
			continue
		}
		sinceCheck++
		cover := reach(it.dist, bound)
		if stale := int(n.seen) != len(g.verts) || n.cover < cover; stale || sinceCheck >= interruptEvery {
			sinceCheck = 0
			if g.opts.Interrupt != nil && g.opts.Interrupt() {
				break
			}
			if stale {
				g.complete(u, cover)
			}
		}
		for _, he := range n.adj {
			s := &g.slots[he.To]
			if s.gen != g.gen {
				*s = slot{gen: g.gen, best: math.Inf(1)}
			}
			d := it.dist + he.Weight
			if s.done || d >= s.best {
				continue
			}
			key := d
			if target != Invalid {
				// The lower bound is the same Dist that weighs the edges, so
				// the triangle inequality that makes it consistent holds in
				// floating point as well as it does for the edges themselves.
				key += g.nodes[he.To].pt.Dist(g.nodes[target].pt)
			}
			if key > bound {
				continue
			}
			s.best, s.parent = d, u
			g.queue.push(pqItem{node: he.To, dist: d, key: key})
		}
	}
	return math.Inf(1)
}

// passLate brings every late point (Graph.late) to the squared radius cover
// before a search, polling Interrupt before each pass; it reports false when
// the search is to abort. A point whose pass covered everything needs none
// again: the vertices added after it test it themselves.
func (g *Graph) passLate(cover float64) bool {
	keep := g.late[:0]
	for i, id := range g.late {
		n := &g.nodes[id]
		if n.cover < cover {
			if g.opts.Interrupt != nil && g.opts.Interrupt() {
				g.late = append(keep, g.late[i:]...)
				return false
			}
			g.complete(id, cover)
		}
		if !math.IsInf(n.cover, 1) {
			keep = append(keep, id)
		}
	}
	g.late = keep
	return true
}

// Expand runs Dijkstra's algorithm from source, visiting settled nodes in
// ascending distance order while the distance does not exceed bound. The
// visit callback returns false to stop the expansion. This is the traversal
// the OR algorithm uses to refine all candidates with a single expansion
// around the query point (Fig 5 of the paper). When Options.Interrupt fires,
// the expansion aborts mid-flight; the caller is responsible for noticing
// (sessions check their context after every expansion).
func (g *Graph) Expand(source NodeID, bound float64, visit func(n NodeID, dist float64) bool) {
	g.search(source, Invalid, bound, visit)
}

// ObstructedDist returns the shortest obstructed distance between two nodes
// (+Inf when disconnected, or when Options.Interrupt fired).
func (g *Graph) ObstructedDist(from, to NodeID) float64 {
	return g.search(from, to, math.Inf(1), nil)
}

// BoundedDist is ObstructedDist under a bound: the A* search drops every node
// whose key — distance so far plus Euclidean distance left — exceeds it, and
// +Inf also means "no path of length <= bound".
func (g *Graph) BoundedDist(from, to NodeID, bound float64) float64 {
	return g.search(from, to, bound, nil)
}

// ShortestPath returns a shortest node sequence from source to target and
// its length; the path is nil and the length +Inf when target is
// unreachable.
func (g *Graph) ShortestPath(source, target NodeID) ([]NodeID, float64) {
	d := g.search(source, target, math.Inf(1), nil)
	return g.Path(target), d
}

// Path returns the node sequence from the most recent search's source to
// target, nil when that search did not settle target. The Fig 8 loop searches
// once per enlargement and wants the route of the last search only. Valid
// until the graph is next searched or changed.
func (g *Graph) Path(target NodeID) []NodeID {
	if int(target) >= len(g.slots) || g.slots[target].gen != g.gen || !g.slots[target].done {
		return nil
	}
	var path []NodeID
	for n := target; n != Invalid; n = g.slots[n].parent {
		path = append(path, n)
	}
	slices.Reverse(path)
	return path
}
