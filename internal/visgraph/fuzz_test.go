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

// diff drives a lazy graph (indexed pass) and an always fully materialised
// oracle (reference pass: every obstacle by linear scan, no grid) through the
// same operations; node ids coincide because both allocate slots the same
// way. Batches grow the lazy graph's grid in place, past its bounds and past
// twice its count, so every way the grid comes about is compared.
type diff struct {
	t            *testing.T
	lazy, oracle *Graph
	pool         []Obstacle // not yet added
	added        []Obstacle
	pts          []geom.Point // where entities and terminals may go
	points       []NodeID     // live entities and terminals
}

func newDiff(t *testing.T, seed int64, street bool) *diff {
	rng := rand.New(rand.NewSource(seed))
	var rects []geom.Rect
	size := 100.0
	if street {
		rects, size = streetRects(rng, 16), 70
	} else {
		rects = disjointRects(rng, 16, size)
	}
	d := &diff{t: t}
	for i, r := range rects {
		d.pool = append(d.pool, rectObstacle(int64(i), r))
		// Points on the boundary: a corner (coincident with a vertex) and a
		// side midpoint.
		d.pts = append(d.pts, geom.Pt(r.MinX, r.MinY), geom.Pt((r.MinX+r.MaxX)/2, r.MaxY))
	}
	for i := 0; i < 12; i++ {
		d.pts = append(d.pts, freePoint(rng, rects, size))
	}
	first := rng.Intn(6)
	d.lazy = Build(Options{UseSweep: true}, d.pool[:first])
	d.oracle = Build(Options{UseSweep: false}, d.pool[:first])
	d.added, d.pool = d.pool[:first:first], d.pool[first:]
	materialise(d.oracle)
	return d
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
		if op%8 == 4 {
			if got := d.lazy.ObstructedDist(from, to); got != want {
				t.Fatalf("ObstructedDist(%d, %d): lazy %v, oracle %v", from, to, got, want)
			}
			return
		}
		path, got := d.lazy.ShortestPath(from, to)
		if got != want {
			t.Fatalf("ShortestPath(%d, %d): lazy %v, oracle %v", from, to, got, want)
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
		}
		type visit struct {
			n    NodeID
			dist float64
		}
		var want, got []visit
		d.oracle.Expand(from, bound, func(n NodeID, dist float64) bool {
			want = append(want, visit{n, dist})
			return true
		})
		d.lazy.Expand(from, bound, func(n NodeID, dist float64) bool {
			got = append(got, visit{n, dist})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("Expand(%d, %v): lazy visited %d nodes, oracle %d", from, bound, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Expand(%d, %v) visit %d: lazy %v, oracle %v", from, bound, i, got[i], want[i])
			}
		}
	}
	if op%8 <= 3 {
		materialise(d.oracle)
	}
	d.checkAdjacency()
}

// checkAdjacency is the lazy invariant: every materialised edge is an oracle
// edge, and a node whose stamp says it is up to date has exactly the
// oracle's neighbours.
func (d *diff) checkAdjacency() {
	for id := range d.lazy.nodes {
		n := &d.lazy.nodes[id]
		if !n.alive {
			continue
		}
		want := make(map[NodeID]bool)
		for _, he := range d.oracle.nodes[id].adj {
			want[he.To] = true
		}
		for _, he := range n.adj {
			if !want[he.To] {
				d.t.Fatalf("lazy edge %d-%d (%v-%v) is not in the oracle", id, he.To, n.pt, d.lazy.nodes[he.To].pt)
			}
		}
		if int(n.seen) == len(d.lazy.verts) && len(n.adj) != len(want) {
			d.t.Fatalf("node %d is stamped complete with %d neighbours, oracle has %d", id, len(n.adj), len(want))
		}
	}
}

// FuzzLazyMatchesOracle interleaves Build / AddObstacles / AddTerminal /
// AddEntity / DeleteEntity (freed slots are reused by whatever node comes
// next) with ObstructedDist, ShortestPath and bounded Expand, on random and
// on street scenes, and requires the lazy indexed graph to answer exactly as
// the fully materialised reference one: equal distances, equal Expand visit
// order, and paths whose legs are mutually visible and sum to their length.
func FuzzLazyMatchesOracle(f *testing.F) {
	// One program per seed scene: grow-search-grow-search with deletions in
	// between, then sweeps of every query kind.
	program := []byte{
		1, 40, 0, 1, 33, 0, 4, 1, 2, 0, 2, 0, 5, 1, 2, 2, 5, 0, 3, 0, 0, 0, 1, 1, 1, 7, 0,
		6, 1, 0, 7, 2, 40, 0, 3, 2, 4, 4, 5, 5, 0, 9, 2, 3, 0, 6, 0, 0, 1, 36, 0, 5, 2, 1,
		0, 3, 3, 4, 1, 5, 7, 4, 90, 6, 3, 0, 0, 2, 1, 5, 6, 9, 4, 12, 2,
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, false, program)
		f.Add(seed, true, program)
	}
	f.Fuzz(func(t *testing.T, seed int64, street bool, prog []byte) {
		d := newDiff(t, seed, street)
		for i := 0; i+2 < len(prog) && i < 3*48; i += 3 {
			d.step(prog[i], prog[i+1], prog[i+2])
		}
	})
}
