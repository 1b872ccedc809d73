package visgraph

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// Detour returns the shortest path from a to b that avoids the polygons pgs
// alone, as the points it passes appended to path, and its length, summed
// along it from a as a search from a sums it. A shortest path among
// obstacles bends only at their vertices [LW79], so it is the shortest path
// over a, b and the polygons' vertices with an edge wherever no polygon of
// pgs blocks the segment, by the test a pass makes: exact for any simple
// polygons, touching, overlapping and grazing included. The length is +Inf,
// and nothing is appended, when the polygons leave no path at all (a or b
// lies inside one, or inside a ring they close). A path that avoids a set of
// obstacles avoids each subset of it, so the length is a lower bound on the
// obstructed distance among any set that holds pgs.
func Detour(pgs []*geom.Polygon, a, b geom.Point, path []geom.Point) ([]geom.Point, float64) {
	var ptsBuf [18]geom.Point // up to four rectangles stay on the stack
	pts := append(ptsBuf[:0], a, b)
	for _, pg := range pgs {
		pts = append(pts, pg.Vertices()...)
	}
	type node struct {
		dist float64
		prev int
		done bool
	}
	var nodesBuf [len(ptsBuf)]node
	nodes := nodesBuf[:0]
	for range pts {
		nodes = append(nodes, node{dist: math.Inf(1), prev: -1})
	}
	// Dijkstra without a queue over a few dozen nodes at most, from a (node
	// 0) to b (node 1): only an edge that would shorten a distance is asked
	// whether a polygon blocks it.
	nodes[0].dist = 0
	for u := 0; u != 1; {
		nodes[u].done = true
		pu := pts[u]
		for v, pv := range pts {
			if nodes[v].done {
				continue
			}
			if d := nodes[u].dist + pu.Dist(pv); d < nodes[v].dist {
				sb, dir := geom.Seg(pu, pv).Bounds().Expand(geom.Eps), pv.Sub(pu)
				margin := clearMargin(dir)
				if !slices.ContainsFunc(pgs, func(pg *geom.Polygon) bool { return blocks(pg, pu, pv, sb, dir, margin) }) {
					nodes[v].dist, nodes[v].prev = d, u
				}
			}
		}
		u = -1
		for v := range nodes {
			if !nodes[v].done && !math.IsInf(nodes[v].dist, 1) && (u < 0 || nodes[v].dist < nodes[u].dist) {
				u = v
			}
		}
		if u < 0 {
			return path, math.Inf(1)
		}
	}
	from := len(path)
	for v := 1; v >= 0; v = nodes[v].prev {
		path = append(path, pts[v])
	}
	slices.Reverse(path[from:])
	return path, nodes[1].dist
}
