package visgraph

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// sweepVisible computes the nodes visible from p with a rotational plane
// sweep [SS84]: candidates are sorted by angle around p and a status
// structure of "open" obstacle edges — those crossing the current sweep ray,
// ordered by distance along it — decides visibility by examining only the
// closest open edge. Collinear candidate chains and interior diagonals are
// handled explicitly.
//
// The classic sweep assumes all graph nodes are polygon vertices. The
// paper's graphs also contain entities that lie exactly on obstacle
// boundaries, whose sight lines can dive into a polygon's interior without
// properly crossing any boundary edge (an interior chord). To stay sound in
// those configurations, every pair the status structure accepts is verified
// with an exact interior-crossing test against the obstacle set (cheap:
// bounding-box filtered, and only accepted pairs pay it); the status check
// still prunes the expensive common case of blocked pairs in dense scenes.
func (g *Graph) sweepVisible(p geom.Point, self NodeID, includeEntities bool) []NodeID {
	// Gather live candidates (into the reusable scratch buffer).
	cands := g.sweepCands[:0]
	for i := range g.nodes {
		id := NodeID(i)
		n := &g.nodes[i]
		if !n.alive || id == self {
			continue
		}
		if !includeEntities && n.kind == EntityNode {
			continue
		}
		a := math.Atan2(n.pt.Y-p.Y, n.pt.X-p.X)
		if a < 0 {
			a += 2 * math.Pi
		}
		cands = append(cands, cand{id: id, angle: a, dist: p.Dist(n.pt)})
	}
	sort.Sort(cands)
	g.sweepCands = cands

	// Initialize the status with edges crossing the ray from p along +x.
	// Edges with an endpoint on the ray are skipped here; the insert/remove
	// rules at their endpoints account for them.
	st := &status{g: g, p: p, open: g.stOpen[:0]}
	defer func() { g.stOpen = st.open[:0] }()
	rayEnd := geom.Pt(p.X+1, p.Y) // direction only; tests use the line through it
	for ei := range g.edges {
		e := &g.edges[ei]
		if e.a == self || e.b == self {
			continue
		}
		pa, pb := g.nodes[e.a].pt, g.nodes[e.b].pt
		if pa.Eq(p) || pb.Eq(p) {
			continue
		}
		if rayCrossesEdge(p, pa, pb) {
			st.insert(rayEnd, ei)
		}
	}

	visible := g.sweepVis[:0]
	prev := Invalid
	prevVisible := false
	for _, c := range cands {
		w := g.nodes[c.id].pt
		if c.dist <= geom.Eps {
			// Coincident with p: trivially reachable at distance 0.
			visible = append(visible, c.id)
			prev, prevVisible = c.id, true
			continue
		}
		// Remove open edges incident to w lying clockwise of the ray p->w.
		for _, ei := range g.nodes[c.id].incident {
			other := g.edgeOther(int(ei), c.id)
			if geom.Orientation(p, w, g.nodes[other].pt) == -1 {
				st.remove(int(ei))
			}
		}

		// Every rejection below cites a true witness of blockage (a proper
		// transversal crossing of an obstacle edge, or an interior midpoint),
		// so the sweep never over-blocks; acceptances are exactly verified
		// afterwards, so it never under-blocks either. The status structure
		// is purely an accelerator.
		isVisible := false
		collinearChain := prev != Invalid &&
			geom.Orientation(p, g.nodes[prev].pt, w) == 0 &&
			geom.OnSegment(g.nodes[prev].pt, p, w)
		if !collinearChain {
			if st.empty() {
				isVisible = true
			} else if !g.edgeProperlyCrosses(st.smallest(), p, w) {
				isVisible = true
			}
		} else if !prevVisible {
			// p->w contains the blocked sub-segment p->prev.
			isVisible = false
		} else {
			// prev lies on segment p-w and is visible: w is visible unless
			// an open edge properly crosses the gap prev-w, or the gap runs
			// through the interior of prev's polygon.
			isVisible = true
			pv := g.nodes[prev].pt
			for _, ei := range st.open {
				if g.edgeProperlyCrosses(ei, pv, w) {
					isVisible = false
					break
				}
			}
			if isVisible && g.segmentInsidePolygon(pv, w, prev, c.id) {
				isVisible = false
			}
		}
		// Reject interior diagonals of the candidate's own polygon.
		if isVisible && !g.boundaryAdjacent(self, c.id) && g.segmentInsidePolygon(p, w, self, c.id) {
			isVisible = false
		}
		// Exact verification of accepted pairs (see the function comment).
		if isVisible && !g.Visible(p, w) {
			isVisible = false
		}
		if isVisible {
			visible = append(visible, c.id)
		}

		// Insert open edges incident to w lying counter-clockwise of p->w.
		for _, ei := range g.nodes[c.id].incident {
			e := &g.edges[ei]
			if e.a == self || e.b == self {
				continue
			}
			other := g.edgeOther(int(ei), c.id)
			if geom.Orientation(p, w, g.nodes[other].pt) == 1 {
				st.insert(w, int(ei))
			}
		}
		prev, prevVisible = c.id, isVisible
	}
	g.sweepVis = visible
	return visible
}

// cand is one sweep candidate, pre-sorted by (angle, distance, id); the id
// tie-break keeps the sweep deterministic for coincident points.
type cand struct {
	id    NodeID
	angle float64
	dist  float64
}

type candSlice []cand

func (c candSlice) Len() int { return len(c) }
func (c candSlice) Less(i, j int) bool {
	if c[i].angle != c[j].angle {
		return c[i].angle < c[j].angle
	}
	if c[i].dist != c[j].dist {
		return c[i].dist < c[j].dist
	}
	return c[i].id < c[j].id
}
func (c candSlice) Swap(i, j int) { c[i], c[j] = c[j], c[i] }

// edgeOther returns the endpoint of edge ei that is not n.
func (g *Graph) edgeOther(ei int, n NodeID) NodeID {
	e := &g.edges[ei]
	if e.a == n {
		return e.b
	}
	return e.a
}

// edgeProperlyCrosses reports whether obstacle edge ei crosses segment ab
// transversally at a point interior to both. Such a crossing always
// penetrates the polygon's interior, so it is a sound witness of blockage;
// touches and collinear overlaps (grazes, slides, boundary endpoints) are
// deliberately not counted.
func (g *Graph) edgeProperlyCrosses(ei int, a, b geom.Point) bool {
	e := &g.edges[ei]
	return geom.Seg(a, b).ProperCross(geom.Seg(g.nodes[e.a].pt, g.nodes[e.b].pt))
}

// segmentInsidePolygon reports whether the segment between nodes u (possibly
// Invalid, meaning a free point a) and v runs through the interior of a
// polygon both endpoints belong to.
func (g *Graph) segmentInsidePolygon(a, b geom.Point, u, v NodeID) bool {
	var pu, pv int = -1, -1
	if u != Invalid {
		pu = g.nodes[u].poly
	}
	if v != Invalid {
		pv = g.nodes[v].poly
	}
	if pu < 0 || pu != pv {
		return false
	}
	mid := geom.Seg(a, b).Midpoint()
	return g.obstacles[pu].ContainsStrict(mid)
}

// boundaryAdjacent reports whether u and v are consecutive vertices of the
// same polygon (connected along the boundary, hence always visible).
func (g *Graph) boundaryAdjacent(u, v NodeID) bool {
	if u == Invalid || v == Invalid {
		return false
	}
	nu, nv := &g.nodes[u], &g.nodes[v]
	if nu.poly < 0 || nu.poly != nv.poly {
		return false
	}
	n := g.obstacles[nu.poly].NumVertices()
	d := nu.vert - nv.vert
	if d < 0 {
		d = -d
	}
	return d == 1 || d == n-1
}

// rayCrossesEdge reports whether the open horizontal ray from p in +x
// direction properly crosses the edge (a, b), using the half-open rule
// (lower endpoint inclusive, upper exclusive) so endpoints on the ray are
// not counted.
func rayCrossesEdge(p, a, b geom.Point) bool {
	if a.Y > b.Y {
		a, b = b, a
	}
	if a.Y > p.Y || b.Y <= p.Y {
		return false
	}
	if b.Y == a.Y {
		return false
	}
	x := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
	return x > p.X+geom.Eps
}

// status is the open-edge structure of the sweep: edge indexes ordered by
// distance from p along the current sweep ray. For disjoint obstacles the
// relative order of two open edges never changes while both stay open, so
// insertion ordering by the current ray keeps the slice sorted.
type status struct {
	g    *Graph
	p    geom.Point
	open []int
}

func (s *status) empty() bool   { return len(s.open) == 0 }
func (s *status) smallest() int { return s.open[0] }

// insert adds edge ei, positioned by comparisons along the ray p->w. The
// inserted edge's distance along the ray is computed once, not per
// comparison.
func (s *status) insert(w geom.Point, ei int) {
	a1, b1 := s.edgePoints(ei)
	d1 := s.rayEdgeDist(w, a1, b1)
	lo, hi := 0, len(s.open)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.lessWithDist(w, ei, d1, s.open[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.open = append(s.open, 0)
	copy(s.open[lo+1:], s.open[lo:])
	s.open[lo] = ei
}

// remove deletes edge ei if present.
func (s *status) remove(ei int) {
	for i, e := range s.open {
		if e == ei {
			s.open = append(s.open[:i], s.open[i+1:]...)
			return
		}
	}
}

// lessWithDist reports whether edge e1 (whose distance along the ray p->w
// is d1) lies closer to p than edge e2, breaking shared-endpoint ties by
// the orientation of the far endpoints (the _less_than predicate of the
// classic sweep).
func (s *status) lessWithDist(w geom.Point, e1 int, d1 float64, e2 int) bool {
	if e1 == e2 {
		return false
	}
	a1, b1 := s.edgePoints(e1)
	a2, b2 := s.edgePoints(e2)
	if !geom.Seg(s.p, w).Intersects(geom.Seg(a2, b2)) {
		return true
	}
	d2 := s.rayEdgeDist(w, a2, b2)
	if d1 > d2+geom.Eps {
		return false
	}
	if d1 < d2-geom.Eps {
		return true
	}
	// Equal distance: the edges meet the ray at a shared endpoint. Compare
	// the angles their far endpoints make with the ray.
	var shared, far1, far2 geom.Point
	switch {
	case a1.Eq(a2):
		shared, far1, far2 = a1, b1, b2
	case a1.Eq(b2):
		shared, far1, far2 = a1, b1, a2
	case b1.Eq(a2):
		shared, far1, far2 = b1, a1, b2
	default:
		shared, far1, far2 = b1, a1, a2
	}
	return interiorAngle(shared, w, far1) < interiorAngle(shared, w, far2)
}

func (s *status) edgePoints(ei int) (geom.Point, geom.Point) {
	e := &s.g.edges[ei]
	return s.g.nodes[e.a].pt, s.g.nodes[e.b].pt
}

// rayEdgeDist returns the distance from p to the intersection of the line
// p->w with the edge (a, b); 0 when p lies on the edge.
func (s *status) rayEdgeDist(w geom.Point, a, b geom.Point) float64 {
	if geom.OnSegment(s.p, a, b) {
		return 0
	}
	if w.Eq(a) || geom.OnSegment(w, a, b) {
		return s.p.Dist(w)
	}
	ts, _, ok := geom.Seg(s.p, w).IntersectionParams(geom.Seg(a, b))
	if !ok {
		// Edge parallel to the ray: nearest endpoint distance.
		return math.Min(s.p.Dist(a), s.p.Dist(b))
	}
	return s.p.Dist(geom.Seg(s.p, w).At(ts))
}

// interiorAngle returns the angle at vertex b in the triangle a-b-c.
func interiorAngle(b, a, c geom.Point) float64 {
	v1 := a.Sub(b)
	v2 := c.Sub(b)
	l1, l2 := math.Hypot(v1.X, v1.Y), math.Hypot(v2.X, v2.Y)
	if l1 <= geom.Eps || l2 <= geom.Eps {
		return 0
	}
	cos := v1.Dot(v2) / (l1 * l2)
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return math.Acos(cos)
}
