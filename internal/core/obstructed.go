package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/visgraph"
)

// obstructedDistance implements compute_obstructed_distance (Fig 8 of the
// paper): the shortest-path distance between two graph nodes is provisional
// until no obstacle outside the current search range can intersect the path,
// so the range is iteratively enlarged to the latest provisional distance
// and newly discovered obstacles are folded into the graph. The distance is
// monotonically non-decreasing across iterations; the loop stops when an
// enlargement discovers no new obstacle. Each iteration is one goal-directed
// search from np to nq, and the last one's route is still g.Path(nq) when
// the loop returns a finite distance.
//
// center must be the point of one of the two nodes (the paper centers ranges
// at the query point): any path of length L from it stays inside the disk of
// radius L, which is what makes the termination condition sound.
//
// searched is the radius already covered by the caller's initial graph.
// When the nodes are disconnected the range is doubled geometrically; once
// the range covers every obstacle and no path exists, the distance is +Inf
// (p is sealed off, a case the paper does not discuss but real data can
// produce).
func (s *Session) obstructedDistance(g *visgraph.Graph, np, nq visgraph.NodeID, center geom.Point, searched float64) (float64, error) {
	cover, err := s.coverRadius(center)
	if err != nil {
		return 0, err
	}
	for {
		if err := s.err(); err != nil {
			return 0, err
		}
		var d float64
		s.dijkstra(func() { d = g.ObstructedDist(np, nq) })
		// A cancellation mid-expansion leaves d unsettled (+Inf); without
		// this re-check the 'searched >= cover' branch would report a
		// reachable pair as proven-unreachable with a nil error.
		if err := s.err(); err != nil {
			return 0, err
		}
		var radius float64
		if math.IsInf(d, 1) {
			if searched >= cover {
				return d, nil // provably unreachable
			}
			radius = searched * 2
			if radius < geom.Eps {
				radius = 1
			}
			if radius > cover {
				radius = cover
			}
		} else {
			if d <= searched {
				// Every obstacle that could touch a path of length d is
				// already in the graph.
				return d, nil
			}
			radius = d
		}
		added, err := s.addObstaclesWithin(g, center, radius)
		if err != nil {
			return 0, err
		}
		if radius > searched {
			searched = radius
		}
		if !added && !math.IsInf(d, 1) {
			// Termination condition of Fig 8: the last enlargement found no
			// new obstacle, so the provisional distance is final.
			return d, nil
		}
		if !added && math.IsInf(d, 1) && searched >= cover {
			return d, nil
		}
	}
}

// pairSearch computes dO(a, b) from scratch: it builds a local visibility
// graph with the obstacles in the Euclidean range dE(a, b) around a (as in
// Fig 7) and runs the iterative enlargement from a's node to b's (returned,
// with the graph, for the route). The distance is +Inf when b is unreachable
// from a, including when either point lies strictly inside an obstacle (g is
// nil then).
func (s *Session) pairSearch(a, b geom.Point, st *Stats) (g *visgraph.Graph, nb visgraph.NodeID, d float64, err error) {
	st.Candidates = 1
	for _, p := range [2]geom.Point{a, b} {
		inside, err := s.InsideObstacle(p)
		if err != nil {
			return nil, 0, 0, err
		}
		if inside {
			st.FalseHits = 1
			return nil, 0, math.Inf(1), nil
		}
	}
	r := a.Dist(b)
	obs, err := s.relevantObstacles(a, r)
	if err != nil {
		return nil, 0, 0, err
	}
	g = s.buildGraph(obs)
	na := g.AddTerminal(a)
	nb = g.AddTerminal(b)
	st.DistComputations = 1
	d, err = s.obstructedDistance(g, na, nb, a, r)
	st.GraphNodes, st.GraphEdges = g.NumNodes(), g.NumEdges()
	if err == nil && !math.IsInf(d, 1) {
		st.Results = 1
	} else if err == nil {
		st.FalseHits = 1
	}
	return g, nb, d, err
}

// ObstructedPath returns a shortest obstacle-avoiding path from a to b as a
// point sequence (bending only at obstacle vertices, per [LW79]) together
// with its length. The path is nil and the length +Inf when b is
// unreachable. The path is the one the final search of the iterative
// enlargement found.
func (s *Session) ObstructedPath(a, b geom.Point) (_ []geom.Point, _ float64, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	g, nb, d, err := s.pairSearch(a, b, &st)
	if err != nil || math.IsInf(d, 1) {
		return nil, d, st, err
	}
	nodes := g.Path(nb)
	path := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		path[i] = g.Point(n)
	}
	return path, d, st, nil
}

// ObstructedDistance computes dO(a, b); +Inf when b is unreachable from a.
func (s *Session) ObstructedDistance(a, b geom.Point) (_ float64, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	_, _, d, err := s.pairSearch(a, b, &st)
	return d, st, err
}
