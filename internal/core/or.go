package core

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/visgraph"
)

// Range answers an obstacle range query (OR, Fig 5): all entities of P
// within obstructed distance radius of q, with their distances, sorted by
// distance. The algorithm retrieves the Euclidean candidates and the
// relevant obstacles with two circular range queries, builds one local
// visibility graph, and refines every candidate with a single Dijkstra
// expansion around q.
func (s *Session) Range(P *PointSet, q geom.Point, radius float64) (_ []Result, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	if err := s.err(); err != nil {
		return nil, st, err
	}
	// Step 1: candidate entities within Euclidean range (no false misses by
	// the lower-bound property).
	type cand struct {
		id int64
		pt geom.Point
	}
	var cands []cand
	err := s.pointTree(P).SearchCircle(q, radius, func(it rtree.Item) bool {
		cands = append(cands, cand{id: it.Data, pt: it.Rect.Center()})
		return true
	})
	if err != nil {
		return nil, st, fmt.Errorf("core: range candidates: %w", err)
	}
	st.Candidates = len(cands)
	// Step 2: relevant obstacles — only obstacles intersecting the disk can
	// influence paths of length <= radius. As in Fig 5, this range query
	// runs unconditionally (even for an empty candidate set), which is what
	// keeps the obstacle R-tree I/O independent of |P| in Fig 13.
	obs, err := s.relevantObstacles(q, radius)
	if err != nil {
		return nil, st, err
	}
	if len(cands) == 0 {
		return nil, st, nil
	}
	if inside, err := s.InsideObstacle(q); err != nil || inside {
		// A blocked query point reaches nothing; all candidates are false
		// hits.
		st.FalseHits = st.Candidates
		return nil, st, err
	}
	// Step 3: local visibility graph over obstacles, candidates and q.
	g := s.buildGraph(obs)
	remaining := make(map[visgraph.NodeID]cand, len(cands))
	for _, c := range cands {
		remaining[g.AddEntity(c.pt)] = c
	}
	nq := g.AddTerminal(q)
	st.DistComputations = 1
	// Step 4: one bounded expansion removes all false hits; entities are
	// reported the first time they are dequeued, duplicates are skipped
	// inside Expand.
	var out []Result
	s.dijkstra(func() {
		g.Expand(nq, radius, func(n visgraph.NodeID, d float64) bool {
			if c, ok := remaining[n]; ok {
				out = append(out, Result{ID: c.id, Pt: c.pt, Dist: d})
				delete(remaining, n)
			}
			return len(remaining) > 0
		})
	})
	// Read after the search: the search is what materialises edges.
	st.GraphNodes, st.GraphEdges = g.NumNodes(), g.NumEdges()
	if err := s.err(); err != nil {
		return nil, st, err
	}
	st.Results = len(out)
	st.FalseHits = st.Candidates - st.Results
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out, st, nil
}
