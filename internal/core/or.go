package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/rtree"
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
	var cands []Result
	err := s.pointTree(P).SearchCircle(q, radius, func(it rtree.Item) bool {
		cands = append(cands, Result{ID: it.Data, Pt: it.Rect.Center()})
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
	f := s.newField(q, radius, &st)
	defer f.close()
	if err := f.scan(); err != nil || len(cands) == 0 {
		return nil, st, err
	}
	if inside, err := f.buried(q); err != nil || inside {
		// A blocked query point reaches nothing; all candidates are false
		// hits.
		st.FalseHits = st.Candidates
		return nil, st, err
	}
	// Steps 3 and 4: a local visibility graph over obstacles, candidates and
	// q, and one bounded expansion that removes all false hits; entities are
	// reported the first time they are dequeued.
	f.reserve(len(cands))
	for _, c := range cands {
		f.add(c.Pt)
	}
	var out []Result
	err = f.settle(radius, func(i int, d float64) {
		cands[i].Dist = d
		out = append(out, cands[i])
	})
	if err != nil {
		return nil, st, err
	}
	st.Results = len(out)
	st.FalseHits = st.Candidates - st.Results
	sortRanked(out)
	return out, st, nil
}
