package core

import (
	"math"

	"repro/internal/geom"
)

// pairSearch computes dO(a, b) from scratch on a one-target field around a:
// a local visibility graph with the obstacles in the Euclidean range dE(a, b)
// (as in Fig 7), enlarged iteratively (Fig 8), each iteration one
// goal-directed search from a to b. The field comes back for the route of
// the last one. The distance is +Inf when b is unreachable from a, including
// when either point lies strictly inside an obstacle (the field scans but
// never builds a graph then).
func (s *Session) pairSearch(a, b geom.Point, st *Stats) (f *field, d float64, err error) {
	st.Candidates = 1
	f = s.newField(nil, a, 0, st)
	f.routed = true
	f.add(b)
	if err := f.certify(math.Inf(1)); err != nil {
		return f, 0, err
	}
	if d = f.targets[0].dist; math.IsInf(d, 1) {
		st.FalseHits = 1
	} else {
		st.Results = 1
	}
	return f, d, nil
}

// ObstructedPath returns a shortest obstacle-avoiding path from a to b as a
// point sequence (bending only at obstacle vertices, per [LW79]) together
// with its length. The path is nil and the length +Inf when b is
// unreachable. The path is the one the final search of the iterative
// enlargement found.
func (s *Session) ObstructedPath(a, b geom.Point) (_ []geom.Point, _ float64, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	f, d, err := s.pairSearch(a, b, &st)
	if err != nil || math.IsInf(d, 1) {
		return nil, d, st, err
	}
	return f.path(), d, st, nil
}

// ObstructedDistance computes dO(a, b); +Inf when b is unreachable from a.
func (s *Session) ObstructedDistance(a, b geom.Point) (_ float64, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	_, d, err := s.pairSearch(a, b, &st)
	return d, st, err
}
