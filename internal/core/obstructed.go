package core

import (
	"math"

	"repro/internal/geom"
)

// ObstructedPath returns a shortest obstacle-avoiding path from a to b as a
// point sequence (bending only at obstacle vertices, per [LW79]) together
// with its length. The path is nil and the length +Inf when b is
// unreachable, including when either point lies strictly inside an obstacle
// (the field scans but never builds a graph then).
//
// The path comes from scratch, from a one-target ellipse field around a: a
// local visibility graph with the obstacles meeting the segment ab, enlarged
// iteratively (Fig 8) to the ellipse with foci a and b that a path of the
// current length stays in, each iteration one goal-directed search from a to
// b. The path is the one the final search found.
func (s *Session) ObstructedPath(a, b geom.Point) (_ []geom.Point, _ float64, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	st.Candidates = 1
	f := s.newField(a, 0, &st)
	defer f.close() // after f.path() has copied the route out of the graph
	f.routed, f.ellipse = true, true
	f.add(b)
	if err := f.certify(math.Inf(1)); err != nil {
		return nil, 0, st, err
	}
	d := f.targets[0].dist
	if math.IsInf(d, 1) {
		st.FalseHits = 1
		return nil, d, st, nil
	}
	st.Results = 1
	return f.path(), d, st, nil
}

// ObstructedDistance computes dO(a, b); +Inf when b is unreachable from a. It
// is BatchDistances with one target.
func (s *Session) ObstructedDistance(a, b geom.Point) (float64, Stats, error) {
	ds, st, err := s.BatchDistances(a, []geom.Point{b})
	if err != nil {
		return 0, st, err
	}
	return ds[0], st, nil
}
