package core

import (
	"math"

	"repro/internal/geom"
)

// This file holds the batch multi-source distance verbs: one field — one
// visibility graph, one expansion per enlargement round — serves an entire
// target set, instead of one graph build and one search per pair.
// ObstructedDistance is the batch of one.

// BatchDistances computes the obstructed distance from source to every
// target. Unreachable targets (sealed off, or strictly inside an obstacle)
// get +Inf. When the engine's graph cache is enabled (EnableGraphCache) an
// expanded graph state is reused across calls; otherwise a fresh local graph
// is built, covering the largest Euclidean source-target distance as in
// Fig 7, or for one target the obstacles meeting its segment.
func (s *Session) BatchDistances(source geom.Point, targets []geom.Point) (_ []float64, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	st.Candidates = len(targets)
	dists := make([]float64, len(targets))
	if len(targets) == 0 {
		return dists, st, nil
	}
	f := s.newField(s.e.cache, source, 0, &st)
	f.reserve(len(targets))
	// idx maps each target to its field target; coincident targets share one
	// graph node, and a target at the source needs none: dO(p, p) is 0, or
	// +Inf when p is buried.
	idx := make([]int, len(targets))
	at := make(map[geom.Point]int, len(targets))
	atSource := false
	for i, t := range targets {
		if t.Eq(source) {
			idx[i], atSource = -1, true
			continue
		}
		j, ok := at[t]
		if !ok {
			j = f.add(t)
			at[t] = j
		}
		idx[i] = j
	}
	// A query-local field with one target grows that target's ellipse; a
	// cached graph or many targets share the disk.
	f.ellipse = f.cache == nil && len(f.targets) == 1
	err := f.certify(math.Inf(1))
	self := 0.0
	if err == nil && atSource {
		var buried bool
		if buried, err = f.buried(source); buried {
			self = math.Inf(1)
		}
	}
	for i, j := range idx {
		if j >= 0 {
			dists[i] = f.targets[j].dist
		} else {
			dists[i] = self
		}
	}
	f.close()
	if err != nil {
		return nil, st, err
	}
	for _, d := range dists {
		if !math.IsInf(d, 1) {
			st.Results++
		}
	}
	st.FalseHits = st.Candidates - st.Results
	return dists, st, nil
}

// DistanceMatrix computes the full symmetric obstructed-distance matrix of
// pts: out[i][j] = dO(pts[i], pts[j]), +Inf for unreachable pairs, 0 on the
// diagonal. The diagonal is zero by definition — a point is at distance 0
// from itself even when it lies strictly inside an obstacle, where the
// pair APIs (ObstructedDistance, BatchDistances) report +Inf; such a
// point's off-diagonal entries are all +Inf. Row i covers columns j > i (the
// lower triangle is mirrored). One query-local field holds every point as a
// target and serves every row: before each, reroot makes the next point the
// source, and the graph and the later points' entity nodes carry over (the
// add_entity and delete_entity of Section 4), so a point costs one
// visibility pass as a target and one as the source.
func (s *Session) DistanceMatrix(pts []geom.Point) (_ [][]float64, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	n := len(pts)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	st.Candidates = n * (n - 1) / 2
	if n < 2 {
		return out, st, nil
	}
	f := s.newField(nil, pts[0], 0, &st)
	defer f.close()
	f.passTargets = true
	for _, p := range pts {
		f.add(p)
	}
	for i := range n - 1 {
		f.reroot()
		if err := f.certify(math.Inf(1)); err != nil {
			return nil, st, err
		}
		for k, t := range f.targets {
			out[i][i+1+k], out[i+1+k][i] = t.dist, t.dist
			if !math.IsInf(t.dist, 1) {
				st.Results++
			}
		}
	}
	st.FalseHits = st.Candidates - st.Results
	return out, st, nil
}
