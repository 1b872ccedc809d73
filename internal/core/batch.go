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
func (s *Session) BatchDistances(source geom.Point, targets []geom.Point) ([]float64, Stats, error) {
	return s.batchDistances(s.e.cache, source, targets)
}

// batchDistances is BatchDistances against the given cache's graphs (nil: a
// query-local graph).
func (s *Session) batchDistances(c *GraphCache, source geom.Point, targets []geom.Point) (_ []float64, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	st.Candidates = len(targets)
	dists := make([]float64, len(targets))
	if len(targets) == 0 {
		return dists, st, nil
	}
	f := s.newField(c, source, 0, &st)
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
	f.ellipse = c == nil && len(f.targets) == 1
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
// point's off-diagonal entries are all +Inf. One multi-target expansion
// runs per source point (row i covers columns j > i; the lower triangle is
// mirrored), against a small call-local graph cache, instead of n(n-1)/2
// independent pair computations.
func (s *Session) DistanceMatrix(pts []geom.Point) ([][]float64, Stats, error) {
	var st Stats
	out := make([][]float64, len(pts))
	for i := range out {
		out[i] = make([]float64, len(pts))
	}
	// A matrix call spans the whole point extent, so its graphs grow toward
	// global coverage; a call-local cache keeps those heavyweight graphs
	// from being pinned in the engine's long-lived shared cache. With the
	// engine cache disabled, the matrix runs uncached too (one graph per
	// row).
	var local *GraphCache
	if s.e.cache != nil {
		local = newGraphCache(4)
	}
	for i := 0; i < len(pts)-1; i++ {
		if err := s.err(); err != nil {
			return nil, st, err
		}
		dists, rst, err := s.batchDistances(local, pts[i], pts[i+1:])
		if err != nil {
			return nil, st, err
		}
		st.Merge(rst)
		for j, d := range dists {
			out[i][i+1+j] = d
			out[i+1+j][i] = d
		}
	}
	st.FalseHits = st.Candidates - st.Results
	return out, st, nil
}
