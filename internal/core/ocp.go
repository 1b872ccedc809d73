package core

import "repro/internal/rtree"

// pairs is the OCP candidate stream: the pairs of S x T in ascending
// Euclidean distance [HS98, CMTV00], each refined by its obstructed distance.
// The incremental closest-pair stream frequently repeats one endpoint in
// consecutive pairs, so the field around the most recent s-side point is
// kept and reused (including any obstacles the iterative enlargement pulled
// in). It measures one t at a time, so it is an ellipse field: each t opens
// on its own segment and grows its own ellipse. A field is closed when the
// next s replaces it, and the last one when the stream is.
func (s *Session) pairs(S, T *PointSet, st *Stats) (candidates[rtree.PairNeighbor, JoinPair], error) {
	it, err := rtree.NewClosestPairIterator(s.pointTree(S), s.pointTree(T))
	var f *field
	c := candidates[rtree.PairNeighbor, JoinPair]{
		src: it,
		dE:  func(pr rtree.PairNeighbor) float64 { return pr.Dist },
		eval: func(pr rtree.PairNeighbor, bound float64) (JoinPair, error) {
			if sp := pr.A.Rect.Center(); f == nil || !f.center.Eq(sp) {
				f.close()
				f = s.newField(sp, 0, st)
				f.ellipse = true
			}
			d, err := f.distance(pr.B.Rect.Center(), bound)
			return JoinPair{SID: pr.A.Data, TID: pr.B.Data, Dist: d}, err
		},
		close: func() {
			it.Close()
			f.close()
		},
	}
	if S == T {
		c.src = distinctPairs{it}
	}
	return c, err
}

// distinctPairs is the stream of S == T: distinct entities, both ways round.
type distinctPairs struct{ *rtree.CPIterator }

func (p distinctPairs) Next() (rtree.PairNeighbor, bool) {
	pr, ok := p.CPIterator.Next()
	for ok && pr.A.Data == pr.B.Data {
		pr, ok = p.CPIterator.Next()
	}
	return pr, ok
}

// ClosestPairs answers an obstacle closest-pair query (OCP, Fig 11): the k
// pairs (s, t), s in S, t in T, with the smallest obstructed distance,
// sorted by it. Euclidean pairs are retrieved incrementally [HS98, CMTV00];
// each has its obstructed distance evaluated, and retrieval stops once the
// next Euclidean pair distance exceeds the k-th obstructed distance.
func (s *Session) ClosestPairs(S, T *PointSet, k int) (_ []JoinPair, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	if k <= 0 || S.Len() == 0 || T.Len() == 0 {
		return nil, st, nil
	}
	if err := s.err(); err != nil {
		return nil, st, err
	}
	c, err := s.pairs(S, T, &st)
	if err != nil {
		return nil, st, err
	}
	R, err := topK(s, &st, k, c, func([]rtree.PairNeighbor) error { return nil })
	return R, st, err
}

// CPIterator reports pairs in ascending order of obstructed distance without
// a predeclared k (iOCP, Fig 12).
type CPIterator struct {
	emitter[rtree.PairNeighbor, JoinPair]
}

// ClosestPairIterator starts an incremental obstructed closest-pair search
// on the session. The iterator inherits the session's context.
func (s *Session) ClosestPairIterator(S, T *PointSet) (*CPIterator, error) {
	it := &CPIterator{}
	it.s, it.snap = s, s.snap()
	var err error
	it.candidates, err = s.pairs(S, T, &it.stats)
	if err != nil {
		return nil, err
	}
	return it, nil
}
