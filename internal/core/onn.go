package core

import (
	"repro/internal/geom"
	"repro/internal/rtree"
)

// neighbors is the ONN candidate stream: the entities of P in ascending
// Euclidean distance from f's source [HS99], each refined by its distance
// on f. Closing it closes f.
func (s *Session) neighbors(P *PointSet, f *field) candidates[rtree.Neighbor, Result] {
	it := s.pointTree(P).NearestIterator(f.center)
	return candidates[rtree.Neighbor, Result]{
		src: it,
		dE:  func(nb rtree.Neighbor) float64 { return nb.Dist },
		eval: func(nb rtree.Neighbor, bound float64) (Result, error) {
			pt := nb.Item.Rect.Center()
			d, err := f.distance(pt, bound)
			return Result{ID: nb.Item.Data, Pt: pt, Dist: d}, err
		},
		close: func() {
			it.Close()
			f.close()
		},
	}
}

// NearestNeighbors answers an obstacle k-nearest-neighbor query (ONN,
// Fig 9): the k entities of P with the smallest obstructed distance from q,
// sorted by that distance. Euclidean neighbors are retrieved incrementally
// [HS99]; each has its obstructed distance evaluated on a shared local
// visibility graph that grows as needed (Fig 8), and retrieval stops once
// the next Euclidean distance exceeds the k-th obstructed distance (dEmax),
// which only shrinks as better neighbors are found.
func (s *Session) NearestNeighbors(P *PointSet, q geom.Point, k int) (_ []Result, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	if k <= 0 || P.Len() == 0 {
		return nil, st, nil
	}
	if err := s.err(); err != nil {
		return nil, st, err
	}
	f := s.newField(nil, q, 0, &st)
	var euclidIDs map[int64]bool
	R, err := topK(s, &st, k, s.neighbors(P, f), func(seed []rtree.Neighbor) error {
		euclidIDs = make(map[int64]bool, len(seed))
		for _, nb := range seed {
			euclidIDs[nb.Item.Data] = true
		}
		// The initial graph holds the obstacles within the k-th Euclidean
		// distance; the field enlarges it on demand. That opening scan also
		// decides whether q is buried.
		f.searched = seed[len(seed)-1].Dist
		buried, err := f.sourceBuried()
		if err == nil && buried {
			err = errSourceBuried
		}
		return err
	})
	if err == errSourceBuried {
		// A blocked query point reaches nothing: every Euclidean kNN is a
		// false hit.
		st.FalseHits = st.Candidates
		return nil, st, nil
	}
	if err != nil {
		return nil, st, err
	}
	// False hits: Euclidean kNNs that are not obstructed kNNs (Fig 18).
	for _, r := range R {
		delete(euclidIDs, r.ID)
	}
	st.FalseHits = len(euclidIDs)
	return R, st, nil
}

// NNIterator reports the entities of P in ascending order of obstructed
// distance from q without a predeclared k — the incremental ONN variant the
// paper derives from iOCP (Section 6).
type NNIterator struct {
	emitter[rtree.Neighbor, Result]
}

// NearestIterator starts an incremental obstructed nearest-neighbor search
// on the session. The iterator inherits the session's context: once it is
// canceled, Next stops and Err reports ctx.Err().
func (s *Session) NearestIterator(P *PointSet, q geom.Point) *NNIterator {
	it := &NNIterator{}
	it.s, it.snap = s, s.snap()
	// No k, so no k-th Euclidean distance to size the graph by: it opens on
	// the first candidate's range. That opening scan also decides whether q
	// is buried, and a buried q reaches nothing: the stream ends there, empty,
	// as NearestNeighbors and Range answer.
	f := s.newField(nil, q, 0, &it.stats)
	it.candidates = s.neighbors(P, f)
	eval := it.eval
	it.eval = func(nb rtree.Neighbor, bound float64) (Result, error) {
		opening := !f.scanned
		r, err := eval(nb, bound)
		if err == nil && opening && f.inside(q) {
			err = errSourceBuried
		}
		return r, err
	}
	return it
}
