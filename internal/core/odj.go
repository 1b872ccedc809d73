package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/rtree"
)

// DistanceJoin answers an obstacle e-distance join (ODJ, Fig 10): all pairs
// (s, t), s in S, t in T, with obstructed distance at most dist. The
// Euclidean join [BKS93] produces candidate pairs; the side with fewer
// distinct members provides the "seeds", and each seed opens one query-local
// field and eliminates its partners' false hits with an OR-style expansion
// (Fig 5). Seeds are processed in Hilbert order, so that consecutive seeds
// lie close together. Consecutive seeds whose disks of radius dist meet form
// a run, and a run reads each obstacle-tree page once: its seeds' range
// queries read the tree through one rtree.Window, which keeps the nodes they
// have read, each pruned to the entries within dist of the run's bounding
// box. Each seed's query visits the same nodes and finds the same obstacles,
// in the same order, as it would alone; what goes is the page reads of the
// nodes an earlier seed of the run visited, and the tests of entries no seed
// of the run can reach.
//
// S == T is a self-join, the form the ε-neighbourhoods of DBSCAN take: it
// pairs distinct entities only, refines each unordered pair once, from
// whichever end seeds it, and reports it in both orientations, (i, j) and
// (j, i). Its Stats count unordered pairs.
func (s *Session) DistanceJoin(S, T *PointSet, dist float64) (_ []JoinPair, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	if err := s.err(); err != nil {
		return nil, st, err
	}
	self := S == T
	// Step 1: Euclidean e-distance join (no false misses). A self-join keeps
	// each unordered pair of distinct entities once, as (lower id, higher id).
	partnersS := make(map[int64][]int64) // s id -> t ids
	partnersT := make(map[int64][]int64) // t id -> s ids
	err := rtree.JoinDistance(s.pointTree(S), s.pointTree(T), dist, func(a, b rtree.Item) bool {
		if !self || a.Data < b.Data {
			partnersS[a.Data] = append(partnersS[a.Data], b.Data)
			partnersT[b.Data] = append(partnersT[b.Data], a.Data)
			st.Candidates++
		}
		return true
	})
	if err != nil {
		return nil, st, fmt.Errorf("core: euclidean join: %w", err)
	}
	if st.Candidates == 0 {
		return nil, st, nil
	}
	// Step 2: the side with fewer distinct joined objects seeds the fields
	// (one per object instead of one per pair).
	seedsFromS := len(partnersS) <= len(partnersT)
	seedSet, otherSet, partners := S, T, partnersS
	if !seedsFromS {
		seedSet, otherSet, partners = T, S, partnersT
	}
	// Step 3: Hilbert ordering of the seeds.
	bounds, err := s.pointTree(seedSet).Bounds()
	if err != nil {
		return nil, st, err
	}
	// Each seed's key is computed once, not once per comparison.
	type hilbertSeed struct {
		key uint64
		id  int64
		pt  geom.Point
	}
	seeds := make([]hilbertSeed, 0, len(partners))
	for id := range partners {
		p := seedSet.Point(id)
		seeds = append(seeds, hilbertSeed{hilbert.EncodePoint(p.X, p.Y, bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY), id, p})
	}
	slices.SortFunc(seeds, func(a, b hilbertSeed) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.id, b.id))
	})
	// Step 4: per-seed false-hit elimination (the OR refinement of Fig 5) on a
	// query-local field, as in the paper, run by run: the seeds up to the
	// first whose disk misses its predecessor's read the obstacle tree
	// through one window, which keeps what lies within dist of their
	// bounding box.
	var out []JoinPair
	var win rtree.Window
	for len(seeds) > 0 {
		box, n := geom.PointRect(seeds[0].pt), 1
		for ; n < len(seeds) && seeds[n-1].pt.Dist(seeds[n].pt) <= 2*dist; n++ {
			box = box.ExtendPoint(seeds[n].pt)
		}
		win.Reset(box, dist)
		for _, hs := range seeds[:n] {
			if err := s.err(); err != nil {
				return nil, st, err
			}
			// The seed's buried check reads the obstacles its field scanned: a
			// buried seed reaches none of its partners.
			f := s.newField(nil, hs.pt, dist, &st)
			f.win = &win
			buried, err := f.sourceBuried()
			if err == nil && !buried {
				ps := partners[hs.id]
				f.reserve(len(ps))
				for _, pid := range ps {
					f.add(otherSet.Point(pid))
				}
				err = f.settle(dist, func(i int, d float64) {
					st.Results++
					out = append(out, makePair(seedsFromS, hs.id, ps[i], d))
					if self {
						out = append(out, makePair(!seedsFromS, hs.id, ps[i], d))
					}
				})
			}
			f.close()
			if err != nil {
				return nil, st, err
			}
		}
		seeds = seeds[n:]
	}
	st.FalseHits = st.Candidates - st.Results
	sortRanked(out)
	return out, st, nil
}

func makePair(seedsFromS bool, seed, partner int64, d float64) JoinPair {
	if seedsFromS {
		return JoinPair{SID: seed, TID: partner, Dist: d}
	}
	return JoinPair{SID: partner, TID: seed, Dist: d}
}
