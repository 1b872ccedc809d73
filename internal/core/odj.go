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
	// Step 1: Euclidean e-distance join (no false misses), one list of
	// candidate pairs {s id, t id}. A self-join keeps each unordered pair of
	// distinct entities once, as (lower id, higher id).
	var cands [][2]int64
	err := rtree.JoinDistance(s.pointTree(S), s.pointTree(T), dist, func(a, b rtree.Item) bool {
		if !self || a.Data < b.Data {
			cands = append(cands, [2]int64{a.Data, b.Data})
		}
		return true
	})
	if err != nil {
		return nil, st, fmt.Errorf("core: euclidean join: %w", err)
	}
	st.Candidates = len(cands)
	if st.Candidates == 0 {
		return nil, st, nil
	}
	// Step 2: the side with fewer distinct joined objects seeds the fields
	// (one per object instead of one per pair). count[side][id] is how many
	// candidates hold id on that side.
	var count [2][]int
	var held [2]int
	for side, set := range []*PointSet{S, T} {
		count[side] = make([]int, set.IDBound()+1)
		for _, c := range cands {
			if count[side][c[side]] == 0 {
				held[side]++
			}
			count[side][c[side]]++
		}
	}
	side, seedSet, otherSet := 0, S, T
	if held[1] < held[0] {
		side, seedSet, otherSet = 1, T, S
	}
	seedsFromS := side == 0
	// Group the partners by seed, each group in the join's order (a counting
	// sort on the seed id): seed id's are then partners[at[id]:at[id+1]].
	at := count[side]
	for id := 1; id < len(at); id++ {
		at[id] += at[id-1]
	}
	partners := make([]int64, len(cands))
	for i := len(cands) - 1; i >= 0; i-- {
		at[cands[i][side]]--
		partners[at[cands[i][side]]] = cands[i][1-side]
	}
	// Step 3: Hilbert ordering of the seeds.
	bounds, err := s.pointTree(seedSet).Bounds()
	if err != nil {
		return nil, st, err
	}
	// Each seed's key is computed once, not once per comparison.
	type hilbertSeed struct {
		key      uint64
		id       int64
		pt       geom.Point
		partners []int64
	}
	seeds := make([]hilbertSeed, 0, held[side])
	for id := range int64(len(at) - 1) {
		if at[id] < at[id+1] {
			p := seedSet.Point(id)
			seeds = append(seeds, hilbertSeed{hilbert.EncodePoint(p.X, p.Y, bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY), id, p, partners[at[id]:at[id+1]]})
		}
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
				f.reserve(len(hs.partners))
				for _, pid := range hs.partners {
					f.add(otherSet.Point(pid))
				}
				err = f.settle(dist, func(i int, d float64) {
					st.Results++
					out = append(out, makePair(seedsFromS, hs.id, hs.partners[i], d))
					if self {
						out = append(out, makePair(!seedsFromS, hs.id, hs.partners[i], d))
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
