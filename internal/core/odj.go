package core

import (
	"fmt"
	"sort"

	"repro/internal/hilbert"
	"repro/internal/rtree"
)

// DistanceJoin answers an obstacle e-distance join (ODJ, Fig 10): all pairs
// (s, t), s in S, t in T, with obstructed distance at most dist. The
// Euclidean join [BKS93] produces candidate pairs; the side with fewer
// distinct members provides the "seeds", each seed builds one local
// visibility graph and eliminates its partners' false hits with an OR-style
// expansion. Seeds are processed in Hilbert order to maximize buffer
// locality across consecutive obstacle-R-tree probes.
func (s *Session) DistanceJoin(S, T *PointSet, dist float64) (_ []JoinPair, st Stats, _ error) {
	w := s.snap()
	defer s.finishCall(&st, w)
	if err := s.err(); err != nil {
		return nil, st, err
	}
	// Step 1: Euclidean e-distance join (no false misses).
	partnersS := make(map[int64][]int64) // s id -> t ids
	partnersT := make(map[int64][]int64) // t id -> s ids
	pairCount := 0
	err := rtree.JoinDistance(s.pointTree(S), s.pointTree(T), dist, func(a, b rtree.Item) bool {
		partnersS[a.Data] = append(partnersS[a.Data], b.Data)
		partnersT[b.Data] = append(partnersT[b.Data], a.Data)
		pairCount++
		return true
	})
	if err != nil {
		return nil, st, fmt.Errorf("core: euclidean join: %w", err)
	}
	st.Candidates = pairCount
	if pairCount == 0 {
		return nil, st, nil
	}
	// Step 2: the dataset with fewer distinct joined objects seeds the
	// visibility graphs (|Q| graphs instead of |pairs|).
	seedsFromS := len(partnersS) <= len(partnersT)
	var seedSet *PointSet
	var otherSet *PointSet
	var partners map[int64][]int64
	if seedsFromS {
		seedSet, otherSet, partners = S, T, partnersS
	} else {
		seedSet, otherSet, partners = T, S, partnersT
	}
	seeds := make([]int64, 0, len(partners))
	for id := range partners {
		seeds = append(seeds, id)
	}
	// Step 3: Hilbert ordering of the seeds (disabled by the
	// NoHilbertSeeds option for the seed-ordering ablation).
	if s.e.opts.NoHilbertSeeds {
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	} else {
		bounds, err := s.pointTree(seedSet).Bounds()
		if err != nil {
			return nil, st, err
		}
		hv := func(id int64) uint64 {
			p := seedSet.Point(id)
			return hilbert.EncodePoint(p.X, p.Y, bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY)
		}
		sort.Slice(seeds, func(i, j int) bool {
			hi, hj := hv(seeds[i]), hv(seeds[j])
			if hi != hj {
				return hi < hj
			}
			return seeds[i] < seeds[j]
		})
	}
	// Step 4: per-seed false-hit elimination (the OR refinement of Fig 5).
	// With the engine's graph cache enabled, consecutive Hilbert-adjacent
	// seeds reuse one expanded graph instead of rebuilding overlapping
	// obstacle neighborhoods from scratch.
	var out []JoinPair
	for _, seed := range seeds {
		if err := s.err(); err != nil {
			return nil, st, err
		}
		// The seed's buried check reads the obstacles its field scanned: a
		// buried seed reaches none of its partners.
		f := s.newField(s.e.cache, seedSet.Point(seed), dist, &st)
		buried, err := f.sourceBuried()
		if err == nil && !buried {
			f.reserve(len(partners[seed]))
			for _, pid := range partners[seed] {
				f.add(otherSet.Point(pid))
			}
			err = f.settle(dist, func(i int, d float64) {
				out = append(out, makePair(seedsFromS, seed, partners[seed][i], d))
			})
		}
		f.close()
		if err != nil {
			return nil, st, err
		}
	}
	st.Results = len(out)
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
