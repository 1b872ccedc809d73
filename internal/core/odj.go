package core

import (
	"fmt"
	"sort"

	"repro/internal/hilbert"
	"repro/internal/rtree"
	"repro/internal/visgraph"
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
		q := seedSet.Point(seed)
		if inside, err := s.InsideObstacle(q); err != nil {
			return nil, st, err
		} else if inside {
			continue // a buried seed reaches none of its partners
		}
		g, release, err := s.localGraph(q, dist)
		if err != nil {
			return nil, st, err
		}
		remaining := make(map[visgraph.NodeID]int64, len(partners[seed]))
		added := make([]visgraph.NodeID, 0, len(partners[seed])+1)
		for _, pid := range partners[seed] {
			n := g.AddEntity(otherSet.Point(pid))
			remaining[n] = pid
			added = append(added, n)
		}
		nq := g.AddTerminal(q)
		added = append(added, nq)
		st.DistComputations++
		s.dijkstra(func() {
			g.Expand(nq, dist, func(n visgraph.NodeID, d float64) bool {
				if pid, ok := remaining[n]; ok {
					out = append(out, makePair(seedsFromS, seed, pid, d))
					delete(remaining, n)
				}
				return len(remaining) > 0
			})
		})
		if n, m := g.NumNodes(), g.NumEdges(); n > st.GraphNodes {
			st.GraphNodes, st.GraphEdges = n, m
		}
		if release != nil {
			// A cached graph must return to an obstacles-only state before
			// the next query can reuse it.
			for _, n := range added {
				g.DeleteEntity(n)
			}
			release()
		}
		if err := s.err(); err != nil {
			return nil, st, err
		}
	}
	st.Results = len(out)
	st.FalseHits = st.Candidates - st.Results
	sortPairs(out)
	return out, st, nil
}

func makePair(seedsFromS bool, seed, partner int64, d float64) JoinPair {
	if seedsFromS {
		return JoinPair{SID: seed, TID: partner, Dist: d}
	}
	return JoinPair{SID: partner, TID: seed, Dist: d}
}

func sortPairs(ps []JoinPair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Dist != ps[j].Dist {
			return ps[i].Dist < ps[j].Dist
		}
		if ps[i].SID != ps[j].SID {
			return ps[i].SID < ps[j].SID
		}
		return ps[i].TID < ps[j].TID
	})
}
