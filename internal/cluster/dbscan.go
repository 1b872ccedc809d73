package cluster

import "fmt"

// DBSCAN density-clusters n points given their ε-neighborhoods: neighbors(i)
// returns the indexes of the other points within distance ε of point i, in
// any order. A point with at least minPts points (itself included) in its
// neighborhood is a core point; cores within ε of each other share a
// cluster, and non-core points within ε of a core join its cluster as
// border points. Points in no cluster — including entities the metric seals
// off from everything — are assigned Noise.
//
// neighbors is called at most once per point. The result is deterministic:
// clusters are numbered in order of the lowest-index core point that seeds
// them, and a border point reachable from several clusters joins the one
// whose core expanded to it first.
func DBSCAN(n int, neighbors func(i int) ([]int, error), minPts int) (*Result, error) {
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: minPts %d < 1", minPts)
	}
	res := &Result{Assignments: make([]int, n)}
	for i := range res.Assignments {
		res.Assignments[i] = Noise
	}
	const unvisited = -2
	state := make([]int, n) // unvisited, or the assigned cluster/Noise
	for i := range state {
		state[i] = unvisited
	}

	cluster := 0
	for i := range n {
		if state[i] != unvisited {
			continue
		}
		nb, err := neighbors(i)
		if err != nil {
			return nil, err
		}
		if len(nb)+1 < minPts {
			state[i] = Noise
			continue
		}
		// i is a core point: grow cluster from it (breadth-first over
		// density-reachable points).
		state[i] = cluster
		res.Assignments[i] = cluster
		queue := append([]int(nil), nb...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if state[j] == Noise {
				// Previously labeled noise: border point of this cluster.
				state[j] = cluster
				res.Assignments[j] = cluster
				continue
			}
			if state[j] != unvisited {
				continue
			}
			state[j] = cluster
			res.Assignments[j] = cluster
			jnb, err := neighbors(j)
			if err != nil {
				return nil, err
			}
			if len(jnb)+1 >= minPts {
				queue = append(queue, jnb...)
			}
		}
		cluster++
	}
	res.NumClusters = cluster
	for _, c := range res.Assignments {
		if c == Noise {
			res.NoiseCount++
		}
	}
	return res, nil
}
