package cluster

import (
	"fmt"
	"math"
)

// KMedoids partitions the points of the symmetric distance matrix m
// (m[i][j] is the distance between points i and j, +Inf when unreachable,
// 0 on the diagonal) into k clusters around medoids (PAM: a greedy BUILD
// phase followed by SWAP steps until no single medoid exchange improves the
// clustering). maxIter caps the SWAP rounds (<= 0 means no cap; PAM always
// terminates because each swap strictly improves the cost). k is clamped to
// the number of eligible points, so k >= len(m) degenerates to every
// (eligible) point serving as its own medoid.
//
// Costs order lexicographically: a clustering that strands fewer points at
// infinite distance always beats one with a smaller distance sum, so the
// algorithm first maximizes coverage and then compactness. Points with no
// finite distance to any medoid — entities sealed off by obstacles — are
// assigned Noise and excluded from Cost; a point sealed off from every
// other point is also barred from medoid candidacy (it could only serve
// itself), which can shrink the produced cluster count below k.
func KMedoids(m [][]float64, k, maxIter int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k %d < 1", k)
	}
	n := len(m)
	res := &Result{Assignments: make([]int, n)}
	if n == 0 {
		return res, nil
	}
	// A point sealed off from every other point (all off-diagonal
	// distances infinite) must not become a medoid: it would serve only
	// itself, silently consuming a cluster slot. Such points end up Noise,
	// as documented. With fewer eligible candidates than k, the produced
	// cluster count shrinks accordingly.
	eligible := make([]bool, n)
	nEligible := 0
	for i := range n {
		for j := range n {
			if j != i && !math.IsInf(m[i][j], 1) {
				eligible[i] = true
				nEligible++
				break
			}
		}
	}
	if n == 1 {
		// A lone point has nobody to be sealed off from: one singleton
		// cluster, not noise.
		eligible[0], nEligible = true, 1
	}
	if nEligible == 0 {
		for i := range n {
			res.Assignments[i] = Noise
		}
		res.NoiseCount = n
		return res, nil
	}
	if k > nEligible {
		k = nEligible
	}

	medoids := pamBuild(m, k, eligible)
	isMedoid := make([]bool, n)
	for _, md := range medoids {
		isMedoid[md] = true
	}
	// nearest / second-nearest medoid distance per point, maintained across
	// swaps for O(1) swap-delta evaluation.
	cur := assignCost(m, medoids)
	for iter := 0; maxIter <= 0 || iter < maxIter; iter++ {
		bestCost := cur.total
		bestM, bestH := -1, -1
		for mi, md := range medoids {
			for h := range n {
				if isMedoid[h] || !eligible[h] {
					continue
				}
				cand := swapCost(m, cur, md, h)
				if cand.less(bestCost) {
					bestCost = cand
					bestM, bestH = mi, h
				}
			}
		}
		if bestM < 0 {
			break // local optimum
		}
		isMedoid[medoids[bestM]] = false
		medoids[bestM] = bestH
		isMedoid[bestH] = true
		cur = assignCost(m, medoids)
	}

	for i := range n {
		c := cur.assign[i]
		if c < 0 {
			res.Assignments[i] = Noise
			res.NoiseCount++
			continue
		}
		res.Assignments[i] = c
	}
	res.Medoids = medoids
	res.NumClusters = len(medoids)
	res.Cost = cur.total.sum
	return res, nil
}

// cost orders clusterings: fewer unassigned (infinite-distance) points
// first, then smaller distance sum.
type cost struct {
	unassigned int
	sum        float64
}

func (c cost) less(o cost) bool {
	if c.unassigned != o.unassigned {
		return c.unassigned < o.unassigned
	}
	return c.sum < o.sum-1e-12 // strict improvement, guarding float noise
}

func (c cost) plus(d float64) cost {
	if math.IsInf(d, 1) {
		c.unassigned++
	} else {
		c.sum += d
	}
	return c
}

// assignment is the per-point nearest/second-nearest medoid bookkeeping.
type assignment struct {
	assign  []int // cluster index (position in medoids), -1 when unreachable
	d1, d2  []float64
	nearest []int // medoid *point* index realizing d1
	total   cost
}

// assignCost assigns every point to its nearest medoid, and a medoid to its
// own cluster even when a coincident medoid is as near, so none is empty.
func assignCost(m [][]float64, medoids []int) assignment {
	n := len(m)
	a := assignment{
		assign:  make([]int, n),
		d1:      make([]float64, n),
		d2:      make([]float64, n),
		nearest: make([]int, n),
	}
	for i := 0; i < n; i++ {
		a.assign[i], a.nearest[i] = -1, -1
		a.d1[i], a.d2[i] = math.Inf(1), math.Inf(1)
		for ci, md := range medoids {
			d := m[i][md]
			switch {
			case d < a.d1[i] || md == i:
				a.d2[i] = a.d1[i]
				a.d1[i] = d
				a.assign[i] = ci
				a.nearest[i] = md
			case d < a.d2[i]:
				a.d2[i] = d
			}
		}
		if math.IsInf(a.d1[i], 1) {
			a.assign[i], a.nearest[i] = -1, -1
		}
		a.total = a.total.plus(a.d1[i])
	}
	return a
}

// swapCost evaluates the clustering cost after replacing medoid point md
// with point h, in O(n) using the nearest/second-nearest structure.
func swapCost(m [][]float64, a assignment, md, h int) cost {
	var c cost
	for i := range a.d1 {
		dh := m[i][h]
		var d float64
		if a.nearest[i] == md {
			d = math.Min(a.d2[i], dh)
		} else {
			d = math.Min(a.d1[i], dh)
		}
		c = c.plus(d)
	}
	return c
}

// pamBuild greedily seeds k medoids among the eligible points: each pick
// minimizes the resulting total cost given the medoids chosen so far (the
// PAM BUILD phase).
func pamBuild(m [][]float64, k int, eligible []bool) []int {
	n := len(m)
	d1 := make([]float64, n)
	for i := range d1 {
		d1[i] = math.Inf(1)
	}
	chosen := make([]bool, n)
	medoids := make([]int, 0, k)
	for len(medoids) < k {
		best, bestCost := -1, cost{unassigned: n + 1}
		for c := 0; c < n; c++ {
			if chosen[c] || !eligible[c] {
				continue
			}
			var t cost
			for i := 0; i < n; i++ {
				t = t.plus(math.Min(d1[i], m[i][c]))
			}
			if best < 0 || t.less(bestCost) {
				best, bestCost = c, t
			}
		}
		medoids = append(medoids, best)
		chosen[best] = true
		for i := 0; i < n; i++ {
			d1[i] = math.Min(d1[i], m[i][best])
		}
	}
	return medoids
}
