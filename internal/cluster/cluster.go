// Package cluster implements clustering of spatial entities under a metric
// the caller supplies — in particular the obstructed distance of the query
// engine, following the clustering-with-obstacles line of work (El-Zawawy &
// El-Sharkawi): entities separated by a wall belong to different clusters
// even when they are Euclidean-close.
//
// Two algorithms are provided, each taking the metric in the one form it
// reads:
//
//   - DBSCAN, density clustering over ε-neighborhoods the caller computes
//     (for the obstructed metric, one obstacle range query per point), and
//   - KMedoids, PAM-style partitioning around medoids over the full pairwise
//     distance matrix.
//
// Both are deterministic (no randomized initialization) and tolerate
// infinite distances: a point with no finite distance to any density-core /
// medoid is reported as Noise.
package cluster

// Noise is the cluster id assigned to noise points (DBSCAN) and to points
// with no finite distance to any medoid (KMedoids) — entities sealed off by
// obstacles end up here.
const Noise = -1

// Result describes one clustering.
type Result struct {
	// Assignments maps each input point index to its cluster id in
	// [0, NumClusters), or Noise.
	Assignments []int
	// NumClusters is the number of clusters found (DBSCAN) or requested and
	// non-empty (KMedoids).
	NumClusters int
	// Medoids, for KMedoids, holds the point index serving as each
	// cluster's medoid: cluster c is centered on point Medoids[c]. Nil for
	// DBSCAN.
	Medoids []int
	// Cost, for KMedoids, is the sum of distances from each assigned point
	// to its medoid (finite terms only). Zero for DBSCAN.
	Cost float64
	// NoiseCount is the number of points assigned Noise.
	NoiseCount int
}
