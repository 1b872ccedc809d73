package obstacles

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
)

// ClusterAlgorithm selects the clustering method used by Database.Cluster.
type ClusterAlgorithm int

const (
	// DBSCAN is density clustering: a point with at least MinPts points
	// (itself included) within obstructed distance Eps is a core point;
	// density-connected points share a cluster, the rest are noise.
	DBSCAN ClusterAlgorithm = iota
	// KMedoids partitions the dataset into K clusters around medoid
	// entities (PAM), minimizing the sum of obstructed distances to them.
	KMedoids
)

func (a ClusterAlgorithm) String() string {
	switch a {
	case DBSCAN:
		return "dbscan"
	case KMedoids:
		return "kmedoids"
	}
	return fmt.Sprintf("ClusterAlgorithm(%d)", int(a))
}

// NoiseCluster is the Clustering.Assignments value for points in no
// cluster: DBSCAN noise, or entities sealed off by obstacles from every
// medoid. Their distance to anything useful is Unreachable, so no
// clustering can claim them.
const NoiseCluster = cluster.Noise

// ClusterOptions configures Database.Cluster.
type ClusterOptions struct {
	// Algorithm picks DBSCAN (default) or KMedoids.
	Algorithm ClusterAlgorithm
	// Eps is the DBSCAN neighborhood radius, measured in obstructed
	// distance. Required (> 0) for DBSCAN.
	Eps float64
	// MinPts is the DBSCAN core-point threshold, counting the point itself
	// (default 4, a common planar-data setting).
	MinPts int
	// K is the KMedoids cluster count. Required (>= 1) for KMedoids.
	// Entities sealed off from every other entity cannot serve as medoids
	// (each would only serve itself), so fewer than K clusters may be
	// produced when the dataset contains such entities.
	K int
	// MaxIterations caps the KMedoids swap rounds; 0 runs to convergence
	// (each swap strictly improves the cost, so convergence is guaranteed).
	MaxIterations int
}

// validate rejects options no algorithm can run with, wrapping
// ErrInvalidArgument.
func (o ClusterOptions) validate() error {
	switch o.Algorithm {
	case DBSCAN:
		if o.Eps <= 0 {
			return fmt.Errorf("%w: DBSCAN needs Eps > 0, got %v", ErrInvalidArgument, o.Eps)
		}
		if o.MinPts < 0 {
			return fmt.Errorf("%w: DBSCAN needs MinPts >= 1 (or 0 for the default), got %d", ErrInvalidArgument, o.MinPts)
		}
	case KMedoids:
		if o.K < 1 {
			return fmt.Errorf("%w: KMedoids needs K >= 1, got %d", ErrInvalidArgument, o.K)
		}
	default:
		return fmt.Errorf("%w: unknown clustering algorithm %v", ErrInvalidArgument, o.Algorithm)
	}
	return nil
}

// Clustering is the result of Database.Cluster.
type Clustering struct {
	// Assignments maps every entity id of the dataset (the index used by
	// AddDataset, or the id assigned by InsertPoints) to a cluster id in
	// [0, NumClusters), or NoiseCluster. After deletions the id space is
	// sparse; ids of deleted entities report NoiseCluster.
	Assignments []int
	// NumClusters is the number of clusters produced.
	NumClusters int
	// Medoids (KMedoids only) holds the entity id at the center of each
	// cluster: cluster c is centered on entity Medoids[c]. Nil for DBSCAN.
	Medoids []int
	// Cost (KMedoids only) is the sum of obstructed distances from each
	// assigned entity to its medoid.
	Cost float64
	// NoiseCount is the number of entities assigned NoiseCluster. Sealed-off
	// entities (strictly inside an obstacle, or walled away from every
	// other entity) always land here: under DBSCAN they are noise
	// singletons, under KMedoids they are reported as noise whenever no
	// medoid can reach them.
	NoiseCount int
}

// cluster runs the clustering job over the query's dataset on the query's
// one session, so a canceled context aborts it mid-flight, and returns the
// engine-level counters summed across its calls. A DBSCAN neighborhood is
// one obstacle range query (Fig 5); k-medoids reads the distance matrix.
func (qr query) cluster(copts ClusterOptions) (*Clustering, core.Stats, error) {
	ps := qr.sets[0]
	// Ids can be sparse after DeletePoints: cluster the compacted live
	// points, then map the assignments back to id-indexed form (deleted ids
	// report NoiseCluster).
	liveIDs := ps.Live(nil)
	pts := make([]geom.Point, len(liveIDs))
	idToIdx := make(map[int64]int, len(liveIDs))
	for i, id := range liveIDs {
		pts[i] = ps.Point(id)
		idToIdx[id] = i
	}
	var (
		st  core.Stats
		res *cluster.Result
		err error
	)
	switch copts.Algorithm { // validate admitted only these two
	case DBSCAN:
		minPts := copts.MinPts
		if minPts == 0 {
			minPts = 4
		}
		res, err = cluster.DBSCAN(len(pts), func(i int) ([]int, error) {
			within, rst, err := qr.sess.Range(ps, pts[i], copts.Eps)
			st.Merge(rst)
			nb := make([]int, 0, len(within))
			for _, r := range within {
				// The tree serves only live entities, so the lookup cannot miss.
				if r.ID != liveIDs[i] {
					nb = append(nb, idToIdx[r.ID])
				}
			}
			return nb, err
		}, minPts)
	case KMedoids:
		var m [][]float64
		m, st, err = qr.sess.DistanceMatrix(pts)
		if err == nil {
			res, err = cluster.KMedoids(m, copts.K, copts.MaxIterations)
		}
	}
	if err != nil {
		return nil, st, err
	}
	assignments := res.Assignments
	if int64(len(liveIDs)) != ps.IDBound() {
		assignments = make([]int, ps.IDBound())
		for i := range assignments {
			assignments[i] = NoiseCluster
		}
		for i, id := range liveIDs {
			assignments[id] = res.Assignments[i]
		}
	}
	var medoids []int
	if res.Medoids != nil {
		medoids = make([]int, len(res.Medoids))
		for c, mi := range res.Medoids {
			medoids[c] = int(liveIDs[mi])
		}
	}
	return &Clustering{
		Assignments: assignments,
		NumClusters: res.NumClusters,
		Medoids:     medoids,
		Cost:        res.Cost,
		NoiseCount:  res.NoiseCount,
	}, st, nil
}
