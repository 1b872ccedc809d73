package obstacles

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/visgraph"
)

// bruteOracle computes obstructed distances on a full visibility graph over
// every obstacle (the unpruned reference pass: no R-tree, no candidate
// pruning, no batching) — the reference the engine-backed clustering must
// reproduce exactly. With no obstacles it is the Euclidean metric.
type bruteOracle struct {
	g     *visgraph.Graph
	polys []geom.Polygon
}

func newBruteOracle(rects []Rect) *bruteOracle {
	o := &bruteOracle{}
	obs := make([]visgraph.Obstacle, len(rects))
	for i, r := range rects {
		o.polys = append(o.polys, RectPolygon(r))
		obs[i] = visgraph.Obstacle{ID: int64(i), Poly: o.polys[i]}
	}
	o.g = visgraph.Build(visgraph.Options{UseSweep: false}, obs)
	return o
}

// buried reports whether p lies strictly inside an obstacle, by linear scan:
// such a point reaches nothing, not even a point coincident with it.
func (o *bruteOracle) buried(p Point) bool {
	for _, pg := range o.polys {
		if pg.ContainsStrict(p) {
			return true
		}
	}
	return false
}

// matrix returns every pairwise distance of pts, 0 on the diagonal.
func (o *bruteOracle) matrix(pts []Point) [][]float64 {
	m := make([][]float64, len(pts))
	for i := range m {
		m[i] = make([]float64, len(pts))
	}
	for i, p := range pts {
		for j := i + 1; j < len(pts); j++ {
			var d float64
			switch q := pts[j]; {
			case o.buried(p) || o.buried(q):
				d = math.Inf(1)
			case !p.Eq(q):
				np, nq := o.g.AddTerminal(p), o.g.AddTerminal(q)
				d = o.g.ObstructedDist(np, nq)
				o.g.DeleteEntity(nq)
				o.g.DeleteEntity(np)
			}
			m[i][j], m[j][i] = d, d
		}
	}
	return m
}

// cluster runs copts' algorithm (MinPts given explicitly) over the reference
// distances of pts.
func (o *bruteOracle) cluster(t *testing.T, pts []Point, copts ClusterOptions) *cluster.Result {
	t.Helper()
	m := o.matrix(pts)
	var (
		res *cluster.Result
		err error
	)
	switch copts.Algorithm {
	case DBSCAN:
		adj := make([][]int, len(m))
		for i := range m {
			for j, d := range m[i] {
				if j != i && d <= copts.Eps {
					adj[i] = append(adj[i], j)
				}
			}
		}
		res, err = cluster.DBSCAN(adj, copts.MinPts)
	case KMedoids:
		res, err = cluster.KMedoids(m, copts.K, copts.MaxIterations)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameClustering fails t unless the engine's clustering equals the
// reference's: assignments, medoids and cost.
func sameClustering(t *testing.T, label string, got *Clustering, want *cluster.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Assignments, want.Assignments) ||
		!reflect.DeepEqual(got.Medoids, want.Medoids) ||
		got.NumClusters != want.NumClusters || got.NoiseCount != want.NoiseCount {
		t.Fatalf("%s: differs from brute force\ngot  %v %v\nwant %v %v",
			label, got.Medoids, got.Assignments, want.Medoids, want.Assignments)
	}
	if math.Abs(got.Cost-want.Cost) > 1e-6 {
		t.Fatalf("%s: cost %v vs brute %v", label, got.Cost, want.Cost)
	}
}

// clusterScene builds a city-grid database plus a deterministic entity set
// hugging the free space.
func clusterScene(t *testing.T, seed int64, n int) (*Database, []Rect, []Point) {
	t.Helper()
	var rects []Rect
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			x, y := 10+float64(i)*30, 10+float64(j)*30
			rects = append(rects, R(x, y, x+20, y+20))
		}
	}
	db, err := NewDatabaseFromRects(rects, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var pts []Point
	for len(pts) < n {
		p := Pt(rng.Float64()*100, rng.Float64()*100)
		inside, err := db.InsideObstacle(p)
		if err != nil {
			t.Fatal(err)
		}
		if !inside {
			pts = append(pts, p)
		}
	}
	if err := db.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	return db, rects, pts
}

// degenerateScene holds the entities the street scenes lack: one strictly
// inside an obstacle, a coincident pair inside a blob and a coincident pair
// on its own, with a wall between two small groups.
func degenerateScene(t *testing.T) (*Database, []Rect, []Point) {
	t.Helper()
	rects := []Rect{R(20, 20, 40, 40), R(60, 10, 70, 90)}
	db, err := NewDatabaseFromRects(rects, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{
		Pt(30, 30), // buried in the first obstacle
		Pt(10, 10), Pt(10, 10), Pt(14, 10), Pt(10, 15),
		Pt(50, 50), Pt(55, 52), Pt(52, 56), // west of the wall
		Pt(75, 50), Pt(78, 53), Pt(76, 47), // east of it
		Pt(90, 90), Pt(90, 90),
	}
	if err := db.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	return db, rects, pts
}

// TestClusterMatchesBruteForceReference is the acceptance check: DBSCAN and
// k-medoids through the engine must produce clusters identical to the same
// algorithms run over brute-force obstructed distances, with buried entities
// as noise. DBSCAN is one self-join, one bounded expansion per seed, so a
// job runs at most one search per entity.
func TestClusterMatchesBruteForceReference(t *testing.T) {
	type scene struct {
		name  string
		db    *Database
		rects []Rect
		pts   []Point
	}
	var scenes []scene
	for _, seed := range []int64{81, 82, 83} {
		db, rects, pts := clusterScene(t, seed, 30)
		scenes = append(scenes, scene{fmt.Sprintf("seed %d", seed), db, rects, pts})
	}
	db, rects, pts := degenerateScene(t)
	scenes = append(scenes, scene{"degenerate", db, rects, pts})

	for _, sc := range scenes {
		brute := newBruteOracle(sc.rects)
		for _, copts := range []ClusterOptions{
			{Algorithm: DBSCAN, Eps: 15, MinPts: 3},
			{Algorithm: DBSCAN, Eps: 30, MinPts: 3},
			{Algorithm: DBSCAN, Eps: 60, MinPts: 3},
			{Algorithm: KMedoids, K: 2},
			{Algorithm: KMedoids, K: 4},
		} {
			label := fmt.Sprintf("%s %v eps %g k %d", sc.name, copts.Algorithm, copts.Eps, copts.K)
			var qs QueryStats
			got, err := sc.db.Cluster(ctx, "P", copts, WithStats(&qs))
			if err != nil {
				t.Fatal(err)
			}
			sameClustering(t, label, got, brute.cluster(t, sc.pts, copts))
			if copts.Algorithm == DBSCAN && qs.Expansions > uint64(len(sc.pts)) {
				t.Fatalf("%s: ran %d expansions for %d entities", label, qs.Expansions, len(sc.pts))
			}
			for i, p := range sc.pts {
				if brute.buried(p) && got.Assignments[i] != NoiseCluster {
					t.Fatalf("%s: buried entity %d in cluster %d", label, i, got.Assignments[i])
				}
			}
		}
	}
}

// TestClusterObstacleFreeMatchesEuclidean: with no obstacles the obstructed
// metric degenerates to Euclidean, and so must the clusterings.
func TestClusterObstacleFreeMatchesEuclidean(t *testing.T) {
	db, err := NewDatabaseFromRects(nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(84))
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
	}
	if err := db.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	euclid := newBruteOracle(nil)
	for _, copts := range []ClusterOptions{
		{Algorithm: DBSCAN, Eps: 12, MinPts: 3},
		{Algorithm: KMedoids, K: 5},
	} {
		got, err := db.Cluster(ctx, "P", copts)
		if err != nil {
			t.Fatal(err)
		}
		sameClustering(t, "obstacle-free "+copts.Algorithm.String(), got, euclid.cluster(t, pts, copts))
	}
}

// TestClusterWallSplit: two Euclidean-close strips separated by a wall must
// land in different obstructed clusters.
func TestClusterWallSplit(t *testing.T) {
	// A wall at x=50 with no gap inside the populated band.
	db, err := NewDatabaseFromRects([]Rect{R(49, -10, 51, 110)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(85))
	var pts []Point
	for i := 0; i < 12; i++ {
		pts = append(pts, Pt(44+rng.Float64()*4, 40+rng.Float64()*20))
	}
	for i := 0; i < 12; i++ {
		pts = append(pts, Pt(52+rng.Float64()*4, 40+rng.Float64()*20))
	}
	if err := db.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	// Control: plain Euclidean density sees one blob.
	eu := newBruteOracle(nil).cluster(t, pts, ClusterOptions{Algorithm: DBSCAN, Eps: 15, MinPts: 3})
	if eu.NumClusters != 1 {
		t.Fatalf("euclidean control: %d clusters, want 1", eu.NumClusters)
	}
	// Obstructed: the wall forces a detour of 100+, far beyond eps.
	got, err := db.Cluster(ctx, "P", ClusterOptions{Algorithm: DBSCAN, Eps: 15, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != 2 {
		t.Fatalf("wall scene: %d clusters, want 2 (%v)", got.NumClusters, got.Assignments)
	}
	if got.Assignments[0] == got.Assignments[12] {
		t.Fatalf("wall did not split clusters: %v", got.Assignments)
	}
	// k-medoids with k=2 must likewise put one medoid per side.
	km, err := db.Cluster(ctx, "P", ClusterOptions{Algorithm: KMedoids, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	sides := map[bool]int{}
	for _, md := range km.Medoids {
		sides[pts[md].X < 50]++
	}
	if sides[true] != 1 || sides[false] != 1 {
		t.Fatalf("medoids %v not split across the wall", km.Medoids)
	}
	if km.NoiseCount != 0 {
		t.Fatalf("k=2 stranded %d points", km.NoiseCount)
	}
}

// TestObstructedDistancesPublic: the batch API agrees with per-pair queries
// and reports Unreachable for sealed targets.
func TestObstructedDistancesPublic(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	q := Pt(5, 5)
	targets := []Point{Pt(95, 95), Pt(5, 80), Pt(20, 20), q}
	got, err := db.ObstructedDistances(ctx, q, targets)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range targets {
		want, err := db.ObstructedDistance(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		same := want == got[i] || math.Abs(want-got[i]) <= 1e-6 ||
			(math.IsInf(want, 1) && math.IsInf(got[i], 1))
		if !same {
			t.Fatalf("target %d: batch %v, per-pair %v", i, got[i], want)
		}
	}
	// Pt(20,20) is strictly inside the first building.
	if !math.IsInf(got[2], 1) {
		t.Fatalf("interior target distance = %v, want Unreachable", got[2])
	}
	if got[3] != 0 {
		t.Fatalf("self distance = %v", got[3])
	}
	// DistanceMatrix is consistent with the batch call.
	m, err := db.DistanceMatrix(ctx, []Point{q, Pt(95, 95), Pt(5, 80)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m[0][1]-got[0]) > 1e-6 || math.Abs(m[0][2]-got[1]) > 1e-6 {
		t.Fatalf("matrix row %v disagrees with batch %v", m[0], got[:2])
	}
}

// TestClusterSealedEntityIsNoise: an entity walled off from the rest of
// the dataset becomes NoiseCluster under both algorithms — it neither
// joins a DBSCAN cluster nor consumes a k-medoids cluster slot.
func TestClusterSealedEntityIsNoise(t *testing.T) {
	db, err := NewDatabaseFromRects([]Rect{
		R(40, 40, 60, 45), R(40, 55, 60, 60), R(40, 40, 45, 60), R(55, 40, 60, 60),
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{
		Pt(50, 50), // sealed inside the walls
		Pt(10, 10), Pt(12, 10), Pt(10, 12),
		Pt(90, 90), Pt(92, 90), Pt(90, 92),
	}
	if err := db.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	km, err := db.Cluster(ctx, "P", ClusterOptions{Algorithm: KMedoids, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if km.Assignments[0] != NoiseCluster || km.NoiseCount != 1 {
		t.Fatalf("sealed entity not noise under k-medoids: %+v", km)
	}
	for _, md := range km.Medoids {
		if md == 0 {
			t.Fatalf("sealed entity chosen as medoid: %v", km.Medoids)
		}
	}
	if km.NumClusters != 2 {
		t.Fatalf("k-medoids produced %d clusters, want 2", km.NumClusters)
	}
	dm, err := db.Cluster(ctx, "P", ClusterOptions{Algorithm: DBSCAN, Eps: 10, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dm.Assignments[0] != NoiseCluster {
		t.Fatalf("sealed entity not noise under DBSCAN: %v", dm.Assignments)
	}
	if dm.NumClusters != 2 {
		t.Fatalf("DBSCAN produced %d clusters, want 2", dm.NumClusters)
	}
}

// TestClusterCoincidentEntitiesKeepClusters: with coincident entities and K
// equal to the number of distinct locations, k-medoids still puts every
// medoid in its own cluster and leaves no cluster empty.
func TestClusterCoincidentEntitiesKeepClusters(t *testing.T) {
	db, err := NewDatabaseFromRects([]Rect{R(40, 40, 60, 60)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", []Point{Pt(10, 10), Pt(10, 10), Pt(90, 90)}); err != nil {
		t.Fatal(err)
	}
	km, err := db.Cluster(ctx, "P", ClusterOptions{Algorithm: KMedoids, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	size := make([]int, km.NumClusters)
	for _, c := range km.Assignments {
		size[c]++
	}
	for c, md := range km.Medoids {
		if km.Assignments[md] != c || size[c] == 0 {
			t.Fatalf("cluster %d (medoid %d) has %d members, its medoid is in cluster %d: %+v", c, md, size[c], km.Assignments[md], km)
		}
	}
}

// countdownCtx is a context that reports itself canceled once Err has been
// asked more than left times: a cancellation that lands at a fixed point
// inside a job, whatever the machine's speed.
type countdownCtx struct {
	context.Context
	left, asked atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.asked.Add(1) > c.left.Load() {
		return context.Canceled
	}
	return nil
}

// TestClusterCancelPartway: a context canceled halfway through a clustering
// job aborts it with the cancellation, under both algorithms.
func TestClusterCancelPartway(t *testing.T) {
	db, _, _ := clusterScene(t, 81, 30)
	for _, copts := range []ClusterOptions{
		{Algorithm: DBSCAN, Eps: 30, MinPts: 3},
		{Algorithm: KMedoids, K: 4},
	} {
		full := &countdownCtx{Context: context.Background()}
		full.left.Store(math.MaxInt64)
		if _, err := db.Cluster(full, "P", copts); err != nil {
			t.Fatal(err)
		}
		half := &countdownCtx{Context: context.Background()}
		half.left.Store(full.asked.Load() / 2)
		if _, err := db.Cluster(half, "P", copts); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v canceled after %d of %d context checks: err = %v",
				copts.Algorithm, half.left.Load(), full.asked.Load(), err)
		}
	}
}

// TestDBSCANMatchesPerEntityRange: DBSCAN over the self-join clusters exactly
// as DBSCAN over one obstacle range query per entity, the oracle kept here.
// Scenes mix street entities with buried ones. A pair within 1e-9 (relative,
// the engine's boundSlack) of ε may fall on either side, the two verbs
// rounding one-sidedly in different orders, so neighbour lists are compared
// without such pairs and a scene holding one is not clustered.
func TestDBSCANMatchesPerEntityRange(t *testing.T) {
	const slack = 1e-9
	rng := rand.New(rand.NewSource(86))
	clustered := 0
	for trial := 0; trial < 12; trial++ {
		db, _, pts := clusterScene(t, 100+int64(trial), 20+rng.Intn(30))
		var buried []Point
		for len(buried) < 2 {
			p := Pt(rng.Float64()*100, rng.Float64()*100)
			inside, err := db.InsideObstacle(p)
			if err != nil {
				t.Fatal(err)
			}
			if inside {
				buried = append(buried, p)
			}
		}
		if _, err := db.InsertPoints("P", buried...); err != nil {
			t.Fatal(err)
		}
		pts = append(pts, buried...)
		copts := ClusterOptions{Algorithm: DBSCAN, Eps: 5 + rng.Float64()*40, MinPts: 1 + rng.Intn(5)}
		near := func(d float64) bool { return math.Abs(d-copts.Eps) <= slack*copts.Eps }

		oracle := make([][]int, len(pts))
		nearPairs := 0
		for i, p := range pts {
			within, err := db.Range(ctx, "P", p, copts.Eps)
			if err != nil {
				t.Fatal(err)
			}
			for _, nb := range within {
				if near(nb.Distance) {
					nearPairs++
				} else if int(nb.ID) != i {
					oracle[i] = append(oracle[i], int(nb.ID))
				}
			}
		}
		pairs, err := db.DistanceJoin(ctx, "P", "P", copts.Eps)
		if err != nil {
			t.Fatal(err)
		}
		joined := make([][]int, len(pts))
		for _, pr := range pairs {
			if !near(pr.Distance) {
				joined[pr.ID1] = append(joined[pr.ID1], int(pr.ID2))
			}
		}
		for i := range pts {
			slices.Sort(oracle[i])
			slices.Sort(joined[i])
			if !slices.Equal(oracle[i], joined[i]) {
				t.Fatalf("trial %d eps %g: entity %d has range neighbours %v, self-join %v",
					trial, copts.Eps, i, oracle[i], joined[i])
			}
		}
		if nearPairs > 0 {
			continue
		}
		want, err := cluster.DBSCAN(oracle, copts.MinPts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Cluster(ctx, "P", copts)
		if err != nil {
			t.Fatal(err)
		}
		sameClustering(t, fmt.Sprintf("trial %d eps %g minPts %d", trial, copts.Eps, copts.MinPts), got, want)
		// A buried entity has no neighbour; at MinPts 1 it is its own cluster.
		for _, i := range []int{len(pts) - 2, len(pts) - 1} {
			if copts.MinPts > 1 && got.Assignments[i] != NoiseCluster {
				t.Fatalf("trial %d: buried entity %d in cluster %d", trial, i, got.Assignments[i])
			}
		}
		clustered++
	}
	if clustered < 10 {
		t.Fatalf("only %d of 12 scenes clustered", clustered)
	}
}

// TestDistanceMatrixCacheOnOff: the distance matrix walks one query-local
// field across its points, so the matrix and the k-medoids clustering read
// from it are the same with the engine's graph cache on and off. The matrix
// also costs at most one first visibility pass per graph node plus one per
// point, as the source (every point's target node stays from row to row).
// World: BenchmarkClusterKMedoids' street map at 60 entities. Run it under
// -race.
func TestDistanceMatrixCacheOnOff(t *testing.T) {
	world := dataset.Generate(dataset.DefaultConfig(9, 500))
	pts := world.Entities(world.EntityRand(2), 60)
	var ms [2][][]float64
	var kms [2]*Clustering
	for i, cached := range []bool{true, false} {
		db, err := NewDatabase(world.Polys, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if !cached {
			db.engine.EnableGraphCache(0)
		}
		if err := db.AddDataset("P", pts); err != nil {
			t.Fatal(err)
		}
		var qs QueryStats
		if ms[i], err = db.DistanceMatrix(ctx, pts, WithStats(&qs)); err != nil {
			t.Fatal(err)
		}
		if qs.Sweeps > uint64(qs.GraphNodes+len(pts)) {
			t.Errorf("cached=%v: %d visibility passes for %d graph nodes and %d points", cached, qs.Sweeps, qs.GraphNodes, len(pts))
		}
		t.Logf("cached=%v: %d sweeps, %d graph nodes, %d page accesses", cached, qs.Sweeps, qs.GraphNodes, qs.PageAccesses)
		if kms[i], err = db.Cluster(ctx, "P", ClusterOptions{Algorithm: KMedoids, K: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(ms[0], ms[1]) {
		t.Error("the distance matrix differs with the graph cache on and off")
	}
	if !reflect.DeepEqual(kms[0], kms[1]) {
		t.Errorf("k-medoids differs with the graph cache on and off: %+v vs %+v", kms[0], kms[1])
	}
}

// TestClusterObstaclePageGate pins the page accesses of a DBSCAN job, the
// cost the self-join removes: an entity with no Euclidean neighbour within ε
// never reads an obstacle page, each close pair is refined once, and a run of
// seeds whose disks meet reads its obstacles once. World: the generated
// street map, |O| = 1000, 300 entities, seed 1, MinPts 4, a fresh database
// per ε. The bounds are the counts with one obstacle window per run (88, 120
// and 91 pages) plus 10 %; with one obstacle scan per seed they were 99, 231
// and 536.
func TestClusterObstaclePageGate(t *testing.T) {
	world := dataset.Generate(dataset.DefaultConfig(1, 1000))
	pts := world.Entities(world.EntityRand(1), 300)
	for _, c := range []struct {
		eps   float64
		pages uint64
	}{{150, 97}, {300, 132}, {600, 100}} {
		db, err := NewDatabaseFromRects(world.Rects, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddDataset("P", pts); err != nil {
			t.Fatal(err)
		}
		var qs QueryStats
		cl, err := db.Cluster(ctx, "P", ClusterOptions{Algorithm: DBSCAN, Eps: c.eps, MinPts: 4}, WithStats(&qs))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("eps %g: %d page accesses (gate %d), %d close pairs, %d within eps, %d clusters, %d noise",
			c.eps, qs.PageAccesses, c.pages, qs.Candidates, qs.Results, cl.NumClusters, cl.NoiseCount)
		if qs.PageAccesses > c.pages {
			t.Errorf("eps %g: %d page accesses, gate %d", c.eps, qs.PageAccesses, c.pages)
		}
	}
}

// TestJoinWorkGate pins the work of P ⋈ Q on the benchmark world (the
// generated street map, |O| = 1000, seed 1, |P| = 2000, |Q| = 500) at
// e = 25, 50 and 75: its results and false hits, and its obstacle logical
// reads, which unlike page accesses do not depend on what the buffers hold.
// The bounds are the reads with one obstacle window per run of adjacent
// seeds (265, 493 and 562) plus 10 %; with one obstacle scan per seed they
// were 295, 597 and 770.
func TestJoinWorkGate(t *testing.T) {
	world := dataset.Generate(dataset.DefaultConfig(1, 1000))
	db, err := NewDatabaseFromRects(world.Rects, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AddDataset("P", world.Entities(world.EntityRand(1), 2000)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("Q", world.Entities(world.EntityRand(2), 500)); err != nil {
		t.Fatal(err)
	}
	obst := db.engine.Obstacles().Tree().PageFile()
	for _, c := range []struct {
		e                  float64
		results, falseHits int
		reads              uint64
	}{{25, 142, 19, 291}, {50, 289, 129, 542}, {75, 450, 169, 618}} {
		before := obst.Stats().LogicalReads
		var qs QueryStats
		pairs, err := db.DistanceJoin(ctx, "P", "Q", c.e, WithStats(&qs))
		if err != nil {
			t.Fatal(err)
		}
		reads := obst.Stats().LogicalReads - before
		t.Logf("e %g: %d pairs, %d false hits, %d obstacle logical reads (gate %d)", c.e, len(pairs), qs.FalseHits, reads, c.reads)
		if len(pairs) != c.results || qs.Results != c.results || qs.FalseHits != c.falseHits {
			t.Errorf("e %g: %d pairs, %d results, %d false hits; want %d results, %d false hits", c.e, len(pairs), qs.Results, qs.FalseHits, c.results, c.falseHits)
		}
		if reads > c.reads {
			t.Errorf("e %g: %d obstacle logical reads, gate %d", c.e, reads, c.reads)
		}
	}
}

// TestRefineWorkGate pins the refinement work of the paper's queries on the
// benchmark world (as TestJoinWorkGate's): OR at r = 300 and ONN at k = 8
// from 300 street points, and P ⋈ Q at e = 25, 50 and 75. Results,
// candidates and false hits are exact; the work is the grid walks
// (QueryStats.Walks) and, for OR, the visibility passes (QueryStats.Sweeps).
// The ceilings are the counts with points passed lazily, targets in plain
// sight left out of the graph and bounded passes stopped at the bound
// (13,905 OR walks in 3,455 passes, 116,084 ONN walks, 257 / 881 / 1,555
// join walks) plus 10 %. Passing every point as it arrived, building a graph
// for every target and passing in full, they were 51,606 OR walks in 5,951
// passes, 138,562 ONN walks and 881 / 2,715 / 4,949 join walks.
func TestRefineWorkGate(t *testing.T) {
	world := dataset.Generate(dataset.DefaultConfig(1, 1000))
	db, err := NewDatabaseFromRects(world.Rects, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AddDataset("P", world.Entities(world.EntityRand(1), 2000)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("Q", world.Entities(world.EntityRand(2), 500)); err != nil {
		t.Fatal(err)
	}
	type work struct {
		candidates, results, falseHits int
		walks, sweeps                  uint64
	}
	check := func(name string, got, want work) {
		t.Helper()
		t.Logf("%s: %d candidates, %d results, %d false hits, %d walks (gate %d), %d passes (gate %d)",
			name, got.candidates, got.results, got.falseHits, got.walks, want.walks, got.sweeps, want.sweeps)
		if got.candidates != want.candidates || got.results != want.results || got.falseHits != want.falseHits {
			t.Errorf("%s: %d candidates, %d results, %d false hits; want %d, %d, %d",
				name, got.candidates, got.results, got.falseHits, want.candidates, want.results, want.falseHits)
		}
		if got.walks > want.walks || want.sweeps > 0 && got.sweeps > want.sweeps {
			t.Errorf("%s: %d walks, %d passes; gates %d, %d", name, got.walks, got.sweeps, want.walks, want.sweeps)
		}
	}
	var or, onn work
	for _, q := range world.Queries(world.EntityRand(3), 300) {
		for _, c := range []struct {
			w   *work
			run func(*QueryStats) error
		}{
			{&or, func(qs *QueryStats) error { _, err := db.Range(ctx, "P", q, 300, WithStats(qs)); return err }},
			{&onn, func(qs *QueryStats) error { _, err := db.NearestNeighbors(ctx, "P", q, 8, WithStats(qs)); return err }},
		} {
			var qs QueryStats
			if err := c.run(&qs); err != nil {
				t.Fatal(err)
			}
			c.w.candidates += qs.Candidates
			c.w.results += qs.Results
			c.w.falseHits += qs.FalseHits
			c.w.walks += qs.Walks
			c.w.sweeps += qs.Sweeps
		}
	}
	check("OR r=300", or, work{2442, 1552, 890, 15295, 3800})
	check("ONN k=8", onn, work{4368, 2400, 583, 127692, 0})
	for _, c := range []struct {
		e    float64
		want work
	}{{25, work{161, 142, 19, 282, 0}}, {50, work{418, 289, 129, 969, 0}}, {75, work{619, 450, 169, 1710, 0}}} {
		var qs QueryStats
		pairs, err := db.DistanceJoin(ctx, "P", "Q", c.e, WithStats(&qs))
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != qs.Results {
			t.Errorf("e %g: %d pairs, %d results", c.e, len(pairs), qs.Results)
		}
		check(fmt.Sprintf("P ⋈ Q e=%g", c.e), work{qs.Candidates, qs.Results, qs.FalseHits, qs.Walks, 0}, c.want)
	}
}

func TestClusterValidation(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	if err := db.AddDataset("P", []Point{Pt(1, 1), Pt(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Cluster(ctx, "nope", ClusterOptions{Algorithm: DBSCAN, Eps: 5}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := db.Cluster(ctx, "P", ClusterOptions{Algorithm: DBSCAN}); err == nil {
		t.Error("DBSCAN without Eps accepted")
	}
	if _, err := db.Cluster(ctx, "P", ClusterOptions{Algorithm: DBSCAN, Eps: math.NaN()}); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("DBSCAN with NaN Eps: err = %v, want ErrInvalidArgument", err)
	}
	if _, err := db.Cluster(ctx, "P", ClusterOptions{Algorithm: KMedoids}); err == nil {
		t.Error("KMedoids without K accepted")
	}
	if _, err := db.Cluster(ctx, "P", ClusterOptions{Algorithm: ClusterAlgorithm(99), Eps: 5}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
