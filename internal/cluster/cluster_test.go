package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
)

// refDBSCAN is an independent textbook implementation over a precomputed
// distance matrix, used as the reference for the production code.
func refDBSCAN(m [][]float64, eps float64, minPts int) []int {
	n := len(m)
	nb := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i && m[i][j] <= eps {
				nb[i] = append(nb[i], j)
			}
		}
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -2 // unvisited
	}
	c := 0
	for i := 0; i < n; i++ {
		if labels[i] != -2 {
			continue
		}
		if len(nb[i])+1 < minPts {
			labels[i] = Noise
			continue
		}
		labels[i] = c
		queue := append([]int(nil), nb[i]...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == Noise {
				labels[j] = c
			}
			if labels[j] != -2 {
				continue
			}
			labels[j] = c
			if len(nb[j])+1 >= minPts {
				queue = append(queue, nb[j]...)
			}
		}
		c++
	}
	return labels
}

func randomPoints(rng *rand.Rand, n int, size float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*size, rng.Float64()*size)
	}
	return pts
}

// euclidean is the obstacle-free reference metric as a distance matrix.
func euclidean(pts []geom.Point) [][]float64 {
	return matrix(pts, geom.Point.Dist)
}

// island is Euclidean within each side of the line x = 50 and +Inf across
// it — a hard wall, as obstructed metrics produce.
func island(pts []geom.Point) [][]float64 {
	return matrix(pts, func(a, b geom.Point) float64 {
		if (a.X < 50) != (b.X < 50) {
			return math.Inf(1)
		}
		return a.Dist(b)
	})
}

func matrix(pts []geom.Point, d func(a, b geom.Point) float64) [][]float64 {
	m := make([][]float64, len(pts))
	for i := range pts {
		m[i] = make([]float64, len(pts))
		for j := range pts {
			if j != i {
				m[i][j] = d(pts[i], pts[j])
			}
		}
	}
	return m
}

// within returns the ε-neighborhoods of the matrix's points, the form
// DBSCAN reads its metric in.
func within(m [][]float64, eps float64) [][]int {
	adj := make([][]int, len(m))
	for i := range m {
		for j, d := range m[i] {
			if j != i && d <= eps {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

func TestDBSCANMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		pts := randomPoints(rng, 10+rng.Intn(80), 100)
		eps := 3 + rng.Float64()*15
		minPts := 1 + rng.Intn(5)
		m := euclidean(pts)
		got, err := DBSCAN(within(m, eps), minPts)
		if err != nil {
			t.Fatal(err)
		}
		want := refDBSCAN(m, eps, minPts)
		if !reflect.DeepEqual(got.Assignments, want) {
			t.Fatalf("trial %d (eps=%v minPts=%d): %v\nwant %v", trial, eps, minPts, got.Assignments, want)
		}
		noise := 0
		for _, c := range want {
			if c == Noise {
				noise++
			}
		}
		if got.NoiseCount != noise {
			t.Fatalf("noise count %d, want %d", got.NoiseCount, noise)
		}
	}
}

func TestDBSCANBlobsAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	var pts []geom.Point
	centers := []geom.Point{geom.Pt(10, 10), geom.Pt(80, 80), geom.Pt(10, 80)}
	for _, c := range centers {
		for i := 0; i < 12; i++ {
			pts = append(pts, geom.Pt(c.X+rng.Float64()*4, c.Y+rng.Float64()*4))
		}
	}
	pts = append(pts, geom.Pt(45, 45)) // isolated: noise
	res, err := DBSCAN(within(euclidean(pts), 6), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 3 {
		t.Fatalf("found %d clusters, want 3", res.NumClusters)
	}
	if res.Assignments[len(pts)-1] != Noise || res.NoiseCount != 1 {
		t.Fatalf("isolated point not noise: %v (noise=%d)", res.Assignments[len(pts)-1], res.NoiseCount)
	}
	// Each blob lands in one cluster.
	for b := 0; b < 3; b++ {
		first := res.Assignments[b*12]
		for i := 0; i < 12; i++ {
			if res.Assignments[b*12+i] != first {
				t.Fatalf("blob %d split: %v", b, res.Assignments[b*12:b*12+12])
			}
		}
	}
	sizes := make([]int, res.NumClusters)
	for _, c := range res.Assignments {
		if c >= 0 {
			sizes[c]++
		}
	}
	for c, sz := range sizes {
		if sz != 12 {
			t.Fatalf("cluster %d size %d, want 12", c, sz)
		}
	}
}

func TestKMedoidsBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var pts []geom.Point
	centers := []geom.Point{geom.Pt(10, 10), geom.Pt(90, 90), geom.Pt(10, 90), geom.Pt(90, 10)}
	for _, c := range centers {
		for i := 0; i < 10; i++ {
			pts = append(pts, geom.Pt(c.X+rng.Float64()*6, c.Y+rng.Float64()*6))
		}
	}
	res, err := KMedoids(euclidean(pts), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 4 || len(res.Medoids) != 4 {
		t.Fatalf("clusters=%d medoids=%v", res.NumClusters, res.Medoids)
	}
	// One medoid per blob, and every blob member assigned to it.
	seen := map[int]bool{}
	for _, md := range res.Medoids {
		seen[md/10] = true
	}
	if len(seen) != 4 {
		t.Fatalf("medoids %v do not cover all blobs", res.Medoids)
	}
	for i := range pts {
		if res.Assignments[i] != res.Assignments[(i/10)*10] {
			t.Fatalf("blob %d split: point %d in %d", i/10, i, res.Assignments[i])
		}
	}
	if res.NoiseCount != 0 || math.IsInf(res.Cost, 1) {
		t.Fatalf("unexpected noise/cost: %+v", res)
	}
}

func TestDBSCANIslandsNeverMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	var pts []geom.Point
	for i := 0; i < 15; i++ { // dense strip just left of the wall
		pts = append(pts, geom.Pt(44+rng.Float64()*4, rng.Float64()*10))
	}
	for i := 0; i < 15; i++ { // dense strip just right of it
		pts = append(pts, geom.Pt(52+rng.Float64()*4, rng.Float64()*10))
	}
	// Euclidean clustering sees one dense blob.
	eu, err := DBSCAN(within(euclidean(pts), 12), 3)
	if err != nil {
		t.Fatal(err)
	}
	if eu.NumClusters != 1 {
		t.Fatalf("euclidean control found %d clusters, want 1", eu.NumClusters)
	}
	// The island metric must keep the two sides apart.
	res, err := DBSCAN(within(island(pts), 12), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("islands merged: %d clusters", res.NumClusters)
	}
	for i := 0; i < 15; i++ {
		if res.Assignments[i] != res.Assignments[0] || res.Assignments[15+i] != res.Assignments[15] {
			t.Fatalf("island split: %v", res.Assignments)
		}
	}
	if res.Assignments[0] == res.Assignments[15] {
		t.Fatal("distinct islands share a cluster")
	}
}

func TestKMedoidsIslandsAndNoise(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(10, 10), geom.Pt(12, 10), geom.Pt(11, 12), // left island
		geom.Pt(90, 90), geom.Pt(92, 90), // right island
	}
	// k=2: one medoid per island, nobody stranded.
	res, err := KMedoids(island(pts), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NoiseCount != 0 {
		t.Fatalf("k=2 left %d points unassigned", res.NoiseCount)
	}
	left := res.Assignments[0]
	if res.Assignments[1] != left || res.Assignments[2] != left {
		t.Fatalf("left island split: %v", res.Assignments)
	}
	if res.Assignments[3] == left || res.Assignments[3] != res.Assignments[4] {
		t.Fatalf("right island mis-assigned: %v", res.Assignments)
	}
	// k=1: the minority island is unreachable from the chosen medoid and
	// becomes Noise (coverage dominates cost, so the medoid sits on the
	// 3-point island).
	res, err = KMedoids(island(pts), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NoiseCount != 2 {
		t.Fatalf("k=1 noise = %d, want 2: %v", res.NoiseCount, res.Assignments)
	}
	if res.Assignments[3] != Noise || res.Assignments[4] != Noise {
		t.Fatalf("wrong island stranded: %v", res.Assignments)
	}
}

// TestKMedoidsSealedPointNeverMedoid: a point unreachable from everything
// must become Noise, not a medoid consuming a cluster slot — even when k
// exceeds the eligible population.
func TestKMedoidsSealedPointNeverMedoid(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(10, 10), geom.Pt(12, 10), geom.Pt(11, 12), // left island
		geom.Pt(90, 90), // alone on the right: unreachable from everything
	}
	for _, k := range []int{1, 2, 3} {
		res, err := KMedoids(island(pts), k, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, md := range res.Medoids {
			if md == 3 {
				t.Fatalf("k=%d: sealed point chosen as medoid: %v", k, res.Medoids)
			}
		}
		if res.Assignments[3] != Noise {
			t.Fatalf("k=%d: sealed point assigned %d, want Noise", k, res.Assignments[3])
		}
		if res.NoiseCount != 1 {
			t.Fatalf("k=%d: noise count %d, want 1", k, res.NoiseCount)
		}
	}
	// Everything sealed from everything: all noise, zero clusters.
	lonely := []geom.Point{geom.Pt(10, 10), geom.Pt(90, 90)}
	res, err := KMedoids(island(lonely), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || res.NoiseCount != 2 {
		t.Fatalf("all-sealed: %+v", res)
	}
}

func TestKMedoidsEdgeCases(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(75)), 6, 100)
	m := euclidean(pts)
	if _, err := KMedoids(m, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := DBSCAN(within(m, 1), 0); err == nil {
		t.Fatal("minPts=0 accepted")
	}
	// k >= n: every point serves as its own medoid (at cost 0), whatever
	// order BUILD picked them in.
	res, err := KMedoids(m, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != len(pts) || res.Cost != 0 {
		t.Fatalf("k>=n clusters = %d cost = %v", res.NumClusters, res.Cost)
	}
	for i := range pts {
		if res.Medoids[res.Assignments[i]] != i {
			t.Fatalf("k>=n: point %d not its own medoid: %+v", i, res)
		}
	}
	// A single point is one singleton cluster, not noise.
	res, err = KMedoids(euclidean(pts[:1]), 1, 0)
	if err != nil || res.NumClusters != 1 || res.NoiseCount != 0 || res.Assignments[0] != 0 {
		t.Fatalf("single point: %+v, %v", res, err)
	}
	// Empty input.
	res, err = KMedoids(nil, 3, 0)
	if err != nil || res.NumClusters != 0 {
		t.Fatalf("empty: %+v, %v", res, err)
	}
	empty, err := DBSCAN(within(nil, 5), 2)
	if err != nil || empty.NumClusters != 0 {
		t.Fatalf("empty dbscan: %+v, %v", empty, err)
	}
}

// TestKMedoidsCoincidentMedoidsKeepTheirClusters: a medoid coincident with
// another (distance 0 between them) is still assigned to its own cluster,
// so no cluster comes out empty.
func TestKMedoidsCoincidentMedoidsKeepTheirClusters(t *testing.T) {
	m := [][]float64{{0, 0, 5}, {0, 0, 5}, {5, 5, 0}}
	res, err := KMedoids(m, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c, md := range res.Medoids {
		if res.Assignments[md] != c {
			t.Fatalf("medoid %d of cluster %d is assigned to cluster %d: %+v", md, c, res.Assignments[md], res)
		}
	}
}

// TestDBSCANNeighborOrderIrrelevant: the clustering must not depend on the
// order of a neighborhood list (a distance join lists pairs by distance).
func TestDBSCANNeighborOrderIrrelevant(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 10; trial++ {
		pts := randomPoints(rng, 20+rng.Intn(60), 100)
		eps := 4 + rng.Float64()*12
		forward := within(euclidean(pts), eps)
		reversed := make([][]int, len(forward))
		for i, nb := range forward {
			reversed[i] = slices.Clone(nb)
			slices.Reverse(reversed[i])
		}
		plain, err := DBSCAN(forward, 3)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := DBSCAN(reversed, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Assignments, rev.Assignments) {
			t.Fatalf("trial %d: neighbor order changed the clustering\nforward  %v\nreversed %v",
				trial, plain.Assignments, rev.Assignments)
		}
	}
}

func TestClusteringDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	pts := randomPoints(rng, 60, 100)
	m := euclidean(pts)
	a1, err := DBSCAN(within(m, 10), 3)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := DBSCAN(within(m, 10), 3)
	if !reflect.DeepEqual(a1.Assignments, a2.Assignments) {
		t.Fatal("DBSCAN not deterministic")
	}
	b1, err := KMedoids(m, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := KMedoids(m, 5, 0)
	if !reflect.DeepEqual(b1.Assignments, b2.Assignments) || !reflect.DeepEqual(b1.Medoids, b2.Medoids) {
		t.Fatal("KMedoids not deterministic")
	}
}

// TestKMedoidsImprovesOnBuild: the SWAP phase must never worsen the BUILD
// seeding, and the final cost must be a local optimum under single swaps.
func TestKMedoidsLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := randomPoints(rng, 30, 100)
	m := euclidean(pts)
	res, err := KMedoids(m, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := clusteringCost(m, res.Medoids)
	if math.Abs(base-res.Cost) > 1e-9 {
		t.Fatalf("reported cost %v, recomputed %v", res.Cost, base)
	}
	isMedoid := map[int]bool{}
	for _, md := range res.Medoids {
		isMedoid[md] = true
	}
	for mi := range res.Medoids {
		for h := range pts {
			if isMedoid[h] {
				continue
			}
			alt := append([]int(nil), res.Medoids...)
			alt[mi] = h
			if clusteringCost(m, alt) < base-1e-9 {
				t.Fatalf("swap %d->%d improves cost below %v", res.Medoids[mi], h, base)
			}
		}
	}
}

func clusteringCost(m [][]float64, medoids []int) float64 {
	total := 0.0
	for i := range m {
		best := math.Inf(1)
		for _, md := range medoids {
			if m[i][md] < best {
				best = m[i][md]
			}
		}
		if !math.IsInf(best, 1) {
			total += best
		}
	}
	return total
}
