package obstacles

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// distTol is how far two ways of computing one obstructed distance may
// differ: a pair runs A* from its target while a row expands from its
// source, so they sum the same legs in a different order.
const distTol = 1e-6

// TestMetricPropertiesOverReader: obstructed distance, as the reader serves
// it, is a metric on the default world (seed 1, |O| = 1000), whichever end of
// a pair a visibility pass happens to decide it from. Ten entities within
// 700 units of one another and two points buried in obstacles:
//   - d(a, b) = d(b, a);
//   - d(a, b) >= |ab|, with equality when no obstacle blocks the segment;
//   - d(a, c) <= d(a, b) + d(b, c);
//   - ObstructedDistance, ObstructedDistances, a DistanceMatrix row and a
//     Range row agree within distTol;
//   - Unreachable is closed under all of it: a buried point is unreachable
//     from every other point and reaches none, and is in no Range row.
func TestMetricPropertiesOverReader(t *testing.T) {
	world := dataset.Generate(dataset.DefaultConfig(1, 1000))
	db, err := NewDatabaseFromRects(world.Rects, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := world.EntityRand(11)
	pts := world.Entities(rng, 1)
	for len(pts) < 10 {
		if p := world.BoundaryPoint(rng); p.Dist(pts[0]) <= 700 {
			pts = append(pts, p)
		}
	}
	for _, r := range world.Rects {
		if r.Width() > 0 && r.Height() > 0 && r.Center().Dist(pts[0]) <= 700 {
			pts = append(pts, r.Center())
			if len(pts) == 12 {
				break
			}
		}
	}
	buried := func(i int) bool { return i >= 10 }
	if err := db.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	n := len(pts)
	m, err := db.DistanceMatrix(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	d := make([][]float64, n)
	for i := range pts {
		if d[i], err = db.ObstructedDistances(ctx, pts[i], pts); err != nil {
			t.Fatal(err)
		}
		for j := range pts {
			if i == j {
				continue
			}
			pair, err := db.ObstructedDistance(ctx, pts[i], pts[j])
			if err != nil {
				t.Fatal(err)
			}
			if !within(pair, d[i][j]) || !within(pair, m[i][j]) {
				t.Errorf("d(%d, %d): pair %v, batch %v, matrix %v", i, j, pair, d[i][j], m[i][j])
			}
			if math.IsInf(pair, 1) != (buried(i) || buried(j)) {
				t.Errorf("d(%d, %d) = %v, buried %v and %v", i, j, pair, buried(i), buried(j))
			}
		}
	}
	for i := range pts {
		if m[i][i] != 0 {
			t.Errorf("matrix diagonal %d = %v", i, m[i][i])
		}
		for j := range pts {
			if i == j {
				continue
			}
			if !within(d[i][j], d[j][i]) {
				t.Errorf("d(%d, %d) = %v, d(%d, %d) = %v", i, j, d[i][j], j, i, d[j][i])
			}
			e := pts[i].Dist(pts[j])
			if d[i][j] < e-distTol {
				t.Errorf("d(%d, %d) = %v below the Euclidean %v", i, j, d[i][j], e)
			}
			if !buried(i) && !buried(j) && !blocked(world.Rects, pts[i], pts[j]) && !within(d[i][j], e) {
				t.Errorf("d(%d, %d) = %v over an unobstructed segment of %v", i, j, d[i][j], e)
			}
			for k := range pts {
				if k != i && k != j && d[i][k] > d[i][j]+d[j][k]+distTol {
					t.Errorf("d(%d, %d) = %v > d(%d, %d) + d(%d, %d) = %v + %v", i, k, d[i][k], i, j, j, k, d[i][j], d[j][k])
				}
			}
		}
	}
	// A Range row reaches every point of the matrix row within its radius.
	for i := range pts {
		radius := 1.0
		for j := range pts {
			if !math.IsInf(m[i][j], 1) {
				radius = max(radius, m[i][j]+1)
			}
		}
		row, err := db.Range(ctx, "P", pts[i], radius)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int64]float64, len(row))
		for _, nb := range row {
			got[nb.ID] = nb.Distance
		}
		for j := range pts {
			dist, ok := got[int64(j)]
			switch {
			case buried(i) || buried(j):
				if ok {
					t.Errorf("Range from %d lists %d at %v; one of them is buried", i, j, dist)
				}
			case !ok || !within(dist, m[i][j]):
				t.Errorf("Range from %d: %d at %v (listed %v), matrix %v", i, j, dist, ok, m[i][j])
			}
		}
	}
}

// within reports whether two distances agree within distTol, or are both
// Unreachable.
func within(a, b float64) bool {
	return math.IsInf(a, 1) && math.IsInf(b, 1) || math.Abs(a-b) <= distTol
}

// blocked reports whether any rectangle's interior meets the segment ab, by
// linear scan.
func blocked(rects []geom.Rect, a, b Point) bool {
	for _, r := range rects {
		if geom.RectPolygon(r).BlocksSegment(a, b) {
			return true
		}
	}
	return false
}
