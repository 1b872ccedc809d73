package obstacles

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// ctx is the background context shared by the package's straight-line query
// tests; cancellation behaviour is covered in concurrency_test.go.
var ctx = context.Background()

// cityDB builds a small deterministic scene: a 3x3 block of square
// "buildings" with streets between them, and a few labeled points.
func cityDB(t *testing.T, opts Options) *Database {
	t.Helper()
	var rects []Rect
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			x := 10 + float64(i)*30
			y := 10 + float64(j)*30
			rects = append(rects, R(x, y, x+20, y+20))
		}
	}
	db, err := NewDatabaseFromRects(rects, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDatabaseBasics(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	if db.NumObstacles() != 9 {
		t.Fatalf("NumObstacles = %d", db.NumObstacles())
	}
	pts := []Point{Pt(5, 5), Pt(45, 5), Pt(95, 95), Pt(5, 95), Pt(45, 45)}
	if err := db.AddDataset("shops", pts); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("shops", pts); err == nil {
		t.Error("duplicate dataset accepted")
	}
	if got, err := db.DatasetLen("shops"); err != nil || got != len(pts) {
		t.Errorf("DatasetLen = %d, %v", got, err)
	}
	if _, err := db.DatasetLen("nope"); err == nil {
		t.Error("absent DatasetLen should error")
	}
	if !db.HasDataset("shops") || db.HasDataset("nope") {
		t.Error("HasDataset wrong")
	}
	if names := db.Datasets(); len(names) != 1 || names[0] != "shops" {
		t.Errorf("Datasets = %v", names)
	}
	if _, err := db.Range(ctx, "nope", Pt(0, 0), 5); err == nil {
		t.Error("query on unknown dataset should fail")
	}
}

func TestObstructedDistancePublic(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	// Corridor path between two buildings: straight line along the street.
	d, err := db.ObstructedDistance(ctx, Pt(5, 20), Pt(5, 80))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-60) > 1e-9 {
		t.Errorf("street-line distance = %v, want 60", d)
	}
	// Across a building: must detour around it.
	d, err = db.ObstructedDistance(ctx, Pt(5, 20), Pt(35, 20))
	if err != nil {
		t.Fatal(err)
	}
	direct := 30.0
	if d <= direct {
		t.Errorf("blocked distance %v should exceed direct %v", d, direct)
	}
}

func TestRangeAndNNPublic(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	pts := []Point{Pt(5, 5), Pt(45, 5), Pt(95, 95), Pt(5, 95), Pt(45, 45)}
	if err := db.AddDataset("shops", pts); err != nil {
		t.Fatal(err)
	}
	q := Pt(5, 5)
	nbs, err := db.Range(ctx, "shops", q, 45)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) == 0 || nbs[0].ID != 0 || nbs[0].Distance != 0 {
		t.Fatalf("self not first in range: %v", nbs)
	}
	for i := 1; i < len(nbs); i++ {
		if nbs[i].Distance < nbs[i-1].Distance {
			t.Error("range results unsorted")
		}
	}
	nn, err := db.NearestNeighbors(ctx, "shops", q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 3 || nn[0].ID != 0 {
		t.Fatalf("NN = %v", nn)
	}
	// Lower bound property on every reported distance.
	for _, nb := range nn {
		if nb.Distance < q.Dist(nb.Point)-1e-9 {
			t.Errorf("dO < dE for %v", nb)
		}
	}
}

func TestJoinAndClosestPairsPublic(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	homes := []Point{Pt(5, 5), Pt(35, 5), Pt(65, 5)}
	cafes := []Point{Pt(5, 35), Pt(95, 95)}
	if err := db.AddDataset("homes", homes); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("cafes", cafes); err != nil {
		t.Fatal(err)
	}
	pairs, err := db.DistanceJoin(ctx, "homes", "cafes", 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Distance > 40 {
			t.Errorf("join pair exceeds distance: %v", p)
		}
		if p.Distance < homes[p.ID1].Dist(cafes[p.ID2])-1e-9 {
			t.Errorf("join pair below Euclidean: %v", p)
		}
	}
	cps, err := db.ClosestPairs(ctx, "homes", "cafes", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 2 || cps[0].Distance > cps[1].Distance {
		t.Fatalf("closest pairs wrong: %v", cps)
	}
	// The overall closest pair must be home(0,(5,5)) - cafe(0,(5,35)):
	// straight along the street, distance 30.
	if cps[0].ID1 != 0 || cps[0].ID2 != 0 || math.Abs(cps[0].Distance-30) > 1e-9 {
		t.Errorf("top pair = %+v, want home0-cafe0 at 30", cps[0])
	}
}

// TestClosestPairsSelfPairsDistinctEntities: closest pairs of a dataset
// with itself never pair an entity with itself, and list each pair in both
// orientations, as the self-join does — from ClosestPairs and from the
// Closest stream alike (which may emit pairs at one distance in any order).
func TestClosestPairsSelfPairsDistinctEntities(t *testing.T) {
	db, err := NewDatabaseFromRects([]Rect{R(40, 40, 60, 60)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", []Point{Pt(0, 0), Pt(10, 0), Pt(100, 0), Pt(110, 0)}); err != nil {
		t.Fatal(err)
	}
	want := []Pair{{0, 1, 10}, {1, 0, 10}, {2, 3, 10}, {3, 2, 10}, {1, 2, 90}, {2, 1, 90}}
	got, err := db.ClosestPairs(ctx, "P", "P", len(want))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Pair
	for p, err := range db.Closest(ctx, "P", "P", WithLimit(len(want))) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, p)
	}
	slices.SortFunc(streamed, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID1, b.ID1), cmp.Compare(a.ID2, b.ID2))
	})
	for name, ps := range map[string][]Pair{"ClosestPairs": got, "Closest": streamed} {
		if !reflect.DeepEqual(ps, want) {
			t.Errorf("%s(P, P) = %v, want %v", name, ps, want)
		}
	}
}

func TestIteratorsPublic(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	pts := []Point{Pt(5, 5), Pt(45, 5), Pt(95, 95), Pt(5, 95), Pt(45, 45)}
	if err := db.AddDataset("shops", pts); err != nil {
		t.Fatal(err)
	}
	// From the street between blocks; (45, 45) is buried and comes last, at
	// Unreachable.
	count, prev := 0, -1.0
	for nb, err := range db.Nearest(ctx, "shops", Pt(35, 50)) {
		if err != nil {
			t.Fatal(err)
		}
		if nb.Distance < prev {
			t.Error("iterator not ascending")
		}
		prev = nb.Distance
		count++
	}
	if count != len(pts) {
		t.Errorf("iterator count = %d", count)
	}

	if err := db.AddDataset("depots", []Point{Pt(95, 5), Pt(5, 50)}); err != nil {
		t.Fatal(err)
	}
	count, prev = 0, -1.0
	for p, err := range db.Closest(ctx, "shops", "depots") {
		if err != nil {
			t.Fatal(err)
		}
		if p.Distance < prev {
			t.Error("pair iterator not ascending")
		}
		prev = p.Distance
		count++
	}
	if count != len(pts)*2 {
		t.Errorf("pair iterator count = %d, want %d", count, len(pts)*2)
	}
}

func TestStatsPublic(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	if err := db.AddDataset("shops", []Point{Pt(5, 5), Pt(95, 95)}); err != nil {
		t.Fatal(err)
	}
	// (35, 35) is a street crossing; a point inside a building would be
	// rejected before touching the dataset tree.
	var qs QueryStats
	if _, err := db.NearestNeighbors(ctx, "shops", Pt(35, 35), 1, WithStats(&qs)); err != nil {
		t.Fatal(err)
	}
	if qs.LogicalReads == 0 {
		t.Error("no tree reads recorded")
	}
	if qs.LogicalReads != qs.PageAccesses+qs.BufferHits {
		t.Errorf("reads %d != misses %d + hits %d", qs.LogicalReads, qs.PageAccesses, qs.BufferHits)
	}
	// The counters are per query: a second query starts from zero instead of
	// accumulating (what the removed process-global counters needed a reset
	// for).
	var again QueryStats
	if _, err := db.NearestNeighbors(ctx, "shops", Pt(35, 35), 1, WithStats(&again)); err != nil {
		t.Fatal(err)
	}
	if again.LogicalReads != qs.LogicalReads {
		t.Errorf("repeat query read %d nodes, first read %d", again.LogicalReads, qs.LogicalReads)
	}
}

func TestUnreachablePublic(t *testing.T) {
	// Sealed courtyard: overlapping walls.
	rects := []Rect{
		R(0, 0, 50, 10), R(0, 40, 50, 50), R(0, 0, 10, 50), R(40, 0, 50, 50),
	}
	db, err := NewDatabaseFromRects(rects, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.ObstructedDistance(ctx, Pt(25, 25), Pt(100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) || d != Unreachable {
		t.Errorf("sealed distance = %v, want Unreachable", d)
	}
}

func TestNewDatabaseValidation(t *testing.T) {
	if _, err := NewDatabaseFromRects([]Rect{{MinX: 1, MaxX: 0}}, DefaultOptions()); err == nil {
		t.Error("empty rect accepted")
	}
	// Empty obstacle set is fine: plain Euclidean behaviour.
	db, err := NewDatabaseFromRects(nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("p", []Point{Pt(0, 0), Pt(3, 4)}); err != nil {
		t.Fatal(err)
	}
	d, err := db.ObstructedDistance(ctx, Pt(0, 0), Pt(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-5) > 1e-9 {
		t.Errorf("no-obstacle distance = %v", d)
	}

	// Non-finite coordinates are rejected with a typed error wherever they
	// enter: obstacles at construction, points when a dataset is built or
	// grown. A stored NaN would rank first in every answer and could never
	// be found again to delete.
	nan, inf := math.NaN(), math.Inf(1)
	for _, r := range []Rect{R(nan, 0, 10, 10), R(0, 0, inf, 10), R(0, -inf, 10, 10)} {
		if _, err := NewDatabaseFromRects([]Rect{r}, DefaultOptions()); !errors.Is(err, ErrInvalidPolygon) {
			t.Errorf("NewDatabaseFromRects(%v) = %v, want ErrInvalidPolygon", r, err)
		}
	}
	for _, p := range []Point{Pt(nan, 3), Pt(3, inf), Pt(-inf, 3)} {
		if err := db.AddDataset("bad", []Point{Pt(1, 1), p}); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("AddDataset with %v = %v, want ErrInvalidArgument", p, err)
		}
		if _, err := db.InsertPoints("p", p); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("InsertPoints(%v) = %v, want ErrInvalidArgument", p, err)
		}
	}
	if db.HasDataset("bad") {
		t.Error("rejected AddDataset installed its dataset")
	}
	if n, err := db.DatasetLen("p"); err != nil || n != 2 {
		t.Errorf("dataset p holds %d entities (%v) after rejected inserts, want 2", n, err)
	}
}

// TestInsertBuiltTree: a dataset tree grown by repeated insertion (an
// empty AddDataset, then InsertPoints) answers like a bulk-loaded one.
func TestInsertBuiltTree(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	if err := db.AddDataset("p", nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{Pt(5, 5), Pt(95, 95), Pt(5, 95)} {
		if _, err := db.InsertPoints("p", p); err != nil {
			t.Fatal(err)
		}
	}
	nn, err := db.NearestNeighbors(ctx, "p", Pt(6, 6), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 1 || nn[0].ID != 0 {
		t.Errorf("NN over an insert-built tree = %v", nn)
	}
}

func TestObstructedPathPublic(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	// From the SW corner to east of the first building: the route must bend
	// around building corners and match the reported distance.
	a, b := Pt(5, 20), Pt(35, 20)
	path, dist, err := db.ObstructedPath(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := db.ObstructedDistance(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist-d2) > 1e-9 {
		t.Fatalf("path length %v != distance %v", dist, d2)
	}
	if len(path) < 3 {
		t.Fatalf("expected a bending route, got %v", path)
	}
	if path[0] != a || path[len(path)-1] != b {
		t.Fatalf("route endpoints wrong: %v", path)
	}
	sum := 0.0
	for i := 1; i < len(path); i++ {
		sum += path[i-1].Dist(path[i])
	}
	if math.Abs(sum-dist) > 1e-9 {
		t.Fatalf("polyline %v != %v", sum, dist)
	}
	// Unreachable route.
	sealed, err := NewDatabaseFromRects([]Rect{
		R(0, 0, 50, 10), R(0, 40, 50, 50), R(0, 0, 10, 50), R(40, 0, 50, 50),
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	path, dist, err = sealed.ObstructedPath(ctx, Pt(25, 25), Pt(100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if path != nil || dist != Unreachable {
		t.Fatalf("sealed route: %v %v", path, dist)
	}
}

func TestInsideObstaclePublic(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	if in, err := db.InsideObstacle(Pt(20, 20)); err != nil || !in {
		t.Errorf("building interior: %v %v", in, err)
	}
	if in, err := db.InsideObstacle(Pt(35, 35)); err != nil || in {
		t.Errorf("street crossing: %v %v", in, err)
	}
	if in, err := db.InsideObstacle(Pt(10, 20)); err != nil || in {
		t.Errorf("boundary point should not count as inside: %v %v", in, err)
	}
}

func TestLargeScaleSmoke(t *testing.T) {
	// A moderately large end-to-end scene through the public API: the
	// database holds thousands of obstacles/entities and all query types
	// agree on basic invariants.
	if testing.Short() {
		t.Skip("large scene")
	}
	rng := rand.New(rand.NewSource(99))
	var rects []Rect
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if rng.Intn(4) == 0 {
				continue // leave gaps
			}
			x, y := float64(i)*25, float64(j)*25
			rects = append(rects, R(x+3, y+3, x+22, y+22))
		}
	}
	db, err := NewDatabaseFromRects(rects, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, 3000)
	for i := range pts {
		r := rects[rng.Intn(len(rects))]
		pts[i] = Pt(r.MinX, r.MinY+rng.Float64()*(r.MaxY-r.MinY))
	}
	if err := db.AddDataset("p", pts); err != nil {
		t.Fatal(err)
	}
	q := Pt(500, 500)
	nn, err := db.NearestNeighbors(ctx, "p", q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 10 {
		t.Fatalf("got %d NNs", len(nn))
	}
	rr, err := db.Range(ctx, "p", q, nn[9].Distance)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr) < 10 {
		t.Fatalf("range(kth dist) returned %d < k", len(rr))
	}
	// kNN distances are a prefix of the range result distances.
	for i := 0; i < 10; i++ {
		if math.Abs(rr[i].Distance-nn[i].Distance) > 1e-9 {
			t.Fatalf("rank %d: range %v vs knn %v", i, rr[i].Distance, nn[i].Distance)
		}
	}
}
