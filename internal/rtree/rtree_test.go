package rtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

// smallOpts forces tiny nodes (fanout 4) so even modest datasets produce
// deep trees, exercising splits, reinserts and multi-level traversal.
func smallOpts() Options {
	return Options{PageSize: 4 + 4*entrySize, BufferPages: 16}
}

func randPoint(rng *rand.Rand) geom.Point {
	return geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
}

func buildRandomPointTree(t *testing.T, rng *rand.Rand, n int, opts Options) (*Tree, []geom.Point) {
	t.Helper()
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = randPoint(rng)
		if err := tr.InsertPoint(pts[i], int64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return tr, pts
}

func TestEmptyTree(t *testing.T) {
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty tree: len %d height %d", tr.Len(), tr.Height())
	}
	b, err := tr.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsEmpty() {
		t.Errorf("empty bounds = %v", b)
	}
	count := 0
	if err := tr.SearchRect(geom.R(0, 0, 1000, 1000), func(Item) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("found %d in empty tree", count)
	}
	if _, ok := tr.NearestIterator(geom.Pt(0, 0)).Next(); ok {
		t.Error("NN in empty tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, _ := buildRandomPointTree(t, rng, 500, smallOpts())
	if tr.Len() != 500 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Height() < 3 {
		t.Errorf("expected deep tree, height %d", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRejectsEmptyRect(t *testing.T) {
	tr, _ := New(smallOpts())
	if err := tr.Insert(geom.EmptyRect(), 1); err == nil {
		t.Error("want error for empty rect")
	}
}

func TestNewRejectsTinyPage(t *testing.T) {
	if _, err := New(Options{PageSize: 64}); err == nil {
		t.Error("want error for page too small")
	}
}

func TestSearchRectMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, pts := buildRandomPointTree(t, rng, 400, smallOpts())
	for trial := 0; trial < 50; trial++ {
		lo := randPoint(rng)
		r := geom.R(lo.X, lo.Y, lo.X+rng.Float64()*300, lo.Y+rng.Float64()*300)
		want := map[int64]bool{}
		for i, p := range pts {
			if r.Contains(p) {
				want[int64(i)] = true
			}
		}
		got := map[int64]bool{}
		if err := tr.SearchRect(r, func(it Item) bool { got[it.Data] = true; return true }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing item %d", trial, id)
			}
		}
	}
}

func TestSearchCircleMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, pts := buildRandomPointTree(t, rng, 400, smallOpts())
	for trial := 0; trial < 50; trial++ {
		c := randPoint(rng)
		radius := rng.Float64() * 200
		want := map[int64]bool{}
		for i, p := range pts {
			if c.Dist(p) <= radius {
				want[int64(i)] = true
			}
		}
		got := map[int64]bool{}
		if err := tr.SearchCircle(c, radius, func(it Item) bool { got[it.Data] = true; return true }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
	}
}

// TestSearchCirclePrunesMonotone: a node is never pruned while a point under
// it passes the same entry test. The leaf holding (p, 50) and (p⁺, q), with p⁺
// one ulp above p, has its corner at (p, q); math.Hypot put that corner
// farther from the origin than (p⁺, q) itself, so a search whose radius was
// that point's own mindist skipped it.
func TestSearchCirclePrunesMonotone(t *testing.T) {
	p, q := 6.563701921747622, 1.0273457330801274
	pts := []geom.Point{geom.Pt(p, 50), geom.Pt(math.Nextafter(p, math.Inf(1)), q)}
	for i := 0; i < 6; i++ {
		pts = append(pts, geom.Pt(900+float64(i), 900+float64(7*i)))
	}
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if err := tr.InsertPoint(pt, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tr.readNode(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 2 || !slices.ContainsFunc(root.entries, func(e entry) bool { return e.rect.MinX == p && e.rect.MinY == q }) {
		t.Fatalf("height %d, root entries %v: want two levels and a leaf whose corner is (p, q)", tr.Height(), root.entries)
	}
	o := geom.Pt(0, 0)
	r := geom.PointRect(pts[1]).MinDist(o)
	var want, got []int64
	for i, pt := range pts {
		if withinEllipse(geom.PointRect(pt), o, o, 2*r) {
			want = append(want, int64(i))
		}
	}
	if err := tr.SearchCircle(o, r, func(it Item) bool { got = append(got, it.Data); return true }); err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("SearchCircle(origin, %v) = %v, linear scan %v", r, got, want)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr, _ := buildRandomPointTree(t, rng, 100, smallOpts())
	count := 0
	if err := tr.SearchRect(geom.R(0, 0, 1000, 1000), func(Item) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("early stop at %d, want 5", count)
	}
}

func TestNearestIteratorOrderAndCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, pts := buildRandomPointTree(t, rng, 300, smallOpts())
	q := geom.Pt(500, 500)
	it := tr.NearestIterator(q)
	var dists []float64
	seen := map[int64]bool{}
	for {
		nb, ok := it.Next()
		if !ok {
			break
		}
		dists = append(dists, nb.Dist)
		seen[nb.Item.Data] = true
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(dists) != len(pts) {
		t.Fatalf("iterator returned %d items, want %d", len(dists), len(pts))
	}
	if !sort.Float64sAreSorted(dists) {
		t.Error("NN distances not ascending")
	}
	// Matches brute force.
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = q.Dist(p)
	}
	sort.Float64s(want)
	for i := range want {
		if math.Abs(want[i]-dists[i]) > 1e-9 {
			t.Fatalf("rank %d: dist %v, want %v", i, dists[i], want[i])
		}
	}
}

func TestNearestK(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr, pts := buildRandomPointTree(t, rng, 200, smallOpts())
	q := randPoint(rng)
	nbs, err := tr.NearestK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 10 {
		t.Fatalf("got %d neighbors", len(nbs))
	}
	// The 10th NN distance must equal the brute-force 10th smallest.
	d := make([]float64, len(pts))
	for i, p := range pts {
		d[i] = q.Dist(p)
	}
	sort.Float64s(d)
	if math.Abs(nbs[9].Dist-d[9]) > 1e-9 {
		t.Errorf("10th NN = %v, want %v", nbs[9].Dist, d[9])
	}
	// k larger than the tree.
	all, err := tr.NearestK(q, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(pts) {
		t.Errorf("NearestK(1000) = %d items", len(all))
	}
}

func TestDeleteMaintainsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, pts := buildRandomPointTree(t, rng, 300, smallOpts())
	perm := rng.Perm(len(pts))
	for i, idx := range perm[:200] {
		found, err := tr.Delete(geom.PointRect(pts[idx]), int64(idx))
		if err != nil {
			t.Fatalf("delete %d: %v", idx, err)
		}
		if !found {
			t.Fatalf("delete %d: not found", idx)
		}
		if i%40 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 100 {
		t.Errorf("Len = %d, want 100", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Remaining points still findable; deleted ones gone.
	deleted := map[int]bool{}
	for _, idx := range perm[:200] {
		deleted[idx] = true
	}
	for i, p := range pts {
		hit := false
		if err := tr.SearchRect(geom.PointRect(p), func(it Item) bool {
			if it.Data == int64(i) {
				hit = true
				return false
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if hit == deleted[i] {
			t.Fatalf("point %d: hit=%v deleted=%v", i, hit, deleted[i])
		}
	}
	// Delete everything.
	for i := range pts {
		if !deleted[i] {
			if found, err := tr.Delete(geom.PointRect(pts[i]), int64(i)); err != nil || !found {
				t.Fatalf("final delete %d: %v %v", i, found, err)
			}
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("after deleting all: len %d height %d", tr.Len(), tr.Height())
	}
}

func TestDeleteNotFound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr, pts := buildRandomPointTree(t, rng, 50, smallOpts())
	found, err := tr.Delete(geom.PointRect(geom.Pt(-5, -5)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("deleted nonexistent point")
	}
	// Right rect, wrong id.
	found, err = tr.Delete(geom.PointRect(pts[0]), 9999)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("deleted with mismatched data id")
	}
	if tr.Len() != 50 {
		t.Errorf("Len changed to %d", tr.Len())
	}
}

func TestRectItems(t *testing.T) {
	// Non-point items (obstacle MBRs).
	rng := rand.New(rand.NewSource(9))
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	rects := make([]geom.Rect, 200)
	for i := range rects {
		p := randPoint(rng)
		rects[i] = geom.R(p.X, p.Y, p.X+rng.Float64()*50, p.Y+rng.Float64()*50)
		if err := tr.Insert(rects[i], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		c := randPoint(rng)
		radius := rng.Float64() * 150
		want := 0
		for _, r := range rects {
			if r.MinDist(c) <= radius {
				want++
			}
		}
		got := 0
		if err := tr.SearchCircle(c, radius, func(Item) bool { got++; return true }); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: circle got %d want %d", trial, got, want)
		}
	}
}

func TestBulkLoadSTR(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	items := make([]Item, 1000)
	pts := make([]geom.Point, len(items))
	for i := range items {
		pts[i] = randPoint(rng)
		items[i] = PointItem(pts[i], int64(i))
	}
	tr, err := BulkLoad(smallOpts(), items, STR)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(items) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Queries agree with linear scan.
	r := geom.R(200, 200, 600, 700)
	want := 0
	for _, p := range pts {
		if r.Contains(p) {
			want++
		}
	}
	got := 0
	if err := tr.SearchRect(r, func(Item) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %d want %d", got, want)
	}
	// Tree remains usable for subsequent inserts and deletes.
	if err := tr.InsertPoint(geom.Pt(1, 1), 5000); err != nil {
		t.Fatal(err)
	}
	if found, err := tr.Delete(geom.PointRect(pts[0]), 0); err != nil || !found {
		t.Fatalf("delete after bulk: %v %v", found, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after update: %v", err)
	}
}

func TestBulkLoadSmall(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 9, 17} {
		items := make([]Item, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range items {
			items[i] = PointItem(randPoint(rng), int64(i))
		}
		tr, err := BulkLoad(smallOpts(), items, STR)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBulkLoadRejectsEmptyRect(t *testing.T) {
	if _, err := BulkLoad(smallOpts(), []Item{{Rect: geom.EmptyRect()}}, STR); err == nil {
		t.Error("want error")
	}
}

func bruteJoin(pa, pb []geom.Point, e float64) map[[2]int64]bool {
	out := map[[2]int64]bool{}
	for i, a := range pa {
		for j, b := range pb {
			if a.Dist(b) <= e {
				out[[2]int64{int64(i), int64(j)}] = true
			}
		}
	}
	return out
}

func TestJoinDistanceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ta, pa := buildRandomPointTree(t, rng, 250, smallOpts())
	tb, pb := buildRandomPointTree(t, rng, 180, smallOpts())
	for _, e := range []float64{0, 5, 25, 80} {
		want := bruteJoin(pa, pb, e)
		got := map[[2]int64]bool{}
		err := JoinDistance(ta, tb, e, func(a, b Item) bool {
			got[[2]int64{a.Data, b.Data}] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("e=%v: got %d pairs, want %d", e, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("e=%v: missing pair %v", e, k)
			}
		}
	}
	t.Run("edge cases", testJoinEdgeCases)
}

// itemTree inserts the items one by one, each with its index as its datum.
func itemTree(t *testing.T, items []geom.Rect) *Tree {
	t.Helper()
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range items {
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// checkJoin compares JoinDistance's pair set with every pair of rectangles
// within e, each reported once.
func checkJoin(t *testing.T, name string, ta, tb *Tree, ra, rb []geom.Rect, e float64) {
	t.Helper()
	got := map[[2]int64]int{}
	if err := JoinDistance(ta, tb, e, func(a, b Item) bool {
		got[[2]int64{a.Data, b.Data}]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i, a := range ra {
		for j, b := range rb {
			if a.MinDistRect(b) > e {
				continue
			}
			want++
			if n := got[[2]int64{int64(i), int64(j)}]; n != 1 {
				t.Fatalf("%s e=%v: pair (%d, %d) at %v reported %d times", name, e, i, j, a.MinDistRect(b), n)
			}
		}
	}
	if len(got) != want {
		t.Fatalf("%s e=%v: %d pairs, brute force %d", name, e, len(got), want)
	}
}

// testJoinEdgeCases: the search-space restriction and the sweep keep every
// pair on the boundaries their tests draw — coincident points at e = 0,
// rectangles touching at a corner, pairs exactly e apart along one axis — in
// a self-join, and between trees of different heights either way round.
func testJoinEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var grid, stacked, rects []geom.Rect
	// A lattice of step 10: every neighbour is exactly 10 apart along one
	// axis, and every point has a twin at the same place.
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			p := geom.PointRect(geom.Pt(float64(10*i), float64(10*j)))
			grid = append(grid, p)
			stacked = append(stacked, p, p)
		}
	}
	// Cells of the same lattice, so that diagonal neighbours touch at a
	// corner and others share an edge, plus random rectangles.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if (i+j)%2 == 0 {
				rects = append(rects, geom.R(float64(10*i), float64(10*j), float64(10*i+10), float64(10*j+10)))
			}
		}
	}
	for i := 0; i < 60; i++ {
		x, y := rng.Float64()*120, rng.Float64()*120
		rects = append(rects, geom.R(x, y, x+rng.Float64()*15, y+rng.Float64()*15))
	}
	few := grid[:5]
	tGrid, tStacked, tRects, tFew := itemTree(t, grid), itemTree(t, stacked), itemTree(t, rects), itemTree(t, few)
	if tFew.Height() >= tStacked.Height() {
		t.Fatalf("heights %d and %d: want the second deeper", tFew.Height(), tStacked.Height())
	}
	for _, e := range []float64{0, 10, math.Nextafter(10, 0), 10 * math.Sqrt2, 25} {
		checkJoin(t, "coincident points", tGrid, tStacked, grid, stacked, e)
		checkJoin(t, "self-join", tStacked, tStacked, stacked, stacked, e)
		checkJoin(t, "touching rectangles", tRects, tRects, rects, rects, e)
		checkJoin(t, "rectangles and points", tRects, tGrid, rects, grid, e)
		checkJoin(t, "shallow and deep", tFew, tStacked, few, stacked, e)
		checkJoin(t, "deep and shallow", tStacked, tFew, stacked, few, e)
	}
}

func TestJoinDifferentHeights(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ta, pa := buildRandomPointTree(t, rng, 500, smallOpts()) // deep
	tb, pb := buildRandomPointTree(t, rng, 6, smallOpts())   // shallow
	e := 100.0
	want := bruteJoin(pa, pb, e)
	got := 0
	err := JoinDistance(ta, tb, e, func(a, b Item) bool { got++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("got %d pairs, want %d", got, len(want))
	}
	// Symmetric call (tb deeper side handled too).
	got = 0
	if err := JoinDistance(tb, ta, e, func(a, b Item) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("swapped: got %d pairs, want %d", got, len(want))
	}
}

func TestJoinEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ta, _ := buildRandomPointTree(t, rng, 100, smallOpts())
	tb, _ := buildRandomPointTree(t, rng, 100, smallOpts())
	count := 0
	err := JoinDistance(ta, tb, 500, func(a, b Item) bool {
		count++
		return count < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("early stop at %d", count)
	}
}

func TestClosestPairIterator(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ta, pa := buildRandomPointTree(t, rng, 120, smallOpts())
	tb, pb := buildRandomPointTree(t, rng, 90, smallOpts())
	it, err := NewClosestPairIterator(ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	var dists []float64
	n := 0
	prev := -1.0
	for {
		pr, ok := it.Next()
		if !ok {
			break
		}
		if pr.Dist < prev-1e-9 {
			t.Fatalf("pair %d: distance %v < previous %v", n, pr.Dist, prev)
		}
		prev = pr.Dist
		dists = append(dists, pr.Dist)
		n++
		if n >= 500 {
			break
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	// Compare with brute-force sorted pair distances.
	var want []float64
	for _, a := range pa {
		for _, b := range pb {
			want = append(want, a.Dist(b))
		}
	}
	sort.Float64s(want)
	for i := range dists {
		if math.Abs(dists[i]-want[i]) > 1e-9 {
			t.Fatalf("rank %d: %v want %v", i, dists[i], want[i])
		}
	}
}

func TestClosestPairsK(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ta, _ := buildRandomPointTree(t, rng, 60, smallOpts())
	tb, _ := buildRandomPointTree(t, rng, 60, smallOpts())
	pairs, err := ClosestPairs(ta, tb, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 16 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	// Empty side.
	empty, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	pairs, err = ClosestPairs(ta, empty, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Errorf("pairs with empty tree: %d", len(pairs))
	}
}

func TestPageAccessCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	items := make([]Item, 5000)
	for i := range items {
		items[i] = PointItem(randPoint(rng), int64(i))
	}
	tr, err := BulkLoad(Options{PageSize: 512, BufferPages: 8}, items, STR)
	if err != nil {
		t.Fatal(err)
	}
	// Small buffer: random queries must miss.
	if err := tr.PageFile().SetBufferPages(2); err != nil {
		t.Fatal(err)
	}
	tr.PageFile().ResetStats()
	for i := 0; i < 20; i++ {
		q := randPoint(rng)
		if err := tr.SearchCircle(q, 30, func(Item) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	small := tr.PageFile().Stats().PhysicalReads
	if small == 0 {
		t.Fatal("expected physical reads with tiny buffer")
	}
	// Buffer as large as the tree: repeated identical queries hit.
	if err := tr.PageFile().SetBufferPages(tr.PageFile().NumPages()); err != nil {
		t.Fatal(err)
	}
	q := geom.Pt(500, 500)
	if err := tr.SearchCircle(q, 30, func(Item) bool { return true }); err != nil {
		t.Fatal(err)
	}
	tr.PageFile().ResetStats()
	if err := tr.SearchCircle(q, 30, func(Item) bool { return true }); err != nil {
		t.Fatal(err)
	}
	st := tr.PageFile().Stats()
	if st.PhysicalReads != 0 {
		t.Errorf("warm repeat query had %d physical reads", st.PhysicalReads)
	}
	if st.BufferHits == 0 {
		t.Error("no buffer hits recorded")
	}
}

func TestInsertedTreeVsBulkLoadedAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	items := make([]Item, 600)
	for i := range items {
		items[i] = PointItem(randPoint(rng), int64(i))
	}
	bulk, err := BulkLoad(smallOpts(), items, STR)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := ins.Insert(it.Rect, it.Data); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		q := randPoint(rng)
		a, err := bulk.NearestK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ins.NearestK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
				t.Fatalf("trial %d rank %d: bulk %v insert %v", trial, i, a[i].Dist, b[i].Dist)
			}
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Pt(5, 5)
	for i := 0; i < 50; i++ {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := tr.SearchRect(geom.PointRect(p), func(Item) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Errorf("found %d duplicates, want 50", count)
	}
	for i := 0; i < 50; i++ {
		if found, err := tr.Delete(geom.PointRect(p), int64(i)); err != nil || !found {
			t.Fatalf("delete dup %d: %v %v", i, found, err)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
}
