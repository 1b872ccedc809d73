package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

func TestNodeSerializationRoundTrip(t *testing.T) {
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := &node{level: 3, entries: []entry{
		{rect: geom.R(1.5, -2.25, 3.75, 4.125), ref: 42},
		{rect: geom.R(-1e9, -1e9, 1e9, 1e9), ref: ^uint64(0) >> 1},
	}}
	var errAlloc error
	n.id, errAlloc = tr.pf.Allocate()
	if errAlloc != nil {
		t.Fatal(errAlloc)
	}
	if err := tr.writeNode(n); err != nil {
		t.Fatal(err)
	}
	back, err := tr.readNode(n.id)
	if err != nil {
		t.Fatal(err)
	}
	if back.level != n.level || len(back.entries) != len(n.entries) {
		t.Fatalf("header mismatch: %+v", back)
	}
	for i := range n.entries {
		if back.entries[i] != n.entries[i] {
			t.Errorf("entry %d: %+v != %+v", i, back.entries[i], n.entries[i])
		}
	}
}

func TestWriteNodeRejectsOverflow(t *testing.T) {
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := &node{id: 1, entries: make([]entry, tr.maxE+1)}
	for i := range n.entries {
		n.entries[i].rect = geom.R(0, 0, 1, 1)
	}
	if err := tr.writeNode(n); err == nil {
		t.Error("want overflow error")
	}
}

func TestReadNodeCorruptCount(t *testing.T) {
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	id, _ := tr.pf.Allocate()
	page := make([]byte, tr.pf.PageSize())
	page[2] = 0xFF // count = huge
	page[3] = 0xFF
	if err := tr.pf.Write(id, page); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.readNode(id); err == nil {
		t.Error("want corruption error")
	}
}

func TestHeightGrowthAndShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	heights := []int{tr.Height()}
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = randPoint(rng)
		if err := tr.InsertPoint(pts[i], int64(i)); err != nil {
			t.Fatal(err)
		}
		if h := tr.Height(); h != heights[len(heights)-1] {
			heights = append(heights, h)
		}
	}
	// Height grew monotonically by 1.
	for i := 1; i < len(heights); i++ {
		if heights[i] != heights[i-1]+1 {
			t.Fatalf("height jumped: %v", heights)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("tree too shallow: %d", tr.Height())
	}
	// Deleting everything shrinks back to a single leaf.
	for i := range pts {
		if found, err := tr.Delete(geom.PointRect(pts[i]), int64(i)); err != nil || !found {
			t.Fatalf("delete %d: %v %v", i, found, err)
		}
	}
	if tr.Height() != 1 || tr.Len() != 0 {
		t.Errorf("after drain: height %d len %d", tr.Height(), tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSearchCircleZeroRadius(t *testing.T) {
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Pt(5, 5)
	if err := tr.InsertPoint(p, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertPoint(geom.Pt(6, 5), 2); err != nil {
		t.Fatal(err)
	}
	var got []int64
	if err := tr.SearchCircle(p, 0, func(it Item) bool {
		got = append(got, it.Data)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("zero-radius circle got %v", got)
	}
}

func TestJoinWithEmptyTree(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ta, _ := buildRandomPointTree(t, rng, 50, smallOpts())
	tb, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := JoinDistance(ta, tb, 1000, func(a, b Item) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("join with empty tree found %d pairs", count)
	}
}

func TestNearestIteratorRectItems(t *testing.T) {
	// NN over rectangle items (obstacle MBRs) orders by mindist.
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	rects := []geom.Rect{
		geom.R(10, 0, 12, 2),  // mindist to origin ~10
		geom.R(3, 4, 5, 6),    // mindist 5
		geom.R(-1, -1, 1, 1),  // contains origin: 0
		geom.R(0, 20, 30, 25), // mindist 20
	}
	for i, r := range rects {
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.NearestIterator(geom.Pt(0, 0))
	wantOrder := []int64{2, 1, 0, 3}
	for i, want := range wantOrder {
		nb, ok := it.Next()
		if !ok {
			t.Fatalf("exhausted at %d", i)
		}
		if nb.Item.Data != want {
			t.Fatalf("rank %d: got %d want %d", i, nb.Item.Data, want)
		}
	}
}

func TestQuickInsertDeleteModel(t *testing.T) {
	// Property: after an arbitrary interleaving of inserts and deletes, the
	// tree agrees with a map model on full contents.
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(63))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New(smallOpts())
		if err != nil {
			return false
		}
		model := map[int64]geom.Point{}
		next := int64(0)
		for op := 0; op < 300; op++ {
			if rng.Intn(3) != 0 || len(model) == 0 {
				p := randPoint(rng)
				if err := tr.InsertPoint(p, next); err != nil {
					return false
				}
				model[next] = p
				next++
			} else {
				for id, p := range model { // random-ish map pick
					found, err := tr.Delete(geom.PointRect(p), id)
					if err != nil || !found {
						return false
					}
					delete(model, id)
					break
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		items, err := tr.All()
		if err != nil || len(items) != len(model) {
			return false
		}
		for _, it := range items {
			p, ok := model[it.Data]
			if !ok || p.Dist(it.Rect.Center()) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestBoundsAfterMutations(t *testing.T) {
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 50}, {X: -20, Y: 80}}
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := tr.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if b != geom.R(-20, 0, 100, 80) {
		t.Errorf("bounds = %v", b)
	}
	if _, err := tr.Delete(geom.PointRect(pts[2]), 2); err != nil {
		t.Fatal(err)
	}
	b, err = tr.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if !b.ContainsRect(geom.R(0, 0, 100, 50)) {
		t.Errorf("bounds after delete = %v", b)
	}
}

func TestStatsExposedThroughPageFile(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	tr, _ := buildRandomPointTree(t, rng, 200, smallOpts())
	pf := tr.PageFile()
	if pf.NumPages() == 0 {
		t.Fatal("no pages allocated")
	}
	pf.ResetStats()
	if err := tr.SearchRect(geom.R(0, 0, 500, 500), func(Item) bool { return true }); err != nil {
		t.Fatal(err)
	}
	st := pf.Stats()
	if st.LogicalReads == 0 {
		t.Error("no logical reads recorded")
	}
	if st.LogicalReads != st.BufferHits+st.PhysicalReads {
		t.Errorf("logical != hits + physical: %+v", st)
	}
}

func TestMinDistConsistencyNNvsScan(t *testing.T) {
	// The NN iterator's first result equals the linear-scan minimum even
	// with degenerate (duplicate, collinear) points.
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	nb, ok := tr.NearestIterator(geom.Pt(0, 0)).Next()
	if !ok {
		t.Fatal("no result")
	}
	if math.Abs(nb.Dist-math.Sqrt2) > 1e-12 {
		t.Errorf("first NN dist = %v", nb.Dist)
	}
}

// faultyStorage fails all reads after a threshold, to check error paths in
// traversals.
type faultyStorage struct {
	pagefile.Storage
	reads, failAfter int
}

func (fs *faultyStorage) ReadPage(id pagefile.PageID, dst []byte) error {
	fs.reads++
	if fs.reads > fs.failAfter {
		return pagefile.ErrPageNotFound
	}
	return fs.Storage.ReadPage(id, dst)
}

func TestTraversalErrorPropagation(t *testing.T) {
	fs := &faultyStorage{Storage: pagefile.NewMemStorage(4 + 4*entrySize), failAfter: 1 << 30}
	opts := smallOpts()
	opts.Storage = fs
	opts.BufferPages = 1 // force physical reads
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(65))
	for i := 0; i < 200; i++ {
		if err := tr.InsertPoint(randPoint(rng), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.failAfter = fs.reads // every further physical read fails
	if err := tr.SearchRect(geom.R(0, 0, 1000, 1000), func(Item) bool { return true }); err == nil {
		t.Error("SearchRect should surface I/O errors")
	}
	it := tr.NearestIterator(geom.Pt(500, 500))
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if it.Err() == nil {
		t.Error("NN iterator should surface I/O errors")
	}
}

// TestClosestPairIteratorTiesAndExhaustion drains the iterator over two
// lattice point sets, where most distances are shared by many pairs and the
// trees differ in height: every pair must come out exactly once, in
// non-decreasing distance, and the distances must equal the brute-force
// sorted ones bit for bit (which pair of a tie comes first is not specified).
func TestClosestPairIteratorTiesAndExhaustion(t *testing.T) {
	lattice := func(n int, step, off float64) (*Tree, []geom.Point) {
		tr, err := New(smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		var pts []geom.Point
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p := geom.Pt(off+step*float64(i), off+step*float64(j))
				if err := tr.InsertPoint(p, int64(len(pts))); err != nil {
					t.Fatal(err)
				}
				pts = append(pts, p)
			}
		}
		return tr, pts
	}
	ta, pa := lattice(9, 2, 0)
	tb, pb := lattice(4, 3, 1)
	if ta.Height() == tb.Height() {
		t.Fatalf("trees have equal height %d; the test wants them to differ", ta.Height())
	}
	// The iterator reports the mindist of the two point rectangles.
	dist := func(a, b geom.Point) float64 { return geom.PointRect(a).MinDistRect(geom.PointRect(b)) }
	var want []float64
	for _, a := range pa {
		for _, b := range pb {
			want = append(want, dist(a, b))
		}
	}
	sort.Float64s(want)
	it, err := NewClosestPairIterator(ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]bool{}
	for i := 0; ; i++ {
		pr, ok := it.Next()
		if !ok {
			if i != len(want) {
				t.Fatalf("iterator ended after %d pairs, want %d", i, len(want))
			}
			break
		}
		if i >= len(want) || pr.Dist != want[i] {
			t.Fatalf("pair %d: distance %v, brute force has %v", i, pr.Dist, want[min(i, len(want)-1)])
		}
		if d := dist(pa[pr.A.Data], pb[pr.B.Data]); pr.Dist != d {
			t.Fatalf("pair %d: reported %v, items are %v apart", i, pr.Dist, d)
		}
		key := [2]int64{pr.A.Data, pr.B.Data}
		if seen[key] {
			t.Fatalf("pair %v reported twice", key)
		}
		seen[key] = true
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}
