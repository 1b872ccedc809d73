package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pagefile"
)

// BenchmarkSearchCircle is the obstacle range scan under every obstructed
// query: the benchmark world's 1000 street MBRs, circles around its entity
// points at the radii a k-NN or range request enlarges through.
func BenchmarkSearchCircle(b *testing.B) {
	w := dataset.Generate(dataset.DefaultConfig(1, 1000))
	items := make([]Item, len(w.Rects))
	for i, r := range w.Rects {
		items[i] = Item{Rect: r, Data: int64(i)}
	}
	tr, err := BulkLoad(Options{}, items, STR)
	if err != nil {
		b.Fatal(err)
	}
	centers := w.Entities(w.EntityRand(1), 256)
	for _, radius := range []float64{50, 300, 2000} {
		b.Run(fmt.Sprintf("radius=%v", radius), func(b *testing.B) {
			b.ReportAllocs()
			found := 0
			for i := 0; i < b.N; i++ {
				if err := tr.SearchCircle(centers[i%len(centers)], radius, func(Item) bool { found++; return true }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(found)/float64(b.N), "items/op")
		})
	}
}

// minFocalSumSampled is the least |xa| + |xb| over a dense grid of points of
// r, its boundary included: never below the exact least value, and within a
// fraction of a grid step of it.
func minFocalSumSampled(r geom.Rect, a, b geom.Point) float64 {
	const steps = 60
	best := math.Inf(1)
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			x := geom.Pt(r.MinX+r.Width()*float64(i)/steps, r.MinY+r.Height()*float64(j)/steps)
			best = min(best, x.Dist(a)+x.Dist(b))
		}
	}
	return best
}

// TestSearchEllipseMatchesLinearScan: SearchEllipse reports exactly the items
// a linear scan of its entry test keeps, so every rectangle that meets the
// ellipse — its least |xa| + |xb|, found by dense sampling, within sum — is
// among them; and with both foci at one center and sum twice a radius it is
// SearchCircle, item for item and page read for page read.
func TestSearchEllipseMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	var rects []geom.Rect
	for i := 0; i < 400; i++ {
		p := randPoint(rng)
		r := geom.R(p.X, p.Y, p.X+rng.Float64()*60, p.Y+rng.Float64()*20)
		if i%5 == 0 {
			r = geom.PointRect(p)
		}
		rects = append(rects, r)
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	search := func(a, b geom.Point, sum float64) (map[int64]bool, uint64) {
		var io pagefile.Stats
		got := map[int64]bool{}
		if err := tr.Counted(&io).SearchEllipse(a, b, sum, func(it Item) bool { got[it.Data] = true; return true }); err != nil {
			t.Fatal(err)
		}
		return got, io.LogicalReads
	}
	met := 0
	for trial := 0; trial < 60; trial++ {
		a, b := randPoint(rng), randPoint(rng)
		if trial%6 == 0 {
			b = a.Add(geom.Pt(rng.Float64()*5, 0)) // nearly a disk
		}
		sum := a.Dist(b) * (1 + rng.Float64()*0.5)
		if trial%10 == 0 {
			sum = a.Dist(b) // the segment itself
		}
		got, _ := search(a, b, sum)
		for i, r := range rects {
			want := r.MinDist(a)+r.MinDist(b) <= sum
			if got[int64(i)] != want {
				t.Fatalf("ellipse %v %v sum %v: rectangle %v reported %v, entry test %v", a, b, sum, r, got[int64(i)], want)
			}
			if minFocalSumSampled(r, a, b) <= sum {
				met++
				if !got[int64(i)] {
					t.Fatalf("ellipse %v %v sum %v: rectangle %v meets it and was not reported", a, b, sum, r)
				}
			}
		}
	}
	if met == 0 {
		t.Fatal("no rectangle met any ellipse; the test checks nothing")
	}
	for trial := 0; trial < 30; trial++ {
		c, radius := randPoint(rng), rng.Float64()*200
		var io pagefile.Stats
		circle := map[int64]bool{}
		if err := tr.Counted(&io).SearchCircle(c, radius, func(it Item) bool { circle[it.Data] = true; return true }); err != nil {
			t.Fatal(err)
		}
		got, reads := search(c, c, 2*radius)
		if len(got) != len(circle) || reads != io.LogicalReads {
			t.Fatalf("disk %v r %v: SearchEllipse %d items in %d page reads, SearchCircle %d in %d", c, radius, len(got), reads, len(circle), io.LogicalReads)
		}
		for i, r := range rects {
			if got[int64(i)] != circle[int64(i)] || got[int64(i)] != (r.MinDist(c) <= radius) {
				t.Fatalf("disk %v r %v: rectangle %v: ellipse %v, circle %v", c, radius, r, got[int64(i)], circle[int64(i)])
			}
		}
	}
}

// TestSearchEllipseInWindow: a run of disk searches through a Window, each
// of radius at most the window's distance around a point of its region,
// reports what SearchEllipse does, item for item and in the same order, also
// when a search through the window starts inside another's callback. The
// window reads each page once however many of its searches visit it, never
// more than the searches do alone, and none on a second pass; a Reset window
// reads as a fresh one.
func TestSearchEllipseInWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr, err := New(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		p := randPoint(rng)
		r := geom.R(p.X, p.Y, p.X+rng.Float64()*40, p.Y+rng.Float64()*40)
		if i%5 == 0 {
			r = geom.PointRect(p)
		}
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	search := func(w *Window, c geom.Point, radius float64) ([]int64, uint64) {
		var io pagefile.Stats
		var got []int64
		if err := tr.Counted(&io).SearchEllipseIn(w, c, c, 2*radius, func(it Item) bool { got = append(got, it.Data); return true }); err != nil {
			t.Fatal(err)
		}
		return got, io.LogicalReads
	}
	type disk struct {
		c      geom.Point
		radius float64
	}
	var w Window
	saved := uint64(0)
	for trial := 0; trial < 60; trial++ {
		dist := rng.Float64() * 120
		// A run: each center within 2*dist of the one before, radii up to
		// dist, and every other run a single disk of radius dist.
		run := []disk{{randPoint(rng), dist}}
		for n := (trial % 2) * (2 + rng.Intn(10)); len(run) < n; {
			p := run[len(run)-1].c
			run = append(run, disk{p.Add(geom.Pt((rng.Float64()*2-1)*dist, (rng.Float64()*2-1)*dist)), dist * []float64{1, rng.Float64()}[rng.Intn(2)]})
		}
		near := geom.PointRect(run[0].c)
		for _, d := range run {
			near = near.ExtendPoint(d.c)
		}
		w.Reset(near, dist)
		var winReads, alone uint64
		for i, d := range run {
			want, reads := search(nil, d.c, d.radius)
			got, wreads := search(&w, d.c, d.radius)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d search %d: through the window %v, alone %v", trial, i, got, want)
			}
			if i == 0 && wreads != reads {
				t.Fatalf("trial %d: a fresh window read %d pages, the search alone %d", trial, wreads, reads)
			}
			if wreads > reads {
				t.Fatalf("trial %d search %d: %d page reads through the window, %d alone", trial, i, wreads, reads)
			}
			winReads, alone = winReads+wreads, alone+reads
		}
		if winReads != uint64(len(w.nodes)) || winReads > alone {
			t.Fatalf("trial %d: the window read %d pages for %d nodes; the searches alone %d", trial, winReads, len(w.nodes), alone)
		}
		saved += alone - winReads
		for i, d := range run {
			if _, again := search(&w, d.c, d.radius); again != 0 {
				t.Fatalf("trial %d search %d: %d page reads on the second pass", trial, i, again)
			}
		}
		// A search through the window from inside another's callback.
		first, last := run[0], run[len(run)-1]
		want, _ := search(nil, last.c, last.radius)
		err := tr.SearchEllipseIn(&w, first.c, first.c, 2*first.radius, func(Item) bool {
			if got, _ := search(&w, last.c, last.radius); !slices.Equal(got, want) {
				t.Fatalf("trial %d: a nested search found %v, alone %v", trial, got, want)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if saved == 0 {
		t.Fatal("no run shared a page; the test checks nothing")
	}
}

// TestSearchAllocsIndependentOfNodesVisited: a search decodes nodes into
// scratch it owns, one buffer per level (replaced at most once, by one that
// fits any node), so a search of the whole tree allocates about what a search
// of one root-to-leaf path does; and a search started from inside a callback
// has scratch of its own.
func TestSearchAllocsIndependentOfNodesVisited(t *testing.T) {
	tr := uniformTree(t, 3, 20000)
	// Every page stays buffered, so a miss's frame is not counted as the
	// search's allocation.
	if err := tr.PageFile().SetBufferPages(tr.PageFile().NumPages()); err != nil {
		t.Fatal(err)
	}
	visit := func(radius float64) (allocs float64, items int) {
		allocs = testing.AllocsPerRun(10, func() {
			items = 0
			if err := tr.SearchCircle(geom.Pt(5000, 5000), radius, func(Item) bool { items++; return true }); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, items
	}
	onePath, few := visit(30)
	whole, all := visit(20000)
	if all != tr.Len() || few == 0 || few > 100 {
		t.Fatalf("searches found %d and %d of %d items", few, all, tr.Len())
	}
	if whole > onePath+float64(tr.Height()) || whole > float64(2*tr.Height()+1) {
		t.Errorf("SearchCircle: %v allocations over the whole tree, %v over one path, height %d", whole, onePath, tr.Height())
	}
	if rectAllocs := testing.AllocsPerRun(10, func() {
		if err := tr.SearchRect(geom.R(0, 0, 10000, 10000), func(Item) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}); rectAllocs > whole {
		t.Errorf("SearchRect over the whole tree: %v allocations, SearchCircle %v", rectAllocs, whole)
	}

	// Nested: for each item near the centre, count its own neighbours.
	outer, inner := 0, 0
	err := tr.SearchCircle(geom.Pt(5000, 5000), 300, func(a Item) bool {
		outer++
		return tr.SearchCircle(a.Rect.Center(), 100, func(Item) bool { inner++; return true }) == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	items, err := tr.All()
	if err != nil {
		t.Fatal(err)
	}
	wantOuter, wantInner := 0, 0
	for _, a := range items {
		if a.Rect.MinDist(geom.Pt(5000, 5000)) > 300 {
			continue
		}
		wantOuter++
		for _, b := range items {
			if b.Rect.MinDist(a.Rect.Center()) <= 100 {
				wantInner++
			}
		}
	}
	if outer != wantOuter || inner != wantInner {
		t.Errorf("nested searches found %d outer and %d inner items, linear scan %d and %d", outer, inner, wantOuter, wantInner)
	}
}

// TestInsertBuiltWindowReads: a tree built by Insert over the 10⁴-obstacle
// street map keeps its invariants and answers circular windows with at most
// 5 % more logical page reads than the STR-packed tree of the same MBRs.
func TestInsertBuiltWindowReads(t *testing.T) {
	w := dataset.Generate(dataset.DefaultConfig(1, 10000))
	items := make([]Item, len(w.Rects))
	for i, r := range w.Rects {
		items[i] = Item{Rect: r, Data: int64(i)}
	}
	packed, err := BulkLoad(Options{BufferPages: 1}, items, STR)
	if err != nil {
		t.Fatal(err)
	}
	inserted, err := New(Options{BufferPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := inserted.Insert(it.Rect, it.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := inserted.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	queries := w.Queries(rand.New(rand.NewSource(7)), 300)
	reads := func(tr *Tree) (reads uint64, found int) {
		tr.PageFile().ResetStats()
		for _, q := range queries {
			if err := tr.SearchCircle(q, 200, func(Item) bool { found++; return true }); err != nil {
				t.Fatal(err)
			}
		}
		return tr.PageFile().Stats().LogicalReads, found
	}
	strReads, strFound := reads(packed)
	insReads, insFound := reads(inserted)
	if insFound != strFound {
		t.Fatalf("inserted tree found %d items, STR tree %d", insFound, strFound)
	}
	ratio := float64(insReads) / float64(strReads)
	t.Logf("pages %d (STR %d); window reads %d (STR %d), %.3fx",
		inserted.NumPages(), packed.NumPages(), insReads, strReads, ratio)
	if ratio > 1.05 {
		t.Errorf("inserted tree reads %.3fx the STR tree's pages per window, want <= 1.05x", ratio)
	}
}
