package rtree

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
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
