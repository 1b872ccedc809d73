package rtree

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
)

// TestSearchesUnderConcurrentEviction: behind a one-page buffer every node a
// traversal visits evicts the last one and recycles its frame. Goroutines
// searching windows, ellipses and nearest neighbours, while others churn the
// buffer with searches elsewhere, must each report exactly what a linear scan
// of the items does.
func TestSearchesUnderConcurrentEviction(t *testing.T) {
	tr := uniformTree(t, 5, 3000)
	items, err := tr.All()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.PageFile().SetBufferPages(1); err != nil {
		t.Fatal(err)
	}
	ids := func(its []Item) []int64 {
		out := make([]int64, len(its))
		for i, it := range its {
			out[i] = it.Data
		}
		slices.Sort(out)
		return out
	}
	scan := func(keep func(geom.Rect) bool) []int64 {
		var out []Item
		for _, it := range items {
			if keep(it.Rect) {
				out = append(out, it)
			}
		}
		return ids(out)
	}
	check := func(rng *rand.Rand) error {
		q := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		b := q.Add(geom.Pt(rng.Float64()*600-300, rng.Float64()*600-300))
		w := geom.R(q.X, q.Y, q.X+rng.Float64()*800, q.Y+rng.Float64()*800)
		sum := q.Dist(b) + rng.Float64()*400
		var got []Item
		collect := func(it Item) bool { got = append(got, it); return true }
		if err := tr.SearchRect(w, collect); err != nil {
			return err
		}
		if g, want := ids(got), scan(func(r geom.Rect) bool { return r.Intersects(w) }); !slices.Equal(g, want) {
			return fmt.Errorf("SearchRect(%v): %d items, linear scan %d", w, len(g), len(want))
		}
		got = got[:0]
		if err := tr.SearchEllipse(q, b, sum, collect); err != nil {
			return err
		}
		if g, want := ids(got), scan(func(r geom.Rect) bool { return withinEllipse(r, q, b, sum) }); !slices.Equal(g, want) {
			return fmt.Errorf("SearchEllipse(%v, %v, %v): %d items, linear scan %d", q, b, sum, len(g), len(want))
		}
		nn, err := tr.NearestK(q, 10)
		if err != nil {
			return err
		}
		dists := make([]float64, len(items))
		for i, it := range items {
			dists[i] = it.Rect.MinDist(q)
		}
		slices.Sort(dists)
		for i, nb := range nn {
			if nb.Dist != dists[i] {
				return fmt.Errorf("NearestK(%v) #%d at %v, linear scan %v", q, i, nb.Dist, dists[i])
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 25; i++ {
				if g%2 == 1 { // an evictor: reads elsewhere and checks nothing
					if err := tr.SearchCircle(geom.Pt(rng.Float64()*10000, rng.Float64()*10000), 500, func(Item) bool { return true }); err != nil {
						errs <- err
						return
					}
					continue
				}
				if err := check(rng); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWarmSearchAllocatesNothing: a search decodes every node into scratch it
// takes from, and gives back to, a free list, and the page file
// recycles the frame each miss evicts; so once warm, a SearchEllipse that
// misses the buffer on most of its nodes allocates nothing at all.
func TestWarmSearchAllocatesNothing(t *testing.T) {
	tr := uniformTree(t, 3, 20000)
	pf := tr.PageFile()
	if err := pf.SetBufferPages(2); err != nil {
		t.Fatal(err)
	}
	a, b := geom.Pt(4000, 4000), geom.Pt(6000, 5000)
	n := 0
	search := func() {
		n = 0
		if err := tr.SearchEllipse(a, b, a.Dist(b)+300, func(Item) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	search()
	before := pf.Stats()
	allocs := testing.AllocsPerRun(100, search)
	st := pf.Stats().Sub(before)
	if n == 0 || st.PhysicalReads < st.LogicalReads/2 {
		t.Fatalf("%d items, %d of %d node reads missed: the search must find items and miss the full buffer", n, st.PhysicalReads, st.LogicalReads)
	}
	if allocs != 0 {
		t.Errorf("warm SearchEllipse: %v allocations per search, want 0", allocs)
	}
}
