package rtree

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pagefile"
)

// uniformTree bulk-loads n uniform points of the 10000-unit universe into a
// tree with the default page size (fanout 102), as the engine builds its
// entity trees.
func uniformTree(tb testing.TB, seed int64, n int) *Tree {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = PointItem(geom.Pt(rng.Float64()*10000, rng.Float64()*10000), int64(i))
	}
	t, err := BulkLoad(Options{}, items, STR)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// BenchmarkClosestPairs is the in-process twin of the closest-pairs requests
// of the paper_mix workload (P = 2000, Q = 500 over the same space) and of a
// paper-scale pair of sets; k = 200000 drains a fifth of the cross product.
func BenchmarkClosestPairs(b *testing.B) {
	for _, size := range []struct {
		p, q int
		ks   []int
	}{
		{2000, 500, []int{16, 256, 200000}},
		{20000, 20000, []int{16, 256}},
	} {
		ta, tb := uniformTree(b, 1, size.p), uniformTree(b, 2, size.q)
		for _, k := range size.ks {
			b.Run(fmt.Sprintf("P=%d/Q=%d/k=%d", size.p, size.q, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pairs, err := ClosestPairs(ta, tb, k)
					if err != nil || len(pairs) != k {
						b.Fatalf("%d pairs, %v", len(pairs), err)
					}
				}
			})
		}
	}
}

// BenchmarkJoinDistance joins the benchmark world's two entity sets (street
// points of the default 1000-obstacle world) at the paper_mix join distances.
func BenchmarkJoinDistance(b *testing.B) {
	w := dataset.Generate(dataset.DefaultConfig(1, 1000))
	load := func(pts []geom.Point) *Tree {
		items := make([]Item, len(pts))
		for i, p := range pts {
			items[i] = PointItem(p, int64(i))
		}
		t, err := BulkLoad(Options{}, items, STR)
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	ta, tb := load(w.Entities(w.EntityRand(1), 2000)), load(w.Entities(w.EntityRand(2), 500))
	for _, e := range []float64{25, 50, 75} {
		b.Run(fmt.Sprintf("dist=%v", e), func(b *testing.B) {
			b.ReportAllocs()
			pairs := 0
			for i := 0; i < b.N; i++ {
				pairs = 0
				if err := JoinDistance(ta, tb, e, func(a, b Item) bool { pairs++; return true }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pairs), "pairs/op")
		})
	}
}

// drainAgainstBruteForce drains the closest-pair stream of two trees built
// over as and bs and fails unless every pair comes out exactly once, in
// non-decreasing distance, with distances bit-equal to the sorted brute-force
// list (which pair of a tie comes first is not specified).
func drainAgainstBruteForce(t *testing.T, optsA, optsB Options, as, bs []geom.Rect) {
	t.Helper()
	build := func(opts Options, rs []geom.Rect) *Tree {
		tr, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if err := tr.Insert(r, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	ta, tb := build(optsA, as), build(optsB, bs)
	want := make([]float64, 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			want = append(want, a.MinDistRect(b))
		}
	}
	sort.Float64s(want)
	it, err := NewClosestPairIterator(ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int64]bool, len(want))
	for i := 0; ; i++ {
		pr, ok := it.Next()
		if !ok {
			if i != len(want) {
				t.Fatalf("stream ended after %d of %d pairs (err %v)", i, len(want), it.Err())
			}
			break
		}
		if i >= len(want) {
			t.Fatalf("stream yields more than the %d pairs of the cross product", len(want))
		}
		if pr.Dist != want[i] {
			t.Fatalf("pair %d: distance %v, brute force has %v", i, pr.Dist, want[i])
		}
		if d := as[pr.A.Data].MinDistRect(bs[pr.B.Data]); pr.Dist != d || pr.A.Rect != as[pr.A.Data] || pr.B.Rect != bs[pr.B.Data] {
			t.Fatalf("pair %d: reported %+v, items are %v apart", i, pr, d)
		}
		key := [2]int64{pr.A.Data, pr.B.Data}
		if seen[key] {
			t.Fatalf("pair %v reported twice", key)
		}
		seen[key] = true
	}
	if _, ok := it.Next(); ok || it.Err() != nil {
		t.Fatalf("exhausted stream: ok=%v err=%v", ok, it.Err())
	}
}

// FuzzClosestPairsMatchBruteForce drains the stream over small scenes of
// every shape the banded leaf expansion has a case for: random floats,
// integer lattices (many equal distances, bands that end exactly on one),
// points on one horizontal line or all in one place (leaf pairs of zero area:
// the width guard), rectangle items, an empty side, trees of different height
// and |A| << |B|.
func FuzzClosestPairsMatchBruteForce(f *testing.F) {
	for shape := uint8(0); shape < 7; shape++ {
		f.Add(int64(shape)+1, shape)
		f.Add(int64(shape)+101, shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		// Fanout 4 makes deep trees with tiny leaves, fanout 16 leaves whose
		// pairs take several bands to open.
		opts := func() Options {
			return Options{PageSize: nodeHeaderSize + []int{4, 16}[rng.Intn(2)]*entrySize, BufferPages: 16}
		}
		optsA, optsB := opts(), opts()
		nA, nB := 1+rng.Intn(140), 1+rng.Intn(140)
		point := func() geom.Rect { return geom.PointRect(geom.Pt(rng.Float64()*1000, rng.Float64()*1000)) }
		switch shape % 7 {
		case 1: // lattice
			point = func() geom.Rect { return geom.PointRect(geom.Pt(float64(rng.Intn(12)), float64(rng.Intn(12)))) }
		case 2: // collinear
			point = func() geom.Rect { return geom.PointRect(geom.Pt(float64(rng.Intn(300)), 7)) }
		case 3: // coincident
			point = func() geom.Rect { return geom.PointRect(geom.Pt(3, 4)) }
		case 4: // rectangles, overlapping and not
			point = func() geom.Rect {
				x, y := rng.Float64()*1000, rng.Float64()*1000
				return geom.R(x, y, x+rng.Float64()*80, y+rng.Float64()*80)
			}
		case 5: // one side empty
			if rng.Intn(2) == 0 {
				nA = 0
			} else {
				nB = 0
			}
		case 6: // different heights, |A| << |B|
			optsA.PageSize, optsB.PageSize = nodeHeaderSize+16*entrySize, nodeHeaderSize+4*entrySize
			nA, nB = 1+rng.Intn(5), 100+rng.Intn(100)
		}
		as, bs := make([]geom.Rect, nA), make([]geom.Rect, nB)
		for i := range as {
			as[i] = point()
		}
		for i := range bs {
			bs[i] = point()
		}
		drainAgainstBruteForce(t, optsA, optsB, as, bs)
	})
}

// leafBoxes returns the MBR of every leaf of the tree.
func leafBoxes(t *testing.T, tr *Tree, id pagefile.PageID) []geom.Rect {
	t.Helper()
	n, err := tr.readNode(id)
	if err != nil {
		t.Fatal(err)
	}
	if n.isLeaf() {
		return []geom.Rect{n.mbr()}
	}
	var out []geom.Rect
	for _, e := range n.entries {
		out = append(out, leafBoxes(t, tr, pagefile.PageID(e.ref))...)
	}
	return out
}

// TestClosestPairQueueBounded pins the point of the banded expansion: over
// two sets that cover the same space the queue holds the leaf pairs and a
// band of item pairs for each overlapping one, not their cross products
// (about 280k entries for this query before leaf pairs opened in bands).
func TestClosestPairQueueBounded(t *testing.T) {
	const k = 16
	ta, tb := uniformTree(t, 1, 2000), uniformTree(t, 2, 500)
	overlapping := 0
	for _, a := range leafBoxes(t, ta, ta.root) {
		for _, b := range leafBoxes(t, tb, tb.root) {
			if a.Intersects(b) {
				overlapping++
			}
		}
	}
	it, err := NewClosestPairIterator(ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	// The queue's backing array comes from an earlier iterator's scratch;
	// start it at its one entry so its capacity measures this query.
	it.h = slices.Clip(slices.Clone(it.h))
	for i := 0; i < k; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatalf("stream ended after %d pairs: %v", i, it.Err())
		}
	}
	// The queue's capacity is an upper bound on its high-water mark.
	if bound := 16 * (overlapping + k); cap(it.h) > bound {
		t.Errorf("queue grew to %d entries for k = %d; want at most 16 x (%d overlapping leaf pairs + k) = %d", cap(it.h), k, overlapping, bound)
	}
}

// TestClosestPairsAllocBudget: the paper_mix closest-pairs query (29 MB in
// 1172 allocations before leaf pairs opened in bands) stays under 1 MB and a
// few dozen allocations — the node and sweep scratch belongs to the iterator,
// not to each node pair.
func TestClosestPairsAllocBudget(t *testing.T) {
	ta, tb := uniformTree(t, 1, 2000), uniformTree(t, 2, 500)
	query := func() {
		if pairs, err := ClosestPairs(ta, tb, 16); err != nil || len(pairs) != 16 {
			t.Fatalf("%d pairs, %v", len(pairs), err)
		}
	}
	if allocs := testing.AllocsPerRun(20, query); allocs > 64 {
		t.Errorf("ClosestPairs(k=16): %v allocations per query, want at most 64", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	if perQuery := (after.TotalAlloc - before.TotalAlloc) / runs; perQuery > 1<<20 {
		t.Errorf("ClosestPairs(k=16): %d bytes per query, want at most 1 MB", perQuery)
	}
}
