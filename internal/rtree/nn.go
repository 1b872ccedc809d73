package rtree

import (
	"repro/internal/geom"
	"repro/internal/pagefile"
)

// Neighbor is one result of an incremental nearest-neighbor search.
type Neighbor struct {
	Item Item
	Dist float64 // Euclidean distance from the query point (mindist for rectangles)
}

// nnEntry is a queued tree entry: a data item when isItem, otherwise the
// reference to a child page.
type nnEntry struct {
	dist float64
	entry
	isItem bool
}

func (a nnEntry) before(b nnEntry) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	// Report items before expanding equally distant nodes.
	return a.isItem && !b.isItem
}

// NNIterator reports the items of a tree in ascending order of Euclidean
// distance from a query point — the best-first incremental algorithm of
// [HS99]. It is optimal (it reads only the pages any correct algorithm must
// read) and supports retrieval without a predeclared k, which the obstructed
// NN/closest-pair algorithms rely on to shrink their search bound on the fly.
type NNIterator struct {
	t   *Tree
	q   geom.Point
	h   minHeap[nnEntry]
	err error
}

// NearestIterator starts an incremental nearest-neighbor search around q.
func (t *Tree) NearestIterator(q geom.Point) *NNIterator {
	it := &NNIterator{t: t, q: q}
	it.h = minHeap[nnEntry]{{entry: entry{ref: uint64(t.root)}}}
	return it
}

// Next returns the next closest item. ok is false when the tree is exhausted
// or an I/O error occurred (check Err).
func (it *NNIterator) Next() (Neighbor, bool) {
	for it.err == nil && len(it.h) > 0 {
		e := it.h.pop()
		if e.isItem {
			return Neighbor{Item: e.item(), Dist: e.dist}, true
		}
		n, err := it.t.readNode(pagefile.PageID(e.ref))
		if err != nil {
			it.err = err
			return Neighbor{}, false
		}
		for _, c := range n.entries {
			it.h.push(nnEntry{dist: c.rect.MinDist(it.q), entry: c, isItem: n.isLeaf()})
		}
	}
	return Neighbor{}, false
}

// Err returns the first I/O error encountered, if any.
func (it *NNIterator) Err() error { return it.err }

// NearestK returns the k items closest to q (fewer when the tree is small).
func (t *Tree) NearestK(q geom.Point, k int) ([]Neighbor, error) {
	it := t.NearestIterator(q)
	out := make([]Neighbor, 0, k)
	for len(out) < k {
		nb, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, nb)
	}
	return out, it.Err()
}
