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
	t          *Tree
	q          geom.Point
	*nnScratch // nil once closed
	err        error
}

// nnScratch is what an NNIterator grows while it runs: its queue and the
// buffer it decodes each node into (the entries go into the queue at once).
// Closed iterators leave it in nnScratches for the next one, unless its queue
// outgrew maxKeptQueue.
type nnScratch struct {
	h   minHeap[nnEntry]
	buf []entry
}

var nnScratches = make(freeList[nnScratch], scratchKept)

// maxKeptQueue bounds the queue capacity of the iterator scratch a free list
// keeps: a long drain's queue would otherwise stay allocated for good.
const maxKeptQueue = 1 << 12

// NearestIterator starts an incremental nearest-neighbor search around q.
func (t *Tree) NearestIterator(q geom.Point) *NNIterator {
	sc := nnScratches.get()
	sc.h = append(sc.h[:0], nnEntry{entry: entry{ref: uint64(t.root)}})
	return &NNIterator{t: t, q: q, nnScratch: sc}
}

// Next returns the next closest item. ok is false when the tree is exhausted
// or an I/O error occurred (check Err); the iterator is closed then.
func (it *NNIterator) Next() (Neighbor, bool) {
	for it.err == nil && it.nnScratch != nil && len(it.h) > 0 {
		e := it.h.pop()
		if e.isItem {
			return Neighbor{Item: e.item(), Dist: e.dist}, true
		}
		n, err := it.t.readNodeInto(pagefile.PageID(e.ref), it.buf)
		if err != nil {
			it.err = err
			break
		}
		it.buf = n.entries
		for _, c := range n.entries {
			it.h.push(nnEntry{dist: c.rect.MinDist(it.q), entry: c, isItem: n.isLeaf()})
		}
	}
	it.Close()
	return Neighbor{}, false
}

// Close ends the search early and hands its scratch to the next iterator;
// Next reports nothing after it. Idempotent.
func (it *NNIterator) Close() {
	if it.nnScratch != nil && cap(it.h) <= maxKeptQueue {
		nnScratches.put(it.nnScratch)
	}
	it.nnScratch = nil
}

// Err returns the first I/O error encountered, if any.
func (it *NNIterator) Err() error { return it.err }

// NearestK returns the k items closest to q (fewer when the tree is small).
func (t *Tree) NearestK(q geom.Point, k int) ([]Neighbor, error) {
	it := t.NearestIterator(q)
	defer it.Close()
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
