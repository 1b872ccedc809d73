package rtree

import "repro/internal/pagefile"

// PairNeighbor is one result of an incremental closest-pair search.
type PairNeighbor struct {
	A, B Item
	Dist float64 // Euclidean mindist of the two rectangles (exact for points)
}

// cpSide is one half of a queued pair: a tree entry and the level of the node
// it points to, or itemLevel when the entry is a data item.
type cpSide struct {
	entry
	level int32
}

const itemLevel = -1

func (s cpSide) isItem() bool { return s.level == itemLevel }

type cpEntry struct {
	dist float64
	a, b cpSide
}

func (x cpEntry) isPair() bool { return x.a.isItem() && x.b.isItem() }

func (x cpEntry) before(y cpEntry) bool {
	if x.dist != y.dist {
		return x.dist < y.dist
	}
	// Report pairs before expanding equally distant nodes.
	return x.isPair() && !y.isPair()
}

// CPIterator enumerates pairs (a in ta, b in tb) in ascending order of
// Euclidean distance — the incremental distance join of [HS98] specialised
// to closest pairs, with the mindist pruning of [CMTV00]. The obstructed
// closest-pair algorithms consume it without a predeclared k.
type CPIterator struct {
	ta, tb *Tree
	h      minHeap[cpEntry]
	err    error
}

// NewClosestPairIterator starts an incremental closest-pair search over the
// two trees.
func NewClosestPairIterator(ta, tb *Tree) (*CPIterator, error) {
	it := &CPIterator{ta: ta, tb: tb}
	ra, err := ta.readNode(ta.root)
	if err != nil {
		return nil, err
	}
	rb, err := tb.readNode(tb.root)
	if err != nil {
		return nil, err
	}
	if len(ra.entries) == 0 || len(rb.entries) == 0 {
		return it, nil // empty iterator
	}
	a := cpSide{entry{ra.mbr(), uint64(ta.root)}, int32(ra.level)}
	b := cpSide{entry{rb.mbr(), uint64(tb.root)}, int32(rb.level)}
	it.h = minHeap[cpEntry]{{dist: a.rect.MinDistRect(b.rect), a: a, b: b}}
	return it, nil
}

// Next returns the next closest pair. ok is false when exhausted or on I/O
// error (check Err).
func (it *CPIterator) Next() (PairNeighbor, bool) {
	for it.err == nil && len(it.h) > 0 {
		e := it.h.pop()
		if e.isPair() {
			return PairNeighbor{A: e.a.item(), B: e.b.item(), Dist: e.dist}, true
		}
		// Expand the non-item side with the higher level (ties: larger area).
		expandA := false
		switch {
		case e.b.isItem():
			expandA = true
		case e.a.isItem():
			expandA = false
		case e.a.level != e.b.level:
			expandA = e.a.level > e.b.level
		default:
			expandA = e.a.rect.Area() >= e.b.rect.Area()
		}
		if expandA {
			if it.expand(it.ta, e.a, e.b, false); it.err != nil {
				return PairNeighbor{}, false
			}
		} else {
			if it.expand(it.tb, e.b, e.a, true); it.err != nil {
				return PairNeighbor{}, false
			}
		}
	}
	return PairNeighbor{}, false
}

// expand reads the node side and pairs each of its entries with other.
// When swapped is true, side belongs to tree tb (the B side of pairs).
func (it *CPIterator) expand(t *Tree, side, other cpSide, swapped bool) {
	n, err := t.readNode(pagefile.PageID(side.ref))
	if err != nil {
		it.err = err
		return
	}
	for _, c := range n.entries {
		cs := cpSide{c, int32(n.level) - 1} // a leaf's entries are items
		d := cs.rect.MinDistRect(other.rect)
		if swapped {
			it.h.push(cpEntry{dist: d, a: other, b: cs})
		} else {
			it.h.push(cpEntry{dist: d, a: cs, b: other})
		}
	}
}

// Err returns the first I/O error encountered, if any.
func (it *CPIterator) Err() error { return it.err }

// ClosestPairs returns the k closest pairs between the trees.
func ClosestPairs(ta, tb *Tree, k int) ([]PairNeighbor, error) {
	it, err := NewClosestPairIterator(ta, tb)
	if err != nil {
		return nil, err
	}
	out := make([]PairNeighbor, 0, k)
	for len(out) < k {
		pr, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, pr)
	}
	return out, it.Err()
}
