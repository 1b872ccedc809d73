package rtree

import (
	"math"

	"repro/internal/pagefile"
)

// PairNeighbor is one result of an incremental closest-pair search.
type PairNeighbor struct {
	A, B Item
	Dist float64 // Euclidean mindist of the two rectangles (exact for points)
}

// cpEntry is one queued pair, side 0 from ta and side 1 from tb: two nodes, or
// two data items. level is that of the node each entry points to, itemLevel
// for items; a node is never paired with an item, because the higher side is
// expanded until both are leaves and two leaves only ever produce item pairs.
// width belongs to pairs of leaves: that of the next band to open, 0 until the
// first has been (openBand).
type cpEntry struct {
	dist  float64 // queue key: nothing the entry can still produce is closer
	side  [2]entry
	level [2]int32
	width float64
}

const itemLevel = -1

func (x cpEntry) before(y cpEntry) bool {
	if x.dist != y.dist {
		return x.dist < y.dist
	}
	// Equal keys leave deeper pairs first [HS98]: items are reported before
	// equally distant nodes are expanded, and a run of node pairs with one key
	// (all overlapping pairs have mindist 0) is descended depth first.
	return x.level[0]+x.level[1] < y.level[0]+y.level[1]
}

// CPIterator enumerates pairs (a in ta, b in tb) in ascending order of
// Euclidean distance — the incremental distance join of [HS98] specialised
// to closest pairs, with the mindist pruning of [CMTV00]. The obstructed
// closest-pair algorithms consume it without a predeclared k.
//
// The queue holds node pairs, and of the item pairs under two leaves only
// one distance band at a time (openBand): where the two trees cover the same
// space every overlapping pair of leaves has key 0, and queueing the |A|·|B|
// item pairs of each before the first result is what an unbanded expansion
// costs. The order is still [HS98]'s: a band's item pairs all have a key at
// least the popped one, and the re-queued leaf pair is a lower bound on every
// item pair it has not queued yet.
type CPIterator struct {
	t          [2]*Tree
	*cpScratch // nil once closed
	err        error
}

// cpScratch is what a CPIterator grows while it runs: its queue, the node it
// decoded last per side and level, the sweep's keys, and a buffer for the
// roots. Closed iterators leave it in cpScratches for the next one, unless its
// queue outgrew maxKeptQueue.
type cpScratch struct {
	h    minHeap[cpEntry]
	kept [2][]cpNode // per side and level: the node decoded last
	sw   sweeper
	root []entry
}

var cpScratches = make(freeList[cpScratch], scratchKept)

// cpNode is a decoded node and the page it came from (InvalidPage: none).
type cpNode struct {
	id      pagefile.PageID
	entries []entry
}

// NewClosestPairIterator starts an incremental closest-pair search over the
// two trees.
func NewClosestPairIterator(ta, tb *Tree) (*CPIterator, error) {
	sc := cpScratches.get()
	sc.h = sc.h[:0]
	for side := range sc.kept {
		for i := range sc.kept[side] {
			sc.kept[side][i].id = pagefile.InvalidPage
		}
	}
	it := &CPIterator{t: [2]*Tree{ta, tb}, cpScratch: sc}
	var roots [2]entry
	var levels [2]int32
	empty := false
	for side, t := range it.t {
		n, err := t.readNodeInto(t.root, sc.root)
		if err != nil {
			it.Close()
			return nil, err
		}
		sc.root = n.entries
		empty = empty || len(n.entries) == 0
		roots[side], levels[side] = entry{n.mbr(), uint64(t.root)}, int32(n.level)
	}
	if empty {
		return it, nil // empty iterator
	}
	sc.h.push(cpEntry{dist: roots[0].rect.MinDistRect(roots[1].rect), side: roots, level: levels})
	return it, nil
}

// Next returns the next closest pair. ok is false when exhausted or on I/O
// error (check Err); the iterator is closed then.
func (it *CPIterator) Next() (PairNeighbor, bool) {
	for it.err == nil && it.cpScratch != nil && len(it.h) > 0 {
		e := it.h.pop()
		a, b, la, lb := e.side[0], e.side[1], e.level[0], e.level[1]
		switch {
		case la == itemLevel:
			return PairNeighbor{A: a.item(), B: b.item(), Dist: e.dist}, true
		case la == 0 && lb == 0:
			it.openBand(e)
		case la > lb || la == lb && a.rect.Area() >= b.rect.Area():
			it.expand(e, 0) // the side with the higher level (ties: larger area)
		default:
			it.expand(e, 1)
		}
	}
	it.Close()
	return PairNeighbor{}, false
}

// Close ends the search early and hands its scratch to the next iterator;
// Next reports nothing after it. Idempotent.
func (it *CPIterator) Close() {
	if it.cpScratch != nil && cap(it.h) <= maxKeptQueue {
		cpScratches.put(it.cpScratch)
	}
	it.cpScratch = nil
}

// node returns the entries of the node that e's given side points to, read
// unless it is the node that side decoded last at that level: a leaf opened
// against one partner after another, or band after band, is read once while
// nothing else at its level comes between. nil after an I/O error.
func (it *CPIterator) node(e cpEntry, side int) []entry {
	id, level := pagefile.PageID(e.side[side].ref), int(e.level[side])
	for level >= len(it.kept[side]) {
		it.kept[side] = append(it.kept[side], cpNode{})
	}
	k := &it.kept[side][level]
	if k.id != id {
		n, err := it.t[side].readNodeInto(id, k.entries)
		if err != nil {
			it.err = err
			return nil
		}
		k.id, k.entries = id, n.entries
	}
	return k.entries
}

// expand queues each child of the node on one side of e paired with the other
// side.
func (it *CPIterator) expand(e cpEntry, side int) {
	for _, c := range it.node(e, side) {
		child := e
		child.side[side], child.level[side] = c, e.level[side]-1
		child.dist = child.side[0].rect.MinDistRect(child.side[1].rect)
		it.h.push(child)
	}
}

// openBand queues the item pairs of two leaves that lie in the pair's next
// distance band, through the join's plane sweep, and re-queues the pair at the
// band's far edge. The first band starts at the pair's own mindist and is as
// wide as the mean spacing of the item pairs, sqrt(area(a U b) / (|a|·|b|)),
// so it holds a handful of them; the width doubles with every re-queue, which
// keeps a long drain linear in its output. The rest is opened at once when the
// width is zero (collinear or coincident items) or absorbed by the key, or
// when the band reaches past the farthest possible pair.
func (it *CPIterator) openBand(e cpEntry) {
	as, bs := it.node(e, 0), it.node(e, 1)
	if it.err != nil {
		return
	}
	ra, rb := e.side[0].rect, e.side[1].rect
	lo, w := e.dist, e.width
	if w == 0 {
		// The first band has no lower edge to lose a pair to rounding.
		lo, w = 0, math.Sqrt(ra.Union(rb).Area()/float64(len(as)*len(bs)))
	}
	hi := e.dist + w
	if !(hi > e.dist) || hi > ra.MaxDistRect(rb) {
		hi = math.Inf(1)
	}
	it.sw.pairs(as, bs, lo, hi, func(a, b entry, d float64) bool {
		it.h.push(cpEntry{dist: d, side: [2]entry{a, b}, level: [2]int32{itemLevel, itemLevel}})
		return true
	})
	if !math.IsInf(hi, 1) {
		e.dist, e.width = hi, 2*w
		it.h.push(e)
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
	defer it.Close()
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
