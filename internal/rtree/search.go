package rtree

import (
	"repro/internal/geom"
	"repro/internal/pagefile"
)

// freeList holds the scratch that finished read-only traversals hand back,
// for the next ones to take: up to its capacity, and unlike a sync.Pool
// without dropping any, so that a warm traversal allocates nothing, under the
// race detector too. What does not fit is left to the garbage collector.
type freeList[T any] chan *T

// scratchKept is how many scratch values of each kind a free list keeps:
// enough for the traversals a few cores run at once.
const scratchKept = 8

func (l freeList[T]) get() *T {
	select {
	case x := <-l:
		return x
	default:
		return new(T)
	}
}

func (l freeList[T]) put(x *T) {
	select {
	case l <- x:
	default:
	}
}

// nodeStack is the scratch of one recursive read-only descent: the decoded
// node at each depth of the current path. The descent takes it from stacks
// and puts it back when it returns, buffers and all, so concurrent searches,
// and searches started from inside a callback, never share one, and a warm
// search allocates nothing however many nodes it visits.
type nodeStack [][]entry

var stacks = make(freeList[nodeStack], scratchKept)

// read decodes page id into the buffer of the given depth. The entries are a
// copy of the page buffer's frame, so recursing while iterating over them is
// safe even though the frame may be evicted and recycled.
func (s *nodeStack) read(t *Tree, id pagefile.PageID, depth int) (node, error) {
	if depth == len(*s) {
		*s = append(*s, nil)
	}
	n, err := t.readNodeInto(id, (*s)[depth])
	if err == nil {
		(*s)[depth] = n.entries
	}
	return n, err
}

// SearchRect reports every item whose rectangle intersects r, in no
// particular order. The callback returns false to stop the search early.
func (t *Tree) SearchRect(r geom.Rect, fn func(Item) bool) error {
	s := stacks.get()
	defer stacks.put(s)
	_, err := t.searchRect(s, t.root, 0, r, fn)
	return err
}

func (t *Tree) searchRect(s *nodeStack, id pagefile.PageID, depth int, r geom.Rect, fn func(Item) bool) (bool, error) {
	n, err := s.read(t, id, depth)
	if err != nil {
		return false, err
	}
	if n.isLeaf() {
		for _, e := range n.entries {
			if e.rect.Intersects(r) {
				if !fn(e.item()) {
					return false, nil
				}
			}
		}
		return true, nil
	}
	for _, e := range n.entries {
		if e.rect.Intersects(r) {
			cont, err := t.searchRect(s, pagefile.PageID(e.ref), depth+1, r, fn)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
	return true, nil
}

// SearchCircle reports every item whose rectangle is within the given
// Euclidean distance of center (mindist <= radius). For point items this is
// the circular range query of Section 3; for rectangle items (obstacle MBRs)
// it is the filter step, with polygon refinement left to the caller. It is
// SearchEllipse with both foci at center, which visits the same entries:
// mindist + mindist <= 2 radius is mindist <= radius in floating point too.
func (t *Tree) SearchCircle(center geom.Point, radius float64, fn func(Item) bool) error {
	return t.SearchEllipse(center, center, 2*radius, fn)
}

// SearchEllipse reports every item whose rectangle may meet the ellipse of
// the points x with |xa| + |xb| <= sum: those with MinDist(a) + MinDist(b) <=
// sum. That sum is a lower bound on |xa| + |xb| over the rectangle, so no item
// meeting the ellipse is missed, and an item reported may still miss it:
// refinement is left to the caller. A path of length d between a and b stays
// inside the ellipse of sum d, which is the range Fig 8 needs.
func (t *Tree) SearchEllipse(a, b geom.Point, sum float64, fn func(Item) bool) error {
	return t.SearchEllipseIn(nil, a, b, sum, fn)
}

// SearchEllipseIn is SearchEllipse reading the tree's nodes through w (see
// Window), or from the page file as SearchEllipse does when w is nil. It
// visits the same nodes and reports the same items in the same order either
// way; through w, a node an earlier search through w read costs no page read.
func (t *Tree) SearchEllipseIn(w *Window, a, b geom.Point, sum float64, fn func(Item) bool) error {
	s := stacks.get()
	defer stacks.put(s)
	_, err := t.searchEllipse(s, w, t.root, 0, a, b, sum, fn)
	return err
}

// withinEllipse is SearchEllipse's entry test; a disk computes its one
// distance once.
func withinEllipse(r geom.Rect, a, b geom.Point, sum float64) bool {
	da := r.MinDist(a)
	if a == b {
		return da+da <= sum
	}
	return da+r.MinDist(b) <= sum
}

func (t *Tree) searchEllipse(s *nodeStack, w *Window, id pagefile.PageID, depth int, a, b geom.Point, sum float64, fn func(Item) bool) (bool, error) {
	var n node
	var err error
	if w != nil {
		n, err = w.read(t, id)
	} else {
		n, err = s.read(t, id, depth)
	}
	if err != nil {
		return false, err
	}
	if n.isLeaf() {
		for _, e := range n.entries {
			if withinEllipse(e.rect, a, b, sum) {
				if !fn(e.item()) {
					return false, nil
				}
			}
		}
		return true, nil
	}
	for _, e := range n.entries {
		if withinEllipse(e.rect, a, b, sum) {
			cont, err := t.searchEllipse(s, w, pagefile.PageID(e.ref), depth+1, a, b, sum, fn)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
	return true, nil
}

// A Window keeps, decoded, the nodes of one tree that the searches through it
// have read, so that a later search through it finds them in memory: each
// page is read once per window, however many of its searches visit it. A run
// of searches whose ranges overlap, such as the disks around a distance join's
// nearby seeds, shares one and reads the union of their nodes once.
//
// The searches of a run are confined to one region (Reset), and of each node
// the window keeps only the entries that lie in it, so that a search through
// it tests those alone. A search still descends into the same nodes and
// reports the same items in the same order as it would without the window,
// since what it dropped no search of the run could pass.
//
// A window serves one tree, while that tree does not change, and one
// goroutine. It must be Reset before its first search.
type Window struct {
	near    geom.Rect
	dist    float64
	nodes   map[pagefile.PageID]windowNode
	entries []entry // the nodes' kept entries, back to back
	scratch []entry // the page a read decodes, before its entries are kept
}

// windowNode is a node of a Window: its level and where entries holds it.
type windowNode struct {
	level  uint16
	lo, hi int
}

// Reset empties w, keeping its storage, for a run of searches that each
// report only items within dist of near along both axes, as a disk of radius
// at most dist around a point of near does: an item it reports is within
// dist of the center, so each of its gaps to the center, and so to near, is
// at most dist (geom.Rect.GapsWithin). The window keeps only such entries.
func (w *Window) Reset(near geom.Rect, dist float64) {
	if w.nodes == nil {
		w.nodes = make(map[pagefile.PageID]windowNode)
	}
	clear(w.nodes)
	w.near, w.dist, w.entries = near, dist, w.entries[:0]
}

// read returns page id from w, reading it from t's page file the first time.
// The entries stay where they are while w grows, so a search may recurse
// while it iterates over them.
func (w *Window) read(t *Tree, id pagefile.PageID) (node, error) {
	if w.nodes == nil {
		panic("rtree: search through a Window that was never Reset")
	}
	if c, ok := w.nodes[id]; ok {
		return node{id: id, level: c.level, entries: w.entries[c.lo:c.hi:c.hi]}, nil
	}
	n, err := t.readNodeInto(id, w.scratch)
	if err != nil {
		return n, err
	}
	w.scratch = n.entries
	lo := len(w.entries)
	for _, e := range n.entries {
		if e.rect.GapsWithin(w.near, w.dist) {
			w.entries = append(w.entries, e)
		}
	}
	w.nodes[id] = windowNode{n.level, lo, len(w.entries)}
	n.entries = w.entries[lo:len(w.entries):len(w.entries)]
	return n, nil
}

// All returns every item in the tree (test and tooling helper).
func (t *Tree) All() ([]Item, error) {
	var items []Item
	err := t.SearchRect(geom.R(-inf, -inf, inf, inf), func(it Item) bool {
		items = append(items, it)
		return true
	})
	return items, err
}
