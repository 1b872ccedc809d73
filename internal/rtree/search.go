package rtree

import (
	"repro/internal/geom"
	"repro/internal/pagefile"
)

// nodeStack is the scratch of one recursive read-only descent: the decoded
// node at each depth of the current path. It belongs to the call, not the
// tree, so concurrent searches, and searches started from inside a callback,
// never share it; a call allocates once per level instead of once per node it
// visits.
type nodeStack [][]entry

// read decodes page id into the buffer of the given depth. The entries are a
// copy of the page buffer's frame, so recursing while iterating over them is
// safe even though the frame may be evicted.
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
	s := make(nodeStack, 0, t.height)
	_, err := t.searchRect(&s, t.root, 0, r, fn)
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
// it is the filter step, with polygon refinement left to the caller.
func (t *Tree) SearchCircle(center geom.Point, radius float64, fn func(Item) bool) error {
	s := make(nodeStack, 0, t.height)
	_, err := t.searchCircle(&s, t.root, 0, center, radius, fn)
	return err
}

func (t *Tree) searchCircle(s *nodeStack, id pagefile.PageID, depth int, c geom.Point, radius float64, fn func(Item) bool) (bool, error) {
	n, err := s.read(t, id, depth)
	if err != nil {
		return false, err
	}
	if n.isLeaf() {
		for _, e := range n.entries {
			if e.rect.MinDist(c) <= radius {
				if !fn(e.item()) {
					return false, nil
				}
			}
		}
		return true, nil
	}
	for _, e := range n.entries {
		if e.rect.MinDist(c) <= radius {
			cont, err := t.searchCircle(s, pagefile.PageID(e.ref), depth+1, c, radius, fn)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
	return true, nil
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
