package rtree

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

// Insert adds an item with the given bounding rectangle: it descends by
// least area enlargement (chooseSubtree), treats the first overflow of a
// level by R* forced reinsert and later ones by the R* topological split.
func (t *Tree) Insert(r geom.Rect, data int64) error {
	if r.IsEmpty() {
		return fmt.Errorf("rtree: insert of empty rectangle")
	}
	for k := range t.reinsLvl {
		delete(t.reinsLvl, k)
	}
	t.pending = t.pending[:0]
	if err := t.insertFromRoot(entry{rect: r, ref: uint64(data)}, 0); err != nil {
		return err
	}
	if err := t.drainPending(); err != nil {
		return err
	}
	t.size++
	return nil
}

// InsertPoint adds a point item.
func (t *Tree) InsertPoint(p geom.Point, data int64) error {
	return t.Insert(geom.PointRect(p), data)
}

// drainPending re-inserts entries removed by forced reinsertion (or by
// delete-condensation). Entries are processed in the order produced; the
// queue can grow while draining (a reinsert may overflow another node).
func (t *Tree) drainPending() error {
	for len(t.pending) > 0 {
		p := t.pending[0]
		t.pending = t.pending[1:]
		if err := t.insertFromRoot(p.e, p.level); err != nil {
			return err
		}
	}
	return nil
}

// insertFromRoot descends from the root and inserts e at the given level,
// growing the tree if the root splits.
func (t *Tree) insertFromRoot(e entry, level uint16) error {
	rootNode, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	split, err := t.insertInto(rootNode, e, level)
	if err != nil {
		return err
	}
	if split == nil {
		t.root = rootNode.id // COW may have relocated the root
		return nil
	}
	// Root split: create a new root one level up.
	newRoot := &node{level: rootNode.level + 1}
	newRoot.id, err = t.allocPage()
	if err != nil {
		return err
	}
	newRoot.entries = []entry{
		{rect: rootNode.mbr(), ref: uint64(rootNode.id)},
		*split,
	}
	if err := t.writeNode(newRoot); err != nil {
		return err
	}
	t.root = newRoot.id
	t.height++
	return nil
}

// insertInto inserts e at the target level within the subtree rooted at n.
// It writes every modified node and returns the entry of a new sibling when
// n was split.
func (t *Tree) insertInto(n *node, e entry, level uint16) (*entry, error) {
	if n.level == level {
		n.entries = append(n.entries, e)
		return t.overflowTreatment(n)
	}
	idx := t.chooseSubtree(n, e.rect)
	child, err := t.readNode(pagefile.PageID(n.entries[idx].ref))
	if err != nil {
		return nil, err
	}
	split, err := t.insertInto(child, e, level)
	if err != nil {
		return nil, err
	}
	n.entries[idx] = entry{rect: child.mbr(), ref: uint64(child.id)}
	if split != nil {
		n.entries = append(n.entries, *split)
	}
	return t.overflowTreatment(n)
}

// chooseSubtree picks the child of n that needs the least area enlargement
// to take r (ties: the smaller area). The rule is the same at every level:
// R*'s overlap-enlargement test for nodes above leaves is O(M²) per insert
// and is not used (see the package doc).
func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	best := 0
	bestEnl, bestArea := inf, inf
	for i, e := range n.entries {
		area := e.rect.Area()
		enl := e.rect.Union(r).Area() - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

const inf = 1e308

// overflowTreatment writes n back, performing forced reinsertion on the
// first overflow of each level and splitting otherwise.
func (t *Tree) overflowTreatment(n *node) (*entry, error) {
	if len(n.entries) <= t.maxE {
		return nil, t.writeNode(n)
	}
	isRoot := n.id == t.root
	if !isRoot && !t.reinsLvl[n.level] {
		t.reinsLvl[n.level] = true
		t.forceReinsert(n)
		return nil, t.writeNode(n)
	}
	return t.split(n)
}

// forceReinsert removes the reinsertShare of entries whose centers are
// farthest from the node MBR center and queues them for reinsertion.
func (t *Tree) forceReinsert(n *node) {
	p := int(float64(len(n.entries)) * reinsertShare)
	if p < 1 {
		p = 1
	}
	if p > len(n.entries)-t.minE {
		p = len(n.entries) - t.minE
	}
	c := n.mbr().Center()
	sort.SliceStable(n.entries, func(i, j int) bool {
		return n.entries[i].rect.Center().Dist2(c) > n.entries[j].rect.Center().Dist2(c)
	})
	removed := make([]entry, p)
	copy(removed, n.entries[:p])
	n.entries = append(n.entries[:0], n.entries[p:]...)
	// Close reinsert: re-insert entries closest-first (reverse of removal
	// order, which sorted farthest-first).
	for i := len(removed) - 1; i >= 0; i-- {
		t.pending = append(t.pending, pendingInsert{e: removed[i], level: n.level})
	}
}

// split performs the R* topological split of an overflowing node, keeping
// one group in n and returning the parent entry for the new sibling.
func (t *Tree) split(n *node) (*entry, error) {
	group1, group2 := t.chooseSplit(n.entries)
	n.entries = group1
	sib := &node{level: n.level, entries: group2}
	var err error
	sib.id, err = t.allocPage()
	if err != nil {
		return nil, err
	}
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	if err := t.writeNode(sib); err != nil {
		return nil, err
	}
	return &entry{rect: sib.mbr(), ref: uint64(sib.id)}, nil
}

// chooseSplit implements ChooseSplitAxis + ChooseSplitIndex of the R*-tree:
// for each axis, sort entries by lower then by upper rectangle bound and sum
// the margins of all legal distributions; pick the axis with the minimum sum,
// then the distribution with minimum overlap (ties: minimum total area).
func (t *Tree) chooseSplit(entries []entry) (g1, g2 []entry) {
	type sorted struct {
		es     []entry
		margin float64
	}
	candidates := make([]sorted, 0, 4)
	for axis := 0; axis < 2; axis++ {
		for _, byUpper := range [2]bool{false, true} {
			es := make([]entry, len(entries))
			copy(es, entries)
			sortEntries(es, axis, byUpper)
			candidates = append(candidates, sorted{es: es, margin: t.marginSum(es)})
		}
	}
	// Pick the axis (pair of candidates) with minimal margin sum.
	bestAxis := 0
	if candidates[0].margin+candidates[1].margin > candidates[2].margin+candidates[3].margin {
		bestAxis = 1
	}
	bestOverlap, bestArea := inf, inf
	for c := 2 * bestAxis; c < 2*bestAxis+2; c++ {
		es := candidates[c].es
		for k := 0; k <= len(es)-2*t.minE; k++ {
			cut := t.minE + k
			r1 := mbrOf(es[:cut])
			r2 := mbrOf(es[cut:])
			overlap := r1.OverlapArea(r2)
			area := r1.Area() + r2.Area()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				g1 = append(g1[:0], es[:cut]...)
				g2 = append(g2[:0], es[cut:]...)
			}
		}
	}
	return g1, g2
}

func sortEntries(es []entry, axis int, byUpper bool) {
	sort.SliceStable(es, func(i, j int) bool {
		a, b := es[i].rect, es[j].rect
		var la, lb, ua, ub float64
		if axis == 0 {
			la, lb, ua, ub = a.MinX, b.MinX, a.MaxX, b.MaxX
		} else {
			la, lb, ua, ub = a.MinY, b.MinY, a.MaxY, b.MaxY
		}
		if byUpper {
			if ua != ub {
				return ua < ub
			}
			return la < lb
		}
		if la != lb {
			return la < lb
		}
		return ua < ub
	})
}

func (t *Tree) marginSum(es []entry) float64 {
	var sum float64
	for k := 0; k <= len(es)-2*t.minE; k++ {
		cut := t.minE + k
		sum += mbrOf(es[:cut]).Margin() + mbrOf(es[cut:]).Margin()
	}
	return sum
}

func mbrOf(es []entry) geom.Rect {
	r := geom.EmptyRect()
	for _, e := range es {
		r = r.Union(e.rect)
	}
	return r
}
