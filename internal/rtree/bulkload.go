package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/pagefile"
)

// BulkLoadMethod names BulkLoad's packing; STR is the only one.
type BulkLoadMethod int

const (
	// STR is sort-tile-recursive packing: sort by x, slice into vertical
	// slabs, sort each slab by y, pack runs into nodes.
	STR BulkLoadMethod = iota
)

// bulkFill is the target occupancy of packed nodes; leaving headroom keeps
// subsequent inserts from splitting immediately.
const bulkFill = 0.9

// BulkLoad builds a tree from items by STR packing. It is much
// faster than repeated insertion and produces well-clustered nodes; the
// experiment harness uses it to build the large obstacle/entity trees.
func BulkLoad(opts Options, items []Item, method BulkLoadMethod) (*Tree, error) {
	t, err := New(opts)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return t, nil
	}
	entries := make([]entry, len(items))
	for i, it := range items {
		if it.Rect.IsEmpty() {
			return nil, fmt.Errorf("rtree: bulk load item %d has empty rectangle", i)
		}
		entries[i] = entry{rect: it.Rect, ref: uint64(it.Data)}
	}
	if method != STR {
		return nil, fmt.Errorf("rtree: unknown bulk load method %d", method)
	}

	perNode := int(float64(t.maxE) * bulkFill)
	if perNode < 2 {
		perNode = 2
	}
	level := uint16(0)
	for {
		if len(entries) <= t.maxE {
			// Final level: reuse the preallocated root page.
			rootNode := &node{id: t.root, level: level, entries: entries}
			if err := t.writeNode(rootNode); err != nil {
				return nil, err
			}
			t.height = int(level) + 1
			t.size = len(items)
			return t, nil
		}
		next, err := t.packLevel(entries, level, perNode)
		if err != nil {
			return nil, err
		}
		entries = next
		level++
	}
}

// packLevel sorts entries into STR order, groups them into nodes of the
// given level and returns the parent entries for the next level up.
func (t *Tree) packLevel(entries []entry, level uint16, perNode int) ([]entry, error) {
	nodeCount := (len(entries) + perNode - 1) / perNode
	slabs := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	perSlab := slabs * perNode
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].rect.Center().X < entries[j].rect.Center().X
	})
	for s := 0; s*perSlab < len(entries); s++ {
		lo := s * perSlab
		hi := lo + perSlab
		if hi > len(entries) {
			hi = len(entries)
		}
		slab := entries[lo:hi]
		sort.SliceStable(slab, func(i, j int) bool {
			return slab[i].rect.Center().Y < slab[j].rect.Center().Y
		})
	}
	var parents []entry
	for lo := 0; lo < len(entries); lo += perNode {
		hi := lo + perNode
		if hi > len(entries) {
			hi = len(entries)
		}
		// Avoid a trailing underfull node: borrow from the previous group.
		if len(entries)-lo < t.minE && len(parents) > 0 {
			// Merge the stragglers into the previous node instead.
			prev := parents[len(parents)-1]
			pn, err := t.readNode(pagefile.PageID(prev.ref))
			if err != nil {
				return nil, err
			}
			if len(pn.entries)+len(entries)-lo <= t.maxE {
				pn.entries = append(pn.entries, entries[lo:]...)
				if err := t.writeNode(pn); err != nil {
					return nil, err
				}
				parents[len(parents)-1].rect = pn.mbr()
				break
			}
			// Rebalance: move items so both nodes satisfy minE.
			need := t.minE - (len(entries) - lo)
			moved := append([]entry{}, pn.entries[len(pn.entries)-need:]...)
			pn.entries = pn.entries[:len(pn.entries)-need]
			if err := t.writeNode(pn); err != nil {
				return nil, err
			}
			parents[len(parents)-1].rect = pn.mbr()
			group := append(moved, entries[lo:]...)
			pe, err := t.newNode(level, group)
			if err != nil {
				return nil, err
			}
			parents = append(parents, pe)
			break
		}
		group := make([]entry, hi-lo)
		copy(group, entries[lo:hi])
		pe, err := t.newNode(level, group)
		if err != nil {
			return nil, err
		}
		parents = append(parents, pe)
	}
	return parents, nil
}

func (t *Tree) newNode(level uint16, entries []entry) (entry, error) {
	n := &node{level: level, entries: entries}
	var err error
	n.id, err = t.allocPage()
	if err != nil {
		return entry{}, err
	}
	if err := t.writeNode(n); err != nil {
		return entry{}, err
	}
	return entry{rect: n.mbr(), ref: uint64(n.id)}, nil
}
