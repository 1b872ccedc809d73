package rtree

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/pagefile"
)

// JoinDistance performs the e-distance join of [BKS93]: it reports every
// pair of items (a from ta, b from tb) whose rectangles are within Euclidean
// distance e of each other, by traversing the two trees synchronously and
// following only entry pairs with mindist <= e. Within each node pair the
// candidate entries are matched with a plane sweep along x, as in the
// original algorithm. The callback returns false to stop early.
func JoinDistance(ta, tb *Tree, e float64, fn func(a, b Item) bool) error {
	j := joiners.get()
	j.ta, j.tb, j.e, j.fn = ta, tb, e, fn
	_, err := j.nodes(ta.root, tb.root, 0)
	j.ta, j.tb, j.fn = nil, nil, nil
	joiners.put(j)
	return err
}

// joiner is one JoinDistance call. The recursion runs inside the sweep's
// callback, so every depth keeps its own decoded node pair and its own sweep,
// allocated the first time a join gets that deep and kept, in joiners, for the
// joins after it.
type joiner struct {
	ta, tb *Tree
	e      float64
	fn     func(a, b Item) bool
	as, bs nodeStack
	sw     []*sweeper
}

var joiners = make(freeList[joiner], scratchKept)

func (j *joiner) nodes(pa, pb pagefile.PageID, depth int) (cont bool, err error) {
	na, err := j.as.read(j.ta, pa, depth)
	if err != nil {
		return false, err
	}
	nb, err := j.bs.read(j.tb, pb, depth)
	if err != nil {
		return false, err
	}
	if na.level != nb.level {
		// Descend the deeper tree only, against the other node's MBR.
		deep, other, aDeeper := na, nb.mbr(), true
		if nb.level > na.level {
			deep, other, aDeeper = nb, na.mbr(), false
		}
		for _, c := range deep.entries {
			if c.rect.MinDistRect(other) > j.e {
				continue
			}
			ca, cb := pagefile.PageID(c.ref), pb
			if !aDeeper {
				ca, cb = pa, pagefile.PageID(c.ref)
			}
			if cont, err := j.nodes(ca, cb, depth+1); err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	// Equal levels: sweep both entry lists along x. mindist <= e is the
	// half-open interval that ends at the next float above e.
	for depth >= len(j.sw) { // depths that only descended one tree have none yet
		j.sw = append(j.sw, new(sweeper))
	}
	cont = j.sw[depth].pairs(na.entries, nb.entries, 0, math.Nextafter(j.e, math.Inf(1)), func(a, b entry, _ float64) bool {
		if na.isLeaf() {
			return j.fn(a.item(), b.item())
		}
		cont, err = j.nodes(pagefile.PageID(a.ref), pagefile.PageID(b.ref), depth+1)
		return cont && err == nil
	})
	return cont, err
}

// sweeper is the forward plane sweep of [BKS93] over the entries of two nodes,
// the one primitive under the e-distance join and the closest-pair stream.
// keys is its scratch, reused from one sweep to the next.
type sweeper struct {
	keys []sweepKey
}

// sweepKey stands for one entry in the sweep order: its MinX and its position
// in the first list followed by the second.
type sweepKey struct {
	minX float64
	i    int32
}

// pairs calls fn with every pair (a of as, b of bs) whose mindist d lies in
// [lo, hi), walking the union of both lists in MinX order (ties in list
// order) and pairing each entry with the later ones that start less than hi
// to its right. It returns false as soon as fn does.
func (s *sweeper) pairs(as, bs []entry, lo, hi float64, fn func(a, b entry, d float64) bool) bool {
	keys := s.keys[:0]
	for i, a := range as {
		keys = append(keys, sweepKey{a.rect.MinX, int32(i)})
	}
	for i, b := range bs {
		keys = append(keys, sweepKey{b.rect.MinX, int32(len(as) + i)})
	}
	s.keys = keys
	slices.SortFunc(keys, func(x, y sweepKey) int {
		if x.minX != y.minX {
			return cmp.Compare(x.minX, y.minX)
		}
		return int(x.i - y.i)
	})
	at := func(k sweepKey) (e entry, fromB bool) {
		if i := int(k.i) - len(as); i >= 0 {
			return bs[i], true
		}
		return as[k.i], false
	}
	for n, kp := range keys {
		p, pFromB := at(kp)
		for _, ko := range keys[n+1:] {
			if !(ko.minX-p.rect.MaxX < hi) { // negated: a NaN bound pairs nothing
				break
			}
			o, oFromB := at(ko)
			if oFromB == pFromB {
				continue
			}
			d := p.rect.MinDistRect(o.rect)
			if d < lo || d >= hi {
				continue
			}
			a, b := p, o
			if pFromB {
				a, b = o, p
			}
			if !fn(a, b, d) {
				return false
			}
		}
	}
	return true
}
