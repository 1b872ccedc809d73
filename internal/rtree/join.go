package rtree

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

// JoinDistance performs the e-distance join of [BKS93]: it reports every
// pair of items (a from ta, b from tb) whose rectangles are within Euclidean
// distance e of each other, by traversing the two trees synchronously and
// following only entry pairs with mindist <= e. Within each node pair the
// candidate entries are matched with a plane sweep along x, as in the
// original algorithm, after its search-space restriction: only the entries
// of each node that lie within e of the other node's rectangle on both axes
// enter the sweep (near). The callback returns false to stop early.
func JoinDistance(ta, tb *Tree, e float64, fn func(a, b Item) bool) error {
	j := joiners.get()
	j.ta, j.tb, j.e, j.fn = ta, tb, e, fn
	_, err := j.nodes(ta.root, tb.root, geom.Rect{}, geom.Rect{}, 0)
	j.ta, j.tb, j.fn = nil, nil, nil
	joiners.put(j)
	return err
}

// joiner is one JoinDistance call. The recursion runs inside the sweep's
// callback, so every depth keeps its own decoded node pair, its own sweep and
// its own restricted entry lists, allocated the first time a join gets that
// deep and kept, in joiners, for the joins after it.
type joiner struct {
	ta, tb *Tree
	e      float64
	fn     func(a, b Item) bool
	as, bs nodeStack
	sw     []*joinSweep
}

// joinSweep is one depth's sweep and the entries of its two nodes that enter
// it.
type joinSweep struct {
	sweeper
	as, bs []entry
}

var joiners = make(freeList[joiner], scratchKept)

// nodes joins the subtrees at pa and pb, whose rectangles ra and rb are the
// ones the parent entries that led to them record; the roots, which no entry
// records, get theirs from their entries.
func (j *joiner) nodes(pa, pb pagefile.PageID, ra, rb geom.Rect, depth int) (cont bool, err error) {
	na, err := j.as.read(j.ta, pa, depth)
	if err != nil {
		return false, err
	}
	nb, err := j.bs.read(j.tb, pb, depth)
	if err != nil {
		return false, err
	}
	if depth == 0 {
		ra, rb = na.mbr(), nb.mbr()
	}
	if na.level != nb.level {
		// Descend the deeper tree only, against the other node's rectangle.
		deep, other, aDeeper := na, rb, true
		if nb.level > na.level {
			deep, other, aDeeper = nb, ra, false
		}
		for _, c := range deep.entries {
			if c.rect.MinDistRect(other) > j.e {
				continue
			}
			ca, cb, rca, rcb := pagefile.PageID(c.ref), pb, c.rect, rb
			if !aDeeper {
				ca, cb, rca, rcb = pa, pagefile.PageID(c.ref), ra, c.rect
			}
			if cont, err := j.nodes(ca, cb, rca, rcb, depth+1); err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	// Equal levels: sweep the entries near the other node along x. mindist
	// <= e is the half-open interval that ends at the next float above e.
	for depth >= len(j.sw) { // depths that only descended one tree have none yet
		j.sw = append(j.sw, new(joinSweep))
	}
	sw := j.sw[depth]
	sw.as, sw.bs = near(sw.as, na.entries, rb, j.e), near(sw.bs, nb.entries, ra, j.e)
	if len(sw.as) == 0 || len(sw.bs) == 0 {
		return true, nil
	}
	cont = sw.pairs(sw.as, sw.bs, 0, math.Nextafter(j.e, math.Inf(1)), func(a, b entry, _ float64) bool {
		if na.isLeaf() {
			return j.fn(a.item(), b.item())
		}
		cont, err = j.nodes(pagefile.PageID(a.ref), pagefile.PageID(b.ref), a.rect, b.rect, depth+1)
		return cont && err == nil
	})
	return cont, err
}

// near is [BKS93]'s search-space restriction: it returns, in dst's storage,
// the entries whose x-gap and y-gap to r are both at most e. Every entry the
// sweep could pair with one inside r is kept, exactly and not only up to
// rounding: the gap to r is no larger than the gap to any partner inside r,
// and no pair whose gaps exceed e has mindist <= e (geom.Rect.GapsWithin).
func near(dst, entries []entry, r geom.Rect, e float64) []entry {
	dst = dst[:0]
	for _, c := range entries {
		if c.rect.GapsWithin(r, e) {
			dst = append(dst, c)
		}
	}
	return dst
}

// sweeper is the forward plane sweep of [BKS93] over the entries of two nodes,
// the one primitive under the e-distance join and the closest-pair stream.
// The join hands it only the entries its search-space restriction keeps
// (near). keys is its scratch, reused from one sweep to the next.
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
