package visgraph

import (
	"math"

	"repro/internal/geom"
)

// obstGrid is a uniform grid over the bounding boxes of a graph's obstacles:
// every cell chains the indexes of the obstacles whose box overlaps it, so a
// visibility test asks only the obstacles near its segment. The cell side is
// derived from the obstacle set — √(area of the boxes' union bounds / 2n),
// about 0.7 of the mean obstacle spacing — so a local graph of any density
// keeps about two cells per obstacle and a segment crosses about as many
// cells as it passes obstacles.
type obstGrid struct {
	bounds geom.Rect // union of the indexed boxes; cell (0,0) starts at its min corner
	cell   float64   // cell side; 0 = not built
	nx, ny int
	built  int // obstacles indexed by the last build: the basis of cell
	// head[cy*nx+cx] is the first entry of the cell's chain, -1 when empty;
	// chains let add extend a cell in place without moving its neighbours.
	head    []int32
	entries []gridEntry
	// stamps[i] == gen marks obstacle i as already asked by the current
	// visibility test: a box spanning several cells is chained in each.
	stamps []uint32
	gen    uint32
}

type gridEntry struct{ obst, next int32 }

// build indexes all of obstacles from scratch, reusing the grid's storage.
func (gr *obstGrid) build(obstacles []geom.Polygon) {
	bounds := geom.EmptyRect()
	for i := range obstacles {
		bounds = bounds.Union(obstacles[i].Bounds())
	}
	w, h, n := bounds.Width(), bounds.Height(), float64(len(obstacles))
	// The second term bounds the cell count of a thin or degenerate extent
	// (a row of obstacles, a single one) by the same 2n per axis.
	cell := math.Max(math.Sqrt(w*h/(2*n)), math.Max(w, h)/(2*n))
	if cell == 0 {
		cell = 1
	}
	gr.bounds, gr.cell, gr.built = bounds, cell, len(obstacles)
	gr.nx, gr.ny = int(w/cell)+1, int(h/cell)+1
	gr.head = gr.head[:0]
	for i := 0; i < gr.nx*gr.ny; i++ {
		gr.head = append(gr.head, -1)
	}
	gr.entries = gr.entries[:0]
	for i := range obstacles {
		gr.add(i, obstacles[i].Bounds())
	}
}

// col and row map a coordinate to a cell index, clamped to the grid. Both are
// monotone, which is all correctness needs: a point of a segment inside a box
// falls in a cell between the cells of the box's own corners.
func (gr *obstGrid) col(x float64) int { return cellIndex(x-gr.bounds.MinX, gr.cell, gr.nx) }
func (gr *obstGrid) row(y float64) int { return cellIndex(y-gr.bounds.MinY, gr.cell, gr.ny) }

// cellIndex is the cell, of n along an axis, at offset off from the grid's
// min corner.
func cellIndex(off, cell float64, n int) int {
	if off <= 0 {
		return 0
	}
	if i := off / cell; i < float64(n) {
		return int(i)
	}
	return n - 1
}

// add chains obstacle i, whose box must lie within the grid's bounds, into
// every cell the box overlaps.
func (gr *obstGrid) add(i int, box geom.Rect) {
	for len(gr.stamps) <= i {
		gr.stamps = append(gr.stamps, 0)
	}
	x0, x1 := gr.col(box.MinX), gr.col(box.MaxX)
	for cy, y1 := gr.row(box.MinY), gr.row(box.MaxY); cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			c := cy*gr.nx + cx
			gr.entries = append(gr.entries, gridEntry{obst: int32(i), next: gr.head[c]})
			gr.head[c] = int32(len(gr.entries) - 1)
		}
	}
}

// extend brings a built grid up to date with obstacles[first:]. It reports
// false when the grid has to be rebuilt instead: a new box lies outside its
// bounds, or the obstacle count has doubled since the cell side was chosen.
func (gr *obstGrid) extend(obstacles []geom.Polygon, first int) bool {
	if len(obstacles) >= 2*gr.built {
		return false
	}
	for i := first; i < len(obstacles); i++ {
		if !gr.bounds.ContainsRect(obstacles[i].Bounds()) {
			return false
		}
	}
	for i := first; i < len(obstacles); i++ {
		gr.add(i, obstacles[i].Bounds())
	}
	return true
}

// blocks reports whether pg blocks the segment ab, whose padded bounds are
// sb and direction d. A polygon lies within its bounding box, and a box that
// clears the line through a and b cannot block the segment: of the box's
// corners, two diagonal ones are extreme for the side-of-line cross
// product. Most boxes near a long segment clear its line and skip the exact
// polygon test.
func blocks(pg *geom.Polygon, a, b geom.Point, sb geom.Rect, d geom.Point, margin float64) bool {
	ob := pg.Bounds()
	if !ob.Intersects(sb) {
		return false
	}
	x0, x1, y0, y1 := ob.MinX, ob.MaxX, ob.MinY, ob.MaxY
	if d.Y < 0 {
		x0, x1 = x1, x0
	}
	if d.X < 0 {
		y0, y1 = y1, y0
	}
	if d.X*(y1-a.Y)-d.Y*(x0-a.X) < -margin || d.X*(y0-a.Y)-d.Y*(x1-a.X) > margin {
		return false
	}
	return pg.BlocksSegment(a, b)
}

// Visible reports whether the open segment ab crosses no obstacle interior.
// It walks the grid cells the segment crosses from a toward b, asks each
// obstacle chained there once, and returns at the first blocker — which, seen
// from an expanding node, is usually one of the nearest obstacles.
func (g *Graph) Visible(a, b geom.Point) bool { return g.blocker(a, b, 0, -1) < 0 }

// blocker returns an obstacle of obstacles[lo:] blocking the open segment ab
// (hint first, if it is one of them, else the first the grid walk meets), or
// -1 when none does; AddObstacles asks it with lo > 0 about each kept edge.
func (g *Graph) blocker(a, b geom.Point, lo, hint int) int {
	if len(g.obstacles) == lo {
		return -1
	}
	sb, d := geom.Seg(a, b).Bounds().Expand(geom.Eps), b.Sub(a)
	margin := clearMargin(d)
	if hint >= lo && blocks(&g.obstacles[hint], a, b, sb, d, margin) {
		return hint
	}
	gr := &g.grid
	if gr.cell == 0 {
		gr.build(g.obstacles)
	}
	if !sb.Intersects(gr.bounds) {
		return -1
	}
	if gr.gen++; gr.gen == 0 { // wrapped: no stamp may look current
		clear(gr.stamps)
		gr.gen = 1
	}

	// Walk along the axis the segment moves most in, so that between two
	// lines of cells the other coordinate changes by at most a cell and a
	// rounding error in the crossing point stays far inside margin. u is
	// that axis, v the other; strides turn (u, v) cell indexes into a head
	// index.
	au, av, bu, bv := a.X, a.Y, b.X, b.Y
	ou, ov, nu, nv, su, sv := gr.bounds.MinX, gr.bounds.MinY, gr.nx, gr.ny, 1, gr.nx
	if math.Abs(d.Y) > math.Abs(d.X) {
		au, av, bu, bv = av, au, bv, bu
		ou, ov, nu, nv, su, sv = ov, ou, nv, nu, sv, su
	}
	stepU, stepV := 1, 1
	if bu < au {
		stepU = -1
	}
	if bv < av {
		stepV = -1
	}
	pad := margin * float64(stepV)
	iu := cellIndex(au-ou, gr.cell, nu)
	vIn := av
	for lines := (cellIndex(bu-ou, gr.cell, nu) - iu) * stepU; lines >= 0; lines-- {
		// The segment leaves line iu of cells at vOut: where it crosses the
		// line's far side, or at b in the last one.
		vOut := bv
		if lines > 0 {
			edge := ou + float64(iu)*gr.cell
			if stepU > 0 {
				edge += gr.cell
			}
			vOut = av + (edge-au)/(bu-au)*(bv-av)
		}
		iv := cellIndex(vIn-pad-ov, gr.cell, nv)
		for cells := (cellIndex(vOut+pad-ov, gr.cell, nv) - iv) * stepV; cells >= 0; cells-- {
			for e := gr.head[iu*su+iv*sv]; e >= 0; e = gr.entries[e].next {
				i := gr.entries[e].obst
				if int(i) < lo || gr.stamps[i] == gr.gen {
					continue
				}
				gr.stamps[i] = gr.gen
				if blocks(&g.obstacles[i], a, b, sb, d, margin) {
					return int(i)
				}
			}
			iv += stepV
		}
		iu += stepU
		vIn = vOut
	}
	return -1
}

// Inside reports whether p lies strictly inside one of the graph's obstacles.
// It asks only the obstacles chained in the one grid cell that holds p: a
// polygon that contains p has a box that contains p, and the box is chained in
// every cell it overlaps.
func (g *Graph) Inside(p geom.Point) bool {
	if len(g.obstacles) == 0 {
		return false
	}
	gr := &g.grid
	if gr.cell == 0 {
		gr.build(g.obstacles)
	}
	if !gr.bounds.Contains(p) {
		return false
	}
	for e := gr.head[gr.row(p.Y)*gr.nx+gr.col(p.X)]; e >= 0; e = gr.entries[e].next {
		if g.obstacles[gr.entries[e].obst].ContainsStrict(p) {
			return true
		}
	}
	return false
}

// clearMargin is by how much an obstacle's box must clear the line through a
// segment of direction d before blocks skips the exact test. It is never
// below 1e-6: a thousand times geom.Eps, so every vertex of a skipped polygon
// is strictly to one side of the segment by geom.Orientation's own standard
// and BlocksSegment would find no crossing.
func clearMargin(d geom.Point) float64 {
	return 1e-6 * (math.Abs(d.X) + math.Abs(d.Y) + 1)
}

// Blocker returns the index of an obstacle of obs blocking the open segment
// ab (hint first, if it is one of them), or -1 when none does: the test a
// pass makes, for a caller that holds the obstacles and no graph.
func Blocker(obs []Obstacle, a, b geom.Point, hint int) int {
	sb, d := geom.Seg(a, b).Bounds().Expand(geom.Eps), b.Sub(a)
	margin := clearMargin(d)
	if hint >= 0 && hint < len(obs) && blocks(&obs[hint].Poly, a, b, sb, d, margin) {
		return hint
	}
	for i := range obs {
		if blocks(&obs[i].Poly, a, b, sb, d, margin) {
			return i
		}
	}
	return -1
}

// Blocker is Blocker over the graph's obstacles, in the order they arrived,
// asked through its grid.
func (g *Graph) Blocker(a, b geom.Point, hint int) int {
	if hint >= len(g.obstacles) {
		hint = -1
	}
	return g.blocker(a, b, 0, hint)
}

// visibleLinear is Visible by definition — every obstacle is asked, through
// no index and with no shortcut — and is what the reference pass (see
// Options) calls, so tests that compare the two passes compare the grid walk
// against something that shares none of it.
func (g *Graph) visibleLinear(a, b geom.Point) bool {
	for i := range g.obstacles {
		if g.obstacles[i].BlocksSegment(a, b) {
			return false
		}
	}
	return true
}
