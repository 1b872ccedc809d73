package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle (a 2-D minimum bounding rectangle).
// A Rect with MinX > MaxX is treated as empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R is shorthand for Rect{minx, miny, maxx, maxy}.
func R(minx, miny, maxx, maxy float64) Rect {
	return Rect{MinX: minx, MinY: miny, MaxX: maxx, MaxY: maxy}
}

// RectOf returns the smallest Rect containing all points in pts.
// It returns EmptyRect() for an empty slice.
func RectOf(pts ...Point) Rect {
	if len(pts) == 0 {
		return EmptyRect()
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// EmptyRect returns the identity element for Union: an empty rectangle.
func EmptyRect() Rect {
	return Rect{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect { return Rect{p.X, p.Y, p.X, p.Y} }

// Bounds returns PointRect(p), so points index like polygons do.
func (p Point) Bounds() Rect { return PointRect(p) }

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the x-extent of r (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the y-extent of r (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r (0 for empty rectangles).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns half the perimeter of r, the margin metric used by the
// R*-tree split heuristic.
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies in the closed rectangle r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsStrict reports whether p lies strictly inside r.
func (r Rect) ContainsStrict(p Point) bool {
	return p.X > r.MinX+Eps && p.X < r.MaxX-Eps && p.Y > r.MinY+Eps && p.Y < r.MaxY-Eps
}

// ContainsRect reports whether r fully contains s.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether the closed rectangles r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: min(r.MinX, s.MinX), MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX), MaxY: max(r.MaxY, s.MaxY),
	}
}

// Intersection returns the common region of r and s (possibly empty).
func (r Rect) Intersection(s Rect) Rect {
	out := Rect{
		MinX: max(r.MinX, s.MinX), MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX), MaxY: min(r.MaxY, s.MaxY),
	}
	return out
}

// OverlapArea returns the area of the intersection of r and s.
func (r Rect) OverlapArea(s Rect) float64 {
	i := r.Intersection(s)
	if i.IsEmpty() {
		return 0
	}
	return i.Area()
}

// ExtendPoint returns r grown to cover p.
func (r Rect) ExtendPoint(p Point) Rect { return r.Union(PointRect(p)) }

// Expand returns r grown by d on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// MinDist returns the minimum Euclidean distance from p to any point of r
// (0 when p is inside r). This is the mindist metric of [HS99]. Like the
// other rectangle distances it is sqrt(dx² + dy²), which never falls as a
// gap grows, as R-tree pruning needs; math.Hypot can.
func (r Rect) MinDist(p Point) float64 {
	dx := max(r.MinX-p.X, 0, p.X-r.MaxX)
	dy := max(r.MinY-p.Y, 0, p.Y-r.MaxY)
	return math.Sqrt(dx*dx + dy*dy)
}

// MinDistRect returns the minimum Euclidean distance between any point of r
// and any point of s (0 when they intersect), the mindist metric between
// entry MBRs used by closest-pair algorithms [CMTV00].
func (r Rect) MinDistRect(s Rect) float64 {
	dx := max(s.MinX-r.MaxX, 0, r.MinX-s.MaxX)
	dy := max(s.MinY-r.MaxY, 0, r.MinY-s.MaxY)
	return math.Sqrt(dx*dx + dy*dy)
}

// GapsWithin reports whether r's gaps to s along x and along y are both at
// most d. It never rejects a rectangle within d of s: MinDistRect is
// sqrt(dx² + dy²) of the two gaps, which in floating point is at least
// sqrt(dx²) = |dx|, and likewise |dy|, since rounding is monotone and
// sqrt(fl(x²)) = |x| while x² neither underflows nor overflows. So it
// filters without a square root, exactly.
func (r Rect) GapsWithin(s Rect, d float64) bool {
	return max(s.MinX-r.MaxX, r.MinX-s.MaxX) <= d && max(s.MinY-r.MaxY, r.MinY-s.MaxY) <= d
}

// MaxDistRect returns the maximum Euclidean distance between any point of r
// and any point of s: no pair of items under two entry MBRs is farther apart.
func (r Rect) MaxDistRect(s Rect) float64 {
	dx := max(s.MaxX-r.MinX, r.MaxX-s.MinX)
	dy := max(s.MaxY-r.MinY, r.MaxY-s.MinY)
	return math.Sqrt(dx*dx + dy*dy)
}

// MaxDist returns the maximum Euclidean distance from p to any point of r.
func (r Rect) MaxDist(p Point) float64 {
	dx := max(math.Abs(p.X-r.MinX), math.Abs(p.X-r.MaxX))
	dy := max(math.Abs(p.Y-r.MinY), math.Abs(p.Y-r.MaxY))
	return math.Sqrt(dx*dx + dy*dy)
}

// IntersectsCircle reports whether r intersects the closed disk with the
// given center and radius.
func (r Rect) IntersectsCircle(center Point, radius float64) bool {
	return r.MinDist(center) <= radius
}

// clipSegment returns the parameter interval [t0, t1] of s that lies in the
// closed rectangle r, one slab per axis (Liang-Barsky); t0 > t1 when s misses
// r.
func (r Rect) clipSegment(s Segment) (t0, t1 float64) {
	t0, t1 = clipSlab(s.A.X, s.B.X-s.A.X, r.MinX, r.MaxX, 0, 1)
	return clipSlab(s.A.Y, s.B.Y-s.A.Y, r.MinY, r.MaxY, t0, t1)
}

// clipSlab narrows [t0, t1] to the parameters where from + t*d lies in
// [lo, hi]. Motion parallel to the slab (d = 0) is unconstrained inside it
// and empties the interval outside, so nothing divides by zero.
func clipSlab(from, d, lo, hi, t0, t1 float64) (float64, float64) {
	if d == 0 {
		if from < lo || from > hi {
			return 1, 0
		}
		return t0, t1
	}
	ta, tb := (lo-from)/d, (hi-from)/d
	if ta > tb {
		ta, tb = tb, ta
	}
	return max(t0, ta), min(t1, tb)
}

// Vertices returns the four corners of r in counter-clockwise order starting
// from (MinX, MinY).
func (r Rect) Vertices() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY}, {r.MaxX, r.MinY}, {r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.6g,%.6g]x[%.6g,%.6g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}
