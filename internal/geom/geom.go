// Package geom provides the 2-D geometry kernel used throughout the library:
// points, segments, axis-aligned rectangles and simple polygons, together
// with the predicates needed for visibility computation (interior-crossing
// tests, point-in-polygon, orientation) and the distance metrics used by the
// R-tree algorithms (mindist between points and rectangles).
//
// All coordinates are float64. Predicates use the package-level tolerance
// Eps; inputs are expected to live in a bounded universe (the generators use
// [0, 10000]^2) so an absolute tolerance is appropriate.
//
// Polygon.BlocksSegment is the visibility predicate of the whole system and
// its hot spot. Obstacles are mostly street MBRs, so a polygon that is an
// axis-aligned rectangle is tagged at construction and clipped as a box (one
// slab per axis); every other polygon is clipped against its boundary edges
// into a buffer on the caller's stack. Both paths end in the same decision —
// a span of the segment longer than the tolerance whose midpoint is strictly
// inside — and TestRectBlocksSegmentMatchesGeneral and FuzzRectBlocksSegment
// hold them to the same answers on the degenerate inputs street data is made
// of.
package geom

import (
	"fmt"
	"math"
)

// Eps is the absolute tolerance used by geometric predicates.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q, treating both as vectors.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q, treating both as vectors.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product of p and q as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// CrossZ returns the z-component of the cross product p x q.
func (p Point) CrossZ(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q. (Plain Sqrt, not
// Hypot: coordinates live in bounded universes, and Dist dominates the
// visibility-graph hot paths.)
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Cross returns the z-component of (a-o) x (b-o): positive when o,a,b turn
// counter-clockwise, negative when clockwise, ~0 when collinear.
func Cross(o, a, b Point) float64 {
	return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
}

// Orientation classifies the turn o->a->b: +1 counter-clockwise, -1
// clockwise, 0 collinear (within Eps).
func Orientation(o, a, b Point) int {
	c := Cross(o, a, b)
	switch {
	case c > Eps:
		return 1
	case c < -Eps:
		return -1
	default:
		return 0
	}
}

// OnSegment reports whether p lies on the closed segment ab (within Eps).
func OnSegment(p, a, b Point) bool {
	if Orientation(a, b, p) != 0 {
		return false
	}
	return p.X >= min(a.X, b.X)-Eps && p.X <= max(a.X, b.X)+Eps &&
		p.Y >= min(a.Y, b.Y)-Eps && p.Y <= max(a.Y, b.Y)+Eps
}

// Segment is the closed line segment between A and B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{a, b} }

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the midpoint of s.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// At returns the point A + t*(B-A).
func (s Segment) At(t float64) Point {
	return Point{s.A.X + t*(s.B.X-s.A.X), s.A.Y + t*(s.B.Y-s.A.Y)}
}

// Bounds returns the bounding rectangle of s.
func (s Segment) Bounds() Rect {
	return Rect{
		MinX: min(s.A.X, s.B.X), MinY: min(s.A.Y, s.B.Y),
		MaxX: max(s.A.X, s.B.X), MaxY: max(s.A.Y, s.B.Y),
	}
}

// DistToPoint returns the distance from p to the closed segment s.
func (s Segment) DistToPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 <= Eps*Eps {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(d) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(s.At(t))
}

// ProperCross reports whether segments s and t cross at a single point that
// is interior to both (no endpoint touching, no collinear overlap).
func (s Segment) ProperCross(t Segment) bool {
	d1 := Orientation(t.A, t.B, s.A)
	d2 := Orientation(t.A, t.B, s.B)
	d3 := Orientation(s.A, s.B, t.A)
	d4 := Orientation(s.A, s.B, t.B)
	return d1 != 0 && d2 != 0 && d3 != 0 && d4 != 0 && d1 != d2 && d3 != d4
}

// Intersects reports whether the closed segments s and t share any point.
func (s Segment) Intersects(t Segment) bool {
	if s.ProperCross(t) {
		return true
	}
	return OnSegment(t.A, s.A, s.B) || OnSegment(t.B, s.A, s.B) ||
		OnSegment(s.A, t.A, t.B) || OnSegment(s.B, t.A, t.B)
}

// IntersectionParams returns the parameters (t on s, u on t) of the
// intersection point of the supporting lines of s and t, and ok=false when
// the lines are parallel (including collinear).
func (s Segment) IntersectionParams(t Segment) (ts, us float64, ok bool) {
	r := s.B.Sub(s.A)
	d := t.B.Sub(t.A)
	den := r.CrossZ(d)
	if math.Abs(den) <= Eps {
		return 0, 0, false
	}
	diff := t.A.Sub(s.A)
	return diff.CrossZ(d) / den, diff.CrossZ(r) / den, true
}
