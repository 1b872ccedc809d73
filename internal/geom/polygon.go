package geom

import (
	"fmt"
	"math"
	"slices"
)

// Polygon is a simple (non-self-intersecting) polygon given by its vertices.
// The constructor normalizes orientation to counter-clockwise. Obstacles in
// the obstructed-query algorithms are Polygons; the evaluation datasets use
// rectangles (street MBRs), which are a special case.
type Polygon struct {
	v      []Point
	bounds Rect
	// rect marks an axis-aligned rectangle: the polygon is exactly bounds, so
	// BlocksSegment clips against the box instead of walking the edges.
	rect bool
}

// NewPolygon builds a polygon from vertices. It returns an error when fewer
// than three vertices are given or when consecutive vertices coincide. The
// vertex order is normalized to counter-clockwise. Four axis-aligned corners
// (either orientation, any starting corner) are recognised as a rectangle,
// which is how street MBRs arrive from a reopened store or over the wire.
func NewPolygon(vertices []Point) (Polygon, error) {
	if len(vertices) < 3 {
		return Polygon{}, fmt.Errorf("geom: polygon needs >= 3 vertices, got %d", len(vertices))
	}
	v := make([]Point, len(vertices))
	copy(v, vertices)
	for i := range v {
		if v[i].Eq(v[(i+1)%len(v)]) {
			return Polygon{}, fmt.Errorf("geom: polygon has coincident consecutive vertices at %d", i)
		}
	}
	if signedArea(v) < 0 {
		for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
			v[i], v[j] = v[j], v[i]
		}
	}
	bounds := RectOf(v...)
	return Polygon{v: v, bounds: bounds, rect: isRect(v, bounds)}, nil
}

// isRect reports whether v walks the four corners of bounds: every vertex is
// a corner, neighbours share exactly one coordinate and opposite vertices
// none, which rules out the bow-tie order, repeated corners and zero area.
func isRect(v []Point, bounds Rect) bool {
	if len(v) != 4 {
		return false
	}
	for i, p := range v {
		if (p.X != bounds.MinX && p.X != bounds.MaxX) || (p.Y != bounds.MinY && p.Y != bounds.MaxY) {
			return false
		}
		if q := v[(i+1)%4]; (p.X == q.X) == (p.Y == q.Y) {
			return false
		}
		if o := v[(i+2)%4]; p.X == o.X || p.Y == o.Y {
			return false
		}
	}
	return true
}

// MustPolygon is NewPolygon that panics on invalid input; intended for
// literals in tests and examples.
func MustPolygon(vertices []Point) Polygon {
	pg, err := NewPolygon(vertices)
	if err != nil {
		panic(err)
	}
	return pg
}

// RectPolygon returns the polygon with the four corners of r.
func RectPolygon(r Rect) Polygon {
	c := r.Vertices()
	return Polygon{v: c[:], bounds: r, rect: true}
}

func signedArea(v []Point) float64 {
	var s float64
	for i := range v {
		j := (i + 1) % len(v)
		s += v[i].CrossZ(v[j])
	}
	return s / 2
}

// NumVertices returns the number of vertices of pg.
func (pg Polygon) NumVertices() int { return len(pg.v) }

// Vertex returns the i-th vertex (counter-clockwise order).
func (pg Polygon) Vertex(i int) Point { return pg.v[i] }

// Vertices returns the vertex slice; callers must not modify it.
func (pg Polygon) Vertices() []Point { return pg.v }

// Edge returns the i-th boundary edge, from Vertex(i) to Vertex(i+1 mod n).
func (pg Polygon) Edge(i int) Segment {
	return Segment{pg.v[i], pg.v[(i+1)%len(pg.v)]}
}

// Bounds returns the bounding rectangle of pg.
func (pg Polygon) Bounds() Rect { return pg.bounds }

// Area returns the area enclosed by pg.
func (pg Polygon) Area() float64 { return math.Abs(signedArea(pg.v)) }

// boundaryClear is a distance from an edge's bounding box beyond which a
// point is farther than Eps from the edge whatever the rounding: a thousand
// times Eps. OnBoundary computes exact distances only within it.
const boundaryClear = 1000 * Eps

// OnBoundary reports whether p lies on the boundary of pg (within Eps).
func (pg Polygon) OnBoundary(p Point) bool {
	for i := range pg.v {
		e := pg.Edge(i)
		if e.Bounds().Expand(boundaryClear).Contains(p) && e.DistToPoint(p) <= Eps {
			return true
		}
	}
	return false
}

// Contains reports whether p lies in the closed polygon (interior or
// boundary).
func (pg Polygon) Contains(p Point) bool {
	if !pg.bounds.Contains(p) {
		return pg.OnBoundary(p) // bounds test can reject boundary points by Eps
	}
	return pg.crossingInside(p) || pg.OnBoundary(p)
}

// ContainsStrict reports whether p lies strictly inside pg (not on the
// boundary).
func (pg Polygon) ContainsStrict(p Point) bool {
	if !pg.bounds.ContainsStrict(p) {
		return false
	}
	if pg.rect && pg.bounds.Expand(-boundaryClear).Contains(p) {
		return true // clear of all four sides, which is all a rectangle has
	}
	if pg.OnBoundary(p) {
		return false
	}
	return pg.crossingInside(p)
}

// crossingInside runs the even-odd crossing test. Boundary points give an
// arbitrary answer; callers handle them separately.
func (pg Polygon) crossingInside(p Point) bool {
	inside := false
	n := len(pg.v)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		vi, vj := pg.v[i], pg.v[j]
		if (vi.Y > p.Y) != (vj.Y > p.Y) {
			xi := (vj.X-vi.X)*(p.Y-vi.Y)/(vj.Y-vi.Y) + vi.X
			if p.X < xi {
				inside = !inside
			}
		}
	}
	return inside
}

// BlocksSegment reports whether the open segment ab passes through the
// interior of pg. Touching the boundary — sliding along an edge, grazing a
// vertex, or having an endpoint on the boundary — does not block. This is
// the visibility predicate of the obstructed-distance metric: two points are
// mutually visible iff no obstacle blocks the segment between them.
//
// The test clips ab against the polygon boundary: it collects the parameters
// where ab meets boundary edges, then checks the midpoint of every resulting
// span for strict interiority. This is robust for entities lying exactly on
// obstacle boundaries. A rectangle meets ab in a single span, found by
// clipping against the box; the decision about that span is the same one.
func (pg Polygon) BlocksSegment(a, b Point) bool {
	if !pg.bounds.Intersects(Seg(a, b).Bounds().Expand(Eps)) {
		return false
	}
	s := Seg(a, b)
	length := s.Length()
	if length <= Eps {
		return pg.ContainsStrict(a)
	}
	// minGap is the smallest span worth testing: spans shorter than Eps in
	// world units are boundary grazes, not interior crossings.
	minGap := Eps / length * 4
	if pg.rect {
		t0, t1 := pg.bounds.clipSegment(s)
		return t1-t0 > minGap && pg.ContainsStrict(s.At((t0+t1)/2))
	}
	// Parameter values along ab where the boundary is met; the midpoint of
	// each span between consecutive ones is checked.
	var buf [clipInline]float64
	ts := pg.clipParams(s, buf[:0])
	prev := ts[0]
	for _, t := range ts[1:] {
		if t-prev > minGap {
			if pg.ContainsStrict(s.At((prev + t) / 2)) {
				return true
			}
		}
		if t > prev {
			prev = t
		}
	}
	return false
}

// clipInline is how many boundary parameters BlocksSegment keeps on its
// stack: a segment meets a convex polygon's boundary twice and a vertex hit
// counts for both edges, so only a long, deeply concave outline spills to
// the heap.
const clipInline = 16

// clipParams appends to ts the sorted parameters in [0,1] (always including
// 0 and 1) at which segment s meets the boundary of pg.
func (pg Polygon) clipParams(s Segment, ts []float64) []float64 {
	ts = append(ts, 0, 1)
	dir := s.B.Sub(s.A)
	l2 := dir.Dot(dir)
	for i := range pg.v {
		e := pg.Edge(i)
		if t, u, ok := s.IntersectionParams(e); ok {
			// tolerance in parameter space, scaled to world Eps
			tolT := Eps / math.Sqrt(l2)
			tolU := Eps / e.Length()
			if t >= -tolT && t <= 1+tolT && u >= -tolU && u <= 1+tolU {
				ts = append(ts, clamp01(t))
			}
			continue
		}
		// Parallel lines: if collinear, project the edge endpoints onto s.
		if Orientation(s.A, s.B, e.A) == 0 && Orientation(s.A, s.B, e.B) == 0 {
			for _, q := range [2]Point{e.A, e.B} {
				t := q.Sub(s.A).Dot(dir) / l2
				if t > 0 && t < 1 {
					ts = append(ts, t)
				}
			}
		}
	}
	slices.Sort(ts)
	return ts
}

func clamp01(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// IntersectsRect reports whether the closed polygon intersects the closed
// rectangle r (sharing boundary counts).
func (pg Polygon) IntersectsRect(r Rect) bool {
	if !pg.bounds.Intersects(r) {
		return false
	}
	if r.ContainsRect(pg.bounds) {
		return true
	}
	for _, c := range r.Vertices() {
		if pg.Contains(c) {
			return true
		}
	}
	if pg.Contains(r.Center()) {
		return true
	}
	rp := RectPolygon(r)
	for i := range pg.v {
		for j := 0; j < 4; j++ {
			if pg.Edge(i).Intersects(rp.Edge(j)) {
				return true
			}
		}
	}
	// Polygon vertex inside rect covers the remaining containment case.
	for _, v := range pg.v {
		if r.Contains(v) {
			return true
		}
	}
	return false
}

// IntersectsCircle reports whether the closed polygon intersects the closed
// disk with the given center and radius.
func (pg Polygon) IntersectsCircle(center Point, radius float64) bool {
	if pg.bounds.MinDist(center) > radius {
		return false
	}
	for i := range pg.v {
		if pg.Edge(i).DistToPoint(center) <= radius {
			return true
		}
	}
	// The disk may be entirely inside the polygon.
	return pg.Contains(center)
}
