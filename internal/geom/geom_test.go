package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(4, 6)
	if got := p.Add(q); got != Pt(5, 8) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != Pt(3, 4) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dist(q); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := p.Dist2(q); math.Abs(got-25) > 1e-12 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if !p.Eq(Pt(1+1e-10, 2-1e-10)) {
		t.Error("Eq should tolerate Eps")
	}
	if p.Eq(q) {
		t.Error("Eq(p,q) should be false")
	}
	if got := Pt(1, 0).CrossZ(Pt(0, 1)); got != 1 {
		t.Errorf("CrossZ = %v", got)
	}
	if got := p.Dot(q); got != 16 {
		t.Errorf("Dot = %v", got)
	}
}

func TestOrientation(t *testing.T) {
	o, a := Pt(0, 0), Pt(1, 0)
	if got := Orientation(o, a, Pt(1, 1)); got != 1 {
		t.Errorf("ccw: got %d", got)
	}
	if got := Orientation(o, a, Pt(1, -1)); got != -1 {
		t.Errorf("cw: got %d", got)
	}
	if got := Orientation(o, a, Pt(2, 0)); got != 0 {
		t.Errorf("collinear: got %d", got)
	}
}

func TestOnSegment(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 10)
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5), true},
		{Pt(0, 0), true},
		{Pt(10, 10), true},
		{Pt(11, 11), false},
		{Pt(5, 5.001), false},
		{Pt(-1, -1), false},
	}
	for _, c := range cases {
		if got := OnSegment(c.p, a, b); got != c.want {
			t.Errorf("OnSegment(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSegmentIntersection(t *testing.T) {
	cases := []struct {
		s, u           Segment
		proper, touchy bool
	}{
		{Seg(Pt(0, 0), Pt(10, 10)), Seg(Pt(0, 10), Pt(10, 0)), true, true},
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(5, 0), Pt(5, 10)), false, true},  // T-touch
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(10, 0), Pt(20, 0)), false, true}, // endpoint chain
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(4, 0), Pt(6, 0)), false, true},   // collinear overlap
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(0, 1), Pt(10, 1)), false, false}, // parallel apart
		{Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(2, 2), Pt(3, 3)), false, false},   // collinear apart
	}
	for i, c := range cases {
		if got := c.s.ProperCross(c.u); got != c.proper {
			t.Errorf("case %d: ProperCross = %v, want %v", i, got, c.proper)
		}
		if got := c.s.Intersects(c.u); got != c.touchy {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.touchy)
		}
	}
}

func TestSegmentDistToPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 3), 3},
		{Pt(-3, 4), 5},
		{Pt(13, 4), 5},
		{Pt(5, 0), 0},
	}
	for _, c := range cases {
		if got := s.DistToPoint(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("DistToPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	degenerate := Seg(Pt(2, 2), Pt(2, 2))
	if got := degenerate.DistToPoint(Pt(2, 5)); math.Abs(got-3) > 1e-9 {
		t.Errorf("degenerate DistToPoint = %v, want 3", got)
	}
}

func TestSegmentIntersectionParams(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	u := Seg(Pt(5, -5), Pt(5, 5))
	ts, us, ok := s.IntersectionParams(u)
	if !ok || math.Abs(ts-0.5) > 1e-12 || math.Abs(us-0.5) > 1e-12 {
		t.Errorf("params = %v,%v,%v", ts, us, ok)
	}
	if _, _, ok := s.IntersectionParams(Seg(Pt(0, 1), Pt(10, 1))); ok {
		t.Error("parallel segments should not intersect")
	}
}

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 4, 2)
	if r.Area() != 8 || r.Margin() != 6 || r.Width() != 4 || r.Height() != 2 {
		t.Errorf("metrics: %v %v %v %v", r.Area(), r.Margin(), r.Width(), r.Height())
	}
	if r.Center() != Pt(2, 1) {
		t.Errorf("center = %v", r.Center())
	}
	if !r.Contains(Pt(4, 2)) || r.Contains(Pt(4.1, 2)) {
		t.Error("Contains boundary handling wrong")
	}
	if r.ContainsStrict(Pt(4, 2)) || !r.ContainsStrict(Pt(2, 1)) {
		t.Error("ContainsStrict wrong")
	}
	if !r.Intersects(R(4, 2, 5, 5)) { // corner touch counts
		t.Error("corner touch should intersect")
	}
	if r.Intersects(R(4.1, 0, 5, 2)) {
		t.Error("disjoint rects should not intersect")
	}
	if EmptyRect().Intersects(r) || !EmptyRect().IsEmpty() {
		t.Error("empty rect behaviour wrong")
	}
	if got := r.Union(R(5, 5, 6, 6)); got != R(0, 0, 6, 6) {
		t.Errorf("Union = %v", got)
	}
	if got := EmptyRect().Union(r); got != r {
		t.Errorf("empty Union = %v", got)
	}
	if got := r.Intersection(R(2, 1, 10, 10)); got != R(2, 1, 4, 2) {
		t.Errorf("Intersection = %v", got)
	}
	if got := r.OverlapArea(R(2, 1, 10, 10)); got != 2 {
		t.Errorf("OverlapArea = %v", got)
	}
	if got := r.OverlapArea(R(10, 10, 20, 20)); got != 0 {
		t.Errorf("disjoint OverlapArea = %v", got)
	}
	if got := r.Expand(1); got != R(-1, -1, 5, 3) {
		t.Errorf("Expand = %v", got)
	}
	if !r.ContainsRect(R(1, 0, 2, 1)) || r.ContainsRect(R(1, 0, 5, 1)) {
		t.Error("ContainsRect wrong")
	}
}

func TestRectMinDist(t *testing.T) {
	r := R(0, 0, 4, 2)
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(2, 1), 0},   // inside
		{Pt(4, 2), 0},   // corner
		{Pt(7, 2), 3},   // right of
		{Pt(7, 6), 5},   // diagonal
		{Pt(2, -2), 2},  // below
		{Pt(-3, -4), 5}, // diagonal
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("MinDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := r.MinDistRect(R(7, 6, 9, 9)); math.Abs(got-5) > 1e-9 {
		t.Errorf("MinDistRect = %v, want 5", got)
	}
	if got := r.MinDistRect(R(2, 1, 3, 3)); got != 0 {
		t.Errorf("overlapping MinDistRect = %v, want 0", got)
	}
	if a, b := r.MaxDistRect(R(7, 6, 9, 9)), R(7, 6, 9, 9).MaxDistRect(r); a != math.Sqrt(9*9+9*9) || b != a {
		t.Errorf("MaxDistRect = %v and %v, want %v", a, b, math.Sqrt(9*9+9*9))
	}
	if got := r.MaxDistRect(R(1, 1, 2, 1.5)); got != math.Sqrt(3*3+1.5*1.5) {
		t.Errorf("MaxDistRect of a contained rectangle = %v, want %v", got, math.Sqrt(3*3+1.5*1.5))
	}
	if got := r.MaxDist(Pt(0, 0)); math.Abs(got-math.Sqrt(4*4+2*2)) > 1e-9 {
		t.Errorf("MaxDist = %v", got)
	}
	if !r.IntersectsCircle(Pt(6, 1), 2) || r.IntersectsCircle(Pt(6, 1), 1.9) {
		t.Error("IntersectsCircle wrong")
	}
}

// TestGapsWithinKeepsEveryRectWithinDist: GapsWithin never rejects a
// rectangle that MinDistRect puts within d, at distances equal to the
// rectangles' mindist and one ulp either side of it, for rectangles that
// overlap, touch along an edge or at a corner, or lie apart along one axis or
// both.
func TestGapsWithinKeepsEveryRectWithinDist(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coord := func() float64 { return float64(rng.Intn(9)) + []float64{0, 0.1, 1.0 / 3}[rng.Intn(3)] }
	rect := func() Rect {
		x, y := coord(), coord()
		return R(x, y, x+float64(rng.Intn(3))*coord()/2, y+float64(rng.Intn(3))*coord()/2)
	}
	for i := 0; i < 20000; i++ {
		r, s := rect(), rect()
		m := r.MinDistRect(s)
		for _, d := range []float64{m, math.Nextafter(m, 0), math.Nextafter(m, 10), 0, coord(), math.Inf(1)} {
			if !r.GapsWithin(s, d) && m <= d {
				t.Fatalf("%v GapsWithin(%v, %v) rejects a rectangle at %v", r, s, d, m)
			}
		}
	}
}

// TestRectDistancesMonotone: a rectangle's distances never fall when one of
// its gaps grows by an ulp. math.Hypot fails this at p, q below: Hypot(p, q)
// = 6.643615143341115 but Hypot(Nextafter(p, +Inf), q) = 6.643615143341114,
// so a node's mindist could exceed that of a point under it.
func TestRectDistancesMonotone(t *testing.T) {
	p, q := 6.563701921747622, 1.0273457330801274
	near, far := R(p, q, p, q), R(math.Nextafter(p, math.Inf(1)), q, 10, 10)
	o := Pt(0, 0)
	if a, b := near.MinDist(o), far.MinDist(o); a > b {
		t.Errorf("MinDist = %v at gap %v, %v at one ulp more", a, p, b)
	}
	if a, b := near.MinDistRect(PointRect(o)), far.MinDistRect(PointRect(o)); a > b {
		t.Errorf("MinDistRect = %v at gap %v, %v at one ulp more", a, p, b)
	}
	short, long := R(0, 0, p, q), R(0, 0, math.Nextafter(p, math.Inf(1)), q)
	if a, b := short.MaxDist(o), long.MaxDist(o); a > b {
		t.Errorf("MaxDist = %v at extent %v, %v at one ulp more", a, p, b)
	}
	if a, b := short.MaxDistRect(PointRect(o)), long.MaxDistRect(PointRect(o)); a > b {
		t.Errorf("MaxDistRect = %v at extent %v, %v at one ulp more", a, p, b)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		p, q := rng.Float64()*100, rng.Float64()*100
		if a, b := R(p, q, 200, 200).MinDist(o), R(math.Nextafter(p, 200), q, 200, 200).MinDist(o); a > b {
			t.Fatalf("MinDist falls from %v to %v when gap %v grows by an ulp (other gap %v)", a, b, p, q)
		}
	}
}

func TestRectOf(t *testing.T) {
	r := RectOf(Pt(3, 1), Pt(0, 5), Pt(2, 2))
	if r != R(0, 1, 3, 5) {
		t.Errorf("RectOf = %v", r)
	}
	if !RectOf().IsEmpty() {
		t.Error("RectOf() should be empty")
	}
}

func TestPolygonConstruction(t *testing.T) {
	if _, err := NewPolygon([]Point{Pt(0, 0), Pt(1, 1)}); err == nil {
		t.Error("want error for 2 vertices")
	}
	if _, err := NewPolygon([]Point{Pt(0, 0), Pt(0, 0), Pt(1, 1)}); err == nil {
		t.Error("want error for coincident vertices")
	}
	// Clockwise input must be normalized to CCW.
	pg := MustPolygon([]Point{Pt(0, 0), Pt(0, 2), Pt(2, 2), Pt(2, 0)})
	if signedArea(pg.Vertices()) <= 0 {
		t.Error("polygon not normalized to CCW")
	}
	if pg.NumVertices() != 4 {
		t.Errorf("NumVertices = %d", pg.NumVertices())
	}
	if pg.Area() != 4 {
		t.Errorf("Area = %v", pg.Area())
	}
	if pg.Bounds() != R(0, 0, 2, 2) {
		t.Errorf("Bounds = %v", pg.Bounds())
	}
}

func TestPolygonContains(t *testing.T) {
	// Concave "L" shape.
	pg := MustPolygon([]Point{
		Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4),
	})
	cases := []struct {
		p              Point
		closed, strict bool
	}{
		{Pt(1, 1), true, true},
		{Pt(3, 1), true, true},
		{Pt(1, 3), true, true},
		{Pt(3, 3), false, false}, // in the notch
		{Pt(0, 0), true, false},  // vertex
		{Pt(2, 3), true, false},  // on boundary
		{Pt(5, 5), false, false},
		{Pt(-1, 2), false, false},
	}
	for _, c := range cases {
		if got := pg.Contains(c.p); got != c.closed {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.closed)
		}
		if got := pg.ContainsStrict(c.p); got != c.strict {
			t.Errorf("ContainsStrict(%v) = %v, want %v", c.p, got, c.strict)
		}
	}
}

func TestPolygonOnBoundary(t *testing.T) {
	pg := RectPolygon(R(0, 0, 2, 2))
	if !pg.OnBoundary(Pt(1, 0)) || !pg.OnBoundary(Pt(2, 2)) || pg.OnBoundary(Pt(1, 1)) {
		t.Error("OnBoundary wrong")
	}
}

func TestBlocksSegment(t *testing.T) {
	pg := RectPolygon(R(2, 2, 4, 4))
	cases := []struct {
		name string
		a, b Point
		want bool
	}{
		{"through middle", Pt(0, 3), Pt(6, 3), true},
		{"entirely outside", Pt(0, 0), Pt(6, 0), false},
		{"slide along edge", Pt(2, 0), Pt(2, 6), false},
		{"graze corner", Pt(0, 0), Pt(6, 6), true}, // diagonal of the rect's diagonal passes interior
		{"touch corner only", Pt(0, 4), Pt(4, 8), false},
		{"corner to corner outside", Pt(2, 4), Pt(0, 6), false},
		{"endpoint on boundary going out", Pt(2, 3), Pt(0, 3), false},
		{"endpoint on boundary going in", Pt(2, 3), Pt(4, 3), true},
		{"both endpoints on boundary through interior", Pt(2, 3), Pt(4, 3), true},
		{"both endpoints on same edge", Pt(2, 2.5), Pt(2, 3.5), false},
		{"chord between adjacent edges", Pt(3, 2), Pt(2, 3), true},
		{"degenerate point inside", Pt(3, 3), Pt(3, 3), true},
		{"degenerate point outside", Pt(1, 1), Pt(1, 1), false},
		{"stops at boundary", Pt(0, 3), Pt(2, 3), false},
		{"graze top-left corner", Pt(1, 3), Pt(3, 5), false}, // passes exactly through (2,4)
		{"clip corner region", Pt(1, 2), Pt(4, 5), true},     // enters left edge, exits top edge
	}
	for _, c := range cases {
		if got := pg.BlocksSegment(c.a, c.b); got != c.want {
			t.Errorf("%s: BlocksSegment(%v,%v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
		// Symmetry.
		if got := pg.BlocksSegment(c.b, c.a); got != c.want {
			t.Errorf("%s (reversed): BlocksSegment = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBlocksSegmentConcave(t *testing.T) {
	// U-shaped polygon opening upward.
	pg := MustPolygon([]Point{
		Pt(0, 0), Pt(6, 0), Pt(6, 6), Pt(4, 6), Pt(4, 2), Pt(2, 2), Pt(2, 6), Pt(0, 6),
	})
	if pg.BlocksSegment(Pt(3, 3), Pt(3, 5)) {
		t.Error("segment inside the U cavity should not be blocked")
	}
	if !pg.BlocksSegment(Pt(-1, 1), Pt(7, 1)) {
		t.Error("segment through the U base should be blocked")
	}
	if !pg.BlocksSegment(Pt(1, 4), Pt(5, 4)) {
		t.Error("segment crossing both arms should be blocked")
	}
	if pg.BlocksSegment(Pt(-1, 7), Pt(7, 7)) {
		t.Error("segment above the U should not be blocked")
	}
	// Enters cavity from above: not blocked.
	if pg.BlocksSegment(Pt(3, 7), Pt(3, 3)) {
		t.Error("segment descending into cavity should not be blocked")
	}
}

func TestIntersectsRect(t *testing.T) {
	pg := MustPolygon([]Point{Pt(0, 0), Pt(4, 0), Pt(2, 4)}) // triangle
	cases := []struct {
		r    Rect
		want bool
	}{
		{R(1, 1, 3, 2), true},   // inside
		{R(-2, -2, 6, 6), true}, // contains polygon
		{R(3, 3, 5, 5), false},  // near the slanted edge but outside
		{R(-1, -1, 0, 0), true}, // corner touch at (0,0)
		{R(10, 10, 11, 11), false},
		{R(1.5, 3.0, 2.5, 5), true}, // pokes through the apex region
	}
	for i, c := range cases {
		if got := pg.IntersectsRect(c.r); got != c.want {
			t.Errorf("case %d: IntersectsRect(%v) = %v, want %v", i, c.r, got, c.want)
		}
	}
}

func TestIntersectsCircle(t *testing.T) {
	pg := RectPolygon(R(0, 0, 2, 2))
	if !pg.IntersectsCircle(Pt(4, 1), 2) {
		t.Error("circle touching edge should intersect")
	}
	if pg.IntersectsCircle(Pt(4.1, 1), 2) {
		t.Error("circle short of edge should not intersect")
	}
	if !pg.IntersectsCircle(Pt(1, 1), 0.5) {
		t.Error("circle inside polygon should intersect")
	}
	if !pg.IntersectsCircle(Pt(1, 1), 100) {
		t.Error("polygon inside circle should intersect")
	}
}

// liangBarskyBlocked is an independent oracle for rectangles: the open
// segment ab crosses the interior of r iff the clipped parameter interval
// has positive length and its midpoint is strictly inside.
func liangBarskyBlocked(r Rect, a, b Point) bool {
	dx, dy := b.X-a.X, b.Y-a.Y
	t0, t1 := 0.0, 1.0
	clip := func(p, q float64) bool {
		if math.Abs(p) < 1e-15 {
			return q >= 0
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return true
	}
	if !clip(-dx, a.X-r.MinX) || !clip(dx, r.MaxX-a.X) ||
		!clip(-dy, a.Y-r.MinY) || !clip(dy, r.MaxY-a.Y) {
		return false
	}
	if t1-t0 <= 1e-9 {
		return false
	}
	m := Pt(a.X+(t0+t1)/2*dx, a.Y+(t0+t1)/2*dy)
	return r.ContainsStrict(m)
}

func TestBlocksSegmentMatchesLiangBarsky(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		w, h := rng.Float64()*20+0.5, rng.Float64()*20+0.5
		r := R(x, y, x+w, y+h)
		pg := RectPolygon(r)
		a := Pt(rng.Float64()*140-20, rng.Float64()*140-20)
		b := Pt(rng.Float64()*140-20, rng.Float64()*140-20)
		want := liangBarskyBlocked(r, a, b)
		if got := pg.BlocksSegment(a, b); got != want {
			t.Fatalf("iter %d: BlocksSegment(%v, %v; rect %v) = %v, oracle %v",
				i, a, b, r, got, want)
		}
	}
}

func TestQuickRectProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	// Union contains both inputs; MinDist <= MaxDist; Intersection symmetric.
	prop := func(ax, ay, bx, by, cx, cy, dx, dy, px, py float64) bool {
		r1 := RectOf(Pt(ax, ay), Pt(bx, by))
		r2 := RectOf(Pt(cx, cy), Pt(dx, dy))
		u := r1.Union(r2)
		if !u.ContainsRect(r1) || !u.ContainsRect(r2) {
			return false
		}
		p := Pt(px, py)
		if r1.MinDist(p) > r1.MaxDist(p)+Eps {
			return false
		}
		if r1.Intersects(r2) != r2.Intersects(r1) {
			return false
		}
		if r1.Intersects(r2) && r1.MinDistRect(r2) > Eps {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
