package geom

import (
	"math"
	"math/rand"
	"testing"
)

// generalTwin returns pg with its rectangle tag cleared, so BlocksSegment
// takes the general clip path on the same vertices.
func generalTwin(pg Polygon) Polygon {
	pg.rect = false
	return pg
}

// checkRectMatchesGeneral compares the rectangle paths of BlocksSegment and
// ContainsStrict with the general ones on one rectangle and one segment, in
// both directions.
func checkRectMatchesGeneral(t *testing.T, r Rect, a, b Point) {
	t.Helper()
	pg := RectPolygon(r)
	if !pg.rect {
		t.Fatalf("RectPolygon(%v) is not tagged", r)
	}
	gen := generalTwin(pg)
	for _, p := range [3]Point{a, b, Seg(a, b).Midpoint()} {
		if got, want := pg.ContainsStrict(p), gen.ContainsStrict(p); got != want {
			t.Fatalf("rect %v point %v: strictly inside %v by the rectangle shortcut, %v in general", r, p, got, want)
		}
	}
	for _, s := range [2]Segment{{a, b}, {b, a}} {
		if got, want := pg.BlocksSegment(s.A, s.B), gen.BlocksSegment(s.A, s.B); got != want {
			t.Fatalf("rect %v segment %v-%v: slab clip %v, general clip %v", r, s.A, s.B, got, want)
		}
	}
}

// rectProbe returns a point related to r in a way street data produces: a
// corner, a point on an edge, a point inside, a point on the line through an
// edge but past its end, or a free point nearby.
func rectProbe(rng *rand.Rand, r Rect) Point {
	xs := [2]float64{r.MinX, r.MaxX}
	ys := [2]float64{r.MinY, r.MaxY}
	u, v := rng.Float64(), rng.Float64()
	switch rng.Intn(6) {
	case 0:
		return Pt(xs[rng.Intn(2)], ys[rng.Intn(2)])
	case 1:
		return Pt(r.MinX+u*r.Width(), ys[rng.Intn(2)])
	case 2:
		return Pt(xs[rng.Intn(2)], r.MinY+v*r.Height())
	case 3:
		return Pt(r.MinX+u*r.Width(), r.MinY+v*r.Height())
	case 4:
		if rng.Intn(2) == 0 {
			return Pt(r.MinX+(3*u-1)*r.Width(), ys[rng.Intn(2)])
		}
		return Pt(xs[rng.Intn(2)], r.MinY+(3*v-1)*r.Height())
	default:
		return Pt(r.MinX+(3*u-1)*r.Width(), r.MinY+(3*v-1)*r.Height())
	}
}

func TestRectBlocksSegmentMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Random floats: arbitrary rectangles, free endpoints.
	for i := 0; i < 200000; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		r := R(x, y, x+rng.Float64()*20+0.01, y+rng.Float64()*20+0.01)
		a := Pt(rng.Float64()*140-20, rng.Float64()*140-20)
		b := Pt(rng.Float64()*140-20, rng.Float64()*140-20)
		checkRectMatchesGeneral(t, r, a, b)
	}
	// Integer lattice: endpoints land on corners, on edges, on the lines
	// through edges and inside; axis-parallel and diagonal segments abound.
	for i := 0; i < 200000; i++ {
		x, y := float64(rng.Intn(8)), float64(rng.Intn(8))
		r := R(x, y, x+float64(1+rng.Intn(4)), y+float64(1+rng.Intn(4)))
		a := Pt(float64(rng.Intn(14)-1), float64(rng.Intn(14)-1))
		b := Pt(float64(rng.Intn(14)-1), float64(rng.Intn(14)-1))
		checkRectMatchesGeneral(t, r, a, b)
	}
	// Endpoints on corners, on edges, inside and sliding along edge lines, on
	// rectangles at street scale and at universe scale.
	for i := 0; i < 200000; i++ {
		scale := []float64{1, 100, 10000}[rng.Intn(3)]
		x, y := rng.Float64()*scale, rng.Float64()*scale
		r := R(x, y, x+(rng.Float64()+0.001)*scale/10, y+(rng.Float64()+0.001)*scale/10)
		a, b := rectProbe(rng, r), rectProbe(rng, r)
		checkRectMatchesGeneral(t, r, a, b)
		checkRectMatchesGeneral(t, r, a, a) // zero length
	}
}

// FuzzRectBlocksSegment is the open-ended form of
// TestRectBlocksSegmentMatchesGeneral: snap selects, per endpoint, whether it
// is used as given or moved onto a corner or an edge of the rectangle.
func FuzzRectBlocksSegment(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 2.0, -1.0, 1.0, 5.0, 1.0, uint8(0))
	f.Add(0.0, 0.0, 4.0, 2.0, 0.0, 0.0, 4.0, 2.0, uint8(0))
	f.Add(10.0, 10.0, 1.0, 30.0, 10.0, 5.0, 10.0, 50.0, uint8(0))
	f.Add(3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 9.0, 9.0, uint8(0x12))
	f.Add(3.0, 3.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0, uint8(0x21))
	f.Fuzz(func(t *testing.T, x, y, w, h, ax, ay, bx, by float64, snap uint8) {
		for _, v := range [8]float64{x, y, w, h, ax, ay, bx, by} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		if w <= 0 || h <= 0 {
			t.Skip()
		}
		r := R(x, y, x+w, y+h)
		place := func(p Point, how uint8) Point {
			switch how % 4 {
			case 1: // nearest corner
				if p.X-r.MinX < r.MaxX-p.X {
					p.X = r.MinX
				} else {
					p.X = r.MaxX
				}
				if p.Y-r.MinY < r.MaxY-p.Y {
					p.Y = r.MinY
				} else {
					p.Y = r.MaxY
				}
			case 2: // onto the line through the bottom edge
				p.Y = r.MinY
			case 3: // onto the line through the right edge
				p.X = r.MaxX
			}
			return p
		}
		checkRectMatchesGeneral(t, r, place(Pt(ax, ay), snap), place(Pt(bx, by), snap>>4))
	})
}

// TestNewPolygonTagsRectangles checks that exactly the axis-aligned
// four-corner inputs are recognised, in either orientation and from any
// starting corner, and that vertex order is left as NewPolygon normalises it.
func TestNewPolygonTagsRectangles(t *testing.T) {
	corners := R(2, 3, 7, 5).Vertices()
	for start := 0; start < 4; start++ {
		for _, step := range []int{1, 3} { // counter-clockwise, clockwise
			var v []Point
			for i := 0; i < 4; i++ {
				v = append(v, corners[(start+i*step)%4])
			}
			pg := MustPolygon(v)
			if !pg.rect {
				t.Errorf("start %d step %d: rectangle %v not tagged", start, step, v)
			}
			if pg.Bounds() != R(2, 3, 7, 5) {
				t.Errorf("start %d step %d: bounds %v", start, step, pg.Bounds())
			}
		}
	}
	for name, v := range map[string][]Point{
		"triangle":       {Pt(0, 0), Pt(4, 0), Pt(0, 3)},
		"rotated square": {Pt(1, 0), Pt(2, 1), Pt(1, 2), Pt(0, 1)},
		"trapezoid":      {Pt(0, 0), Pt(4, 0), Pt(3, 2), Pt(0, 2)},
		"bow tie":        {Pt(0, 0), Pt(4, 2), Pt(4, 0), Pt(0, 2)},
		"L shape":        {Pt(0, 0), Pt(4, 0), Pt(4, 1), Pt(1, 1), Pt(1, 3), Pt(0, 3)},
		"edge midpoint":  {Pt(0, 0), Pt(2, 0), Pt(4, 0), Pt(4, 2), Pt(0, 2)},
		"folded":         {Pt(0, 0), Pt(4, 0), Pt(0, 0.5), Pt(0, 2)},
	} {
		if pg, err := NewPolygon(v); err == nil && pg.rect {
			t.Errorf("%s %v tagged as a rectangle", name, v)
		}
	}
}

func TestBlocksSegmentAllocatesNothing(t *testing.T) {
	rect := RectPolygon(R(10, 10, 30, 14))
	var ring []Point
	for i := 0; i < 12; i++ {
		th := 2 * math.Pi * float64(i) / 12
		ring = append(ring, Pt(20+8*math.Cos(th), 12+8*math.Sin(th)))
	}
	gon := MustPolygon(ring)
	if gon.rect {
		t.Fatal("12-gon tagged as a rectangle")
	}
	segs := [][2]Point{
		{Pt(0, 12), Pt(40, 12)},  // through
		{Pt(0, 0), Pt(40, 1)},    // misses
		{Pt(10, 10), Pt(30, 14)}, // corner to corner of the rectangle
		{Pt(12, 12), Pt(28, 13)}, // inside both
	}
	for name, pg := range map[string]Polygon{"rectangle": rect, "12-gon": gon} {
		sink := false
		allocs := testing.AllocsPerRun(100, func() {
			for _, s := range segs {
				sink = pg.BlocksSegment(s[0], s[1]) || sink
			}
		})
		if allocs != 0 {
			t.Errorf("BlocksSegment on a %s allocates %v times per run", name, allocs)
		}
		if !sink {
			t.Errorf("no segment blocked by the %s", name)
		}
	}
}
