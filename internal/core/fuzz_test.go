package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// Scene kinds of FuzzVerbsMatchOracle.
const (
	sceneRandom  = iota // disjoint random rectangles (newScene)
	sceneLattice        // integer-lattice street blocks sharing edges and corners
	sceneSealed         // random rectangles around courtyards walled in by overlapping rectangles
	sceneGraze          // lattice blocks, points on lines that graze their corners and run along their sides
	sceneDetour         // a wall, its twin, and blocks on the ways round (detourScene)
	sceneKinds
)

// latticeScene lays street blocks on a 10-unit integer grid of a 100-unit
// world: a block spans 4, 7 or all 10 units of its cell in each axis, so
// neighbouring full blocks share an edge and diagonal ones a corner — the
// collinear, touching input street MBR data is made of.
func latticeScene(t *testing.T, rng *rand.Rand) *scene {
	spans := [3]float64{4, 7, 10}
	var rects []geom.Rect
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if rng.Intn(4) != 0 {
				continue
			}
			x, y := float64(10*i), float64(10*j)
			rects = append(rects, geom.R(x, y, x+spans[rng.Intn(3)], y+spans[rng.Intn(3)]))
		}
	}
	return sceneOf(t, rects)
}

// grazeScene is a lattice scene whose points lie mostly on a few lines: the
// diagonal through a block's corner, which touches the block there only,
// and the line of a block's side, beyond both ends. Two points on one line
// see each other along a segment that grazes the corner or runs along the
// side, which no obstacle blocks.
func grazeScene(t *testing.T, rng *rand.Rand) *scene {
	s := latticeScene(t, rng)
	for _, r := range s.rects[:min(4, len(s.rects))] {
		for _, k := range []float64{1, 2, 3} {
			for _, p := range []geom.Point{
				geom.Pt(r.MinX-k, r.MinY+k), geom.Pt(r.MinX+k, r.MinY-k),
				geom.Pt(r.MinX-k, r.MinY), geom.Pt(r.MaxX+k, r.MinY),
			} {
				if !s.buried(p) {
					s.graze = append(s.graze, p)
				}
			}
		}
	}
	return s
}

// detourScene puts a wall and its twin further along a street among a few
// random rectangles, with points on both sides, so that most targets are
// blocked by one wall or both and decided by a detour (field.decide) or
// sent on to a graph. The two ways round a wall tie for a point level with
// its middle, and the detours around the two walls tie for a pair placed
// symmetrically about the street between them; the detour around one wall
// alone is blocked by the other for a pair across both. A block has its
// corner on the leg from one point to the wall's corner, which it grazes,
// and a stone sits on the leg down from the wall's far corner.
func detourScene(t *testing.T, rng *rand.Rand) *scene {
	x, y := float64(20+rng.Intn(20)), float64(20+rng.Intn(20))
	w, h := float64(4+rng.Intn(10)), float64(12+2*rng.Intn(8))
	gap, k := float64(6+rng.Intn(10)), float64(2+rng.Intn(4))
	twinX := x + w + gap
	rects := []geom.Rect{
		geom.R(x, y, x+w, y+h),
		geom.R(twinX, y, twinX+w, y+h),
		// The leg from (x-2k, y+h-2k) to the wall's corner (x, y+h) touches
		// this block at its corner (x-k, y+h-k) only.
		geom.R(x-k, y+h-k-float64(1+rng.Intn(3)), x-k+float64(1+rng.Intn(int(k))), y+h-k),
		geom.R(x+w+1, y+h-1, x+w+3, y+h+2),
	}
	for attempts := 0; attempts < 100 && len(rects) < 8; attempts++ {
		x, y := float64(rng.Intn(95)), float64(rng.Intn(95))
		r := geom.R(x, y, x+float64(1+rng.Intn(6)), y+float64(1+rng.Intn(6)))
		ok := true
		for _, o := range rects {
			ok = ok && !o.Expand(2).Intersects(r)
		}
		if ok {
			rects = append(rects, r)
		}
	}
	s := sceneOf(t, rects)
	for _, p := range []geom.Point{
		geom.Pt(x-2*k, y+h-2*k), geom.Pt(x-k, y+h/2), geom.Pt(x+w+gap/2, y+h-2*k),
		geom.Pt(twinX+w+k, y+h/2), geom.Pt(twinX+w+2*k, y+h-2*k),
		geom.Pt(x+w/2, y-k), geom.Pt(x+w/2, y+h+k),
	} {
		if !s.buried(p) {
			s.graze = append(s.graze, p)
		}
	}
	return s
}

// buried reports whether p lies strictly inside one of the scene's obstacles.
func (s *scene) buried(p geom.Point) bool {
	for _, r := range s.rects {
		if r.ContainsStrict(p) {
			return true
		}
	}
	return false
}

// sealedScene puts one or two courtyards — four walls overlapping at the
// corners, so the inside is cut off — among random rectangles that keep clear
// of them. freePoint lands inside a courtyard about as often as its area
// share, and on its walls (inside and outside faces) as often as on any other
// obstacle.
func sealedScene(t *testing.T, rng *rand.Rand) *scene {
	var rects []geom.Rect
	var yards []geom.Rect
	for n := 1 + rng.Intn(2); len(yards) < n; {
		x, y := 5+rng.Float64()*60, 5+rng.Float64()*60
		yard := geom.R(x, y, x+14+rng.Float64()*16, y+14+rng.Float64()*16)
		if len(yards) == 1 && yards[0].Expand(1).Intersects(yard) {
			continue
		}
		yards = append(yards, yard)
		const w = 3 // wall thickness
		rects = append(rects,
			geom.R(yard.MinX, yard.MinY, yard.MaxX, yard.MinY+w),
			geom.R(yard.MinX, yard.MaxY-w, yard.MaxX, yard.MaxY),
			geom.R(yard.MinX, yard.MinY, yard.MinX+w, yard.MaxY),
			geom.R(yard.MaxX-w, yard.MinY, yard.MaxX, yard.MaxY))
	}
	for attempts, want := 0, len(rects)+3+rng.Intn(6); len(rects) < want && attempts < 2000; attempts++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		r := geom.R(x, y, x+rng.Float64()*12+0.5, y+rng.Float64()*12+0.5)
		ok := true
		for _, o := range append(yards, rects...) {
			if o.Expand(1e-6).Intersects(r) {
				ok = false
				break
			}
		}
		if ok {
			rects = append(rects, r)
		}
	}
	return sceneOf(t, rects)
}

// FuzzVerbsMatchOracle runs every verb that reports an obstructed distance
// against the brute-force oracle (scene.bruteDist: one naive visibility graph
// over all obstacles), on the three scene kinds. It is the paper's
// correctness claim — Euclidean filtering and local graphs lose no answer and
// change no distance — as a fuzz target. The detour scene sends most targets
// to field.decide's second certificate, and Range at exactly a result's
// distance and one ulp either side then puts a bound at a detour's length.
func FuzzVerbsMatchOracle(f *testing.F) {
	// The fixed seeds of the five Test...MatchesOracle tests.
	for _, seed := range []int64{31, 32, 33, 36, 38} {
		for kind := uint8(0); kind < sceneKinds; kind++ {
			f.Add(seed, kind)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, sceneKind uint8) {
		rng := rand.New(rand.NewSource(seed))
		var s *scene
		switch sceneKind % sceneKinds {
		case sceneRandom:
			s = newScene(t, rng, 4+rng.Intn(10), 100)
		case sceneLattice:
			s = latticeScene(t, rng)
		case sceneSealed:
			s = sealedScene(t, rng)
		case sceneGraze:
			s = grazeScene(t, rng)
		case sceneDetour:
			s = detourScene(t, rng)
		}
		eng := NewEngine(s.obst, DefaultEngineOptions())
		P, pts := s.entities(t, rng, 24, 100)
		S, spts := s.entities(t, rng, 7, 100)
		T, tpts := s.entities(t, rng, 6, 100)
		q := s.freePoint(rng, 100)
		radius := 10 + rng.Float64()*40
		k := 1 + rng.Intn(8)

		fromQ := make([]float64, len(pts))
		for i, p := range pts {
			fromQ[i] = s.bruteDist(q, p)
		}
		ranked := append([]float64(nil), fromQ...)
		sort.Float64s(ranked)
		var pairs []float64
		pairDist := make(map[[2]int64]float64)
		for i, sp := range spts {
			for j, tp := range tpts {
				d := s.bruteDist(sp, tp)
				pairs = append(pairs, d)
				pairDist[[2]int64{int64(i), int64(j)}] = d
			}
		}
		sort.Float64s(pairs)

		// Range: exactly the entities within radius (an entity the oracle puts
		// within distTol of the rim may fall either side).
		res, st, err := bg(eng).Range(P, q, radius)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[int64]bool, len(res))
		for _, r := range res {
			got[r.ID] = true
			if !sameDist(r.Dist, fromQ[r.ID]) || r.Dist > radius {
				t.Fatalf("Range(q=%v, r=%v): entity %d at %v, oracle %v", q, radius, r.ID, r.Dist, fromQ[r.ID])
			}
		}
		for i, d := range fromQ {
			if d <= radius-distTol && !got[int64(i)] {
				t.Fatalf("Range(q=%v, r=%v) misses entity %d at oracle distance %v", q, radius, i, d)
			}
		}
		if st.FalseHits != st.Candidates-st.Results {
			t.Fatalf("Range stats inconsistent: %+v", st)
		}
		// Range again at exactly a result's distance, and one ulp either
		// side: the bounded search keeps it, at the same distance, at and
		// above that radius, and drops it below (a radius below 0 is none).
		if len(res) > 0 {
			if r := res[rng.Intn(len(res))]; r.Dist > 0 {
				for i, bound := range []float64{math.Nextafter(r.Dist, 0), r.Dist, math.Nextafter(r.Dist, math.Inf(1))} {
					again, _, err := bg(eng).Range(P, q, bound)
					if err != nil {
						t.Fatal(err)
					}
					found := false
					for _, a := range again {
						found = found || a.ID == r.ID && a.Dist == r.Dist
					}
					if found != (i > 0) {
						t.Fatalf("Range(q=%v, r=%v): entity %d at %v found %v", q, bound, r.ID, r.Dist, found)
					}
				}
			}
		}

		// NearestNeighbors: the k smallest distances, rank by rank.
		nn, _, err := bg(eng).NearestNeighbors(P, q, k)
		if err != nil {
			t.Fatal(err)
		}
		buriedQ, err := bg(eng).InsideObstacle(q)
		if err != nil {
			t.Fatal(err)
		}
		if buriedQ {
			if len(nn) != 0 {
				t.Fatalf("NearestNeighbors from buried q=%v returned %v", q, nn)
			}
		} else {
			if len(nn) != k {
				t.Fatalf("NearestNeighbors(q=%v, k=%d): %d results", q, k, len(nn))
			}
			for i, r := range nn {
				if !sameDist(r.Dist, ranked[i]) || !sameDist(r.Dist, fromQ[r.ID]) {
					t.Fatalf("NearestNeighbors(q=%v, k=%d) rank %d: entity %d at %v, oracle rank %v, entity %v", q, k, i, r.ID, r.Dist, ranked[i], fromQ[r.ID])
				}
			}
		}

		// NearestIterator: every entity once, ascending, same ranks; nothing
		// from a buried q.
		it := bg(eng).NearestIterator(P, q)
		if buriedQ {
			ranked = nil
		}
		for i := range ranked {
			r, ok := it.Next()
			if !ok {
				t.Fatalf("NearestIterator(q=%v) ended after %d of %d: %v", q, i, len(ranked), it.Err())
			}
			if !sameDist(r.Dist, ranked[i]) || !sameDist(r.Dist, fromQ[r.ID]) {
				t.Fatalf("NearestIterator(q=%v) rank %d: entity %d at %v, oracle rank %v, entity %v", q, i, r.ID, r.Dist, ranked[i], fromQ[r.ID])
			}
		}
		if r, ok := it.Next(); ok || it.Err() != nil {
			t.Fatalf("NearestIterator(q=%v) did not end cleanly: %v %v", q, r, it.Err())
		}

		// DistanceJoin: exactly the pairs within e.
		e := 8 + rng.Float64()*25
		join, _, err := bg(eng).DistanceJoin(S, T, e)
		if err != nil {
			t.Fatal(err)
		}
		joined := make(map[[2]int64]bool, len(join))
		for _, pr := range join {
			key := [2]int64{pr.SID, pr.TID}
			joined[key] = true
			if !sameDist(pr.Dist, pairDist[key]) || pr.Dist > e {
				t.Fatalf("DistanceJoin(e=%v): pair %v at %v, oracle %v", e, key, pr.Dist, pairDist[key])
			}
		}
		for key, d := range pairDist {
			if d <= e-distTol && !joined[key] {
				t.Fatalf("DistanceJoin(e=%v) misses pair %v at oracle distance %v", e, key, d)
			}
		}

		// ClosestPairs and its iterator: the smallest pair distances in order.
		cp, _, err := bg(eng).ClosestPairs(S, T, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(cp) != k {
			t.Fatalf("ClosestPairs(k=%d): %d pairs", k, len(cp))
		}
		for i, pr := range cp {
			if !sameDist(pr.Dist, pairs[i]) || !sameDist(pr.Dist, pairDist[[2]int64{pr.SID, pr.TID}]) {
				t.Fatalf("ClosestPairs(k=%d) rank %d: %+v, oracle rank %v", k, i, pr, pairs[i])
			}
		}
		cit, err := bg(eng).ClosestPairIterator(S, T)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pairs {
			pr, ok := cit.Next()
			if !ok {
				t.Fatalf("ClosestPairIterator ended after %d of %d: %v", i, len(pairs), cit.Err())
			}
			if !sameDist(pr.Dist, pairs[i]) || !sameDist(pr.Dist, pairDist[[2]int64{pr.SID, pr.TID}]) {
				t.Fatalf("ClosestPairIterator rank %d: %+v, oracle rank %v", i, pr, pairs[i])
			}
		}
		if pr, ok := cit.Next(); ok || cit.Err() != nil {
			t.Fatalf("ClosestPairIterator did not end cleanly: %v %v", pr, cit.Err())
		}

		// BatchDistances: every target, in order; then a duplicate target and
		// the source itself, which is at distance 0 unless it is buried.
		batch, _, err := bg(eng).BatchDistances(q, append(pts[:len(pts):len(pts)], pts[0], q))
		if err != nil {
			t.Fatal(err)
		}
		self := 0.0
		if buriedQ {
			self = math.Inf(1)
		}
		for i, want := range append(fromQ[:len(pts):len(pts)], fromQ[0], self) {
			if !sameDist(batch[i], want) {
				t.Fatalf("BatchDistances(q=%v)[%d] = %v, oracle %v", q, i, batch[i], want)
			}
		}

		// ObstructedPath: the oracle's length over legs the oracle can see.
		for i := 0; i < 3; i++ {
			b := pts[rng.Intn(len(pts))]
			path, d, _, err := bg(eng).ObstructedPath(q, b)
			if err != nil {
				t.Fatal(err)
			}
			want := s.bruteDist(q, b)
			if !sameDist(d, want) || (path == nil) != math.IsInf(want, 1) {
				t.Fatalf("ObstructedPath(%v, %v) = %v, %v; oracle %v", q, b, path, d, want)
			}
			if path == nil {
				continue
			}
			sum := 0.0
			for j := 1; j < len(path); j++ {
				sum += path[j-1].Dist(path[j])
				if !s.oracle.Visible(path[j-1], path[j]) {
					t.Fatalf("ObstructedPath(%v, %v): leg %v-%v crosses an obstacle", q, b, path[j-1], path[j])
				}
			}
			if path[0] != q || path[len(path)-1] != b || math.Abs(sum-d) > distTol {
				t.Fatalf("ObstructedPath(%v, %v) = %v: legs sum to %v, length %v", q, b, path, sum, d)
			}
		}

		// ObstructedDistance: three pairs from q and three from different
		// sources.
		for i := 0; i < 3; i++ {
			j := rng.Intn(len(pts))
			d, _, err := bg(eng).ObstructedDistance(q, pts[j])
			if err != nil {
				t.Fatal(err)
			}
			if !sameDist(d, fromQ[j]) {
				t.Fatalf("ObstructedDistance(%v, %v) = %v, oracle %v", q, pts[j], d, fromQ[j])
			}
		}
		for i := 0; i < 3; i++ {
			a, b := spts[rng.Intn(len(spts))], pts[rng.Intn(len(pts))]
			d, _, err := bg(eng).ObstructedDistance(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := s.bruteDist(a, b); !sameDist(d, want) {
				t.Fatalf("ObstructedDistance(%v, %v) = %v, oracle %v", a, b, d, want)
			}
		}

		// DistanceMatrix: the entities, a duplicate of the first, and twice a
		// point strictly inside an obstacle, which reaches nothing, not even
		// itself. The matrix is symmetric and 0 on the diagonal.
		buried := s.rects[0].Center()
		mpts := append(pts[:len(pts):len(pts)], pts[0], buried, buried)
		m, _, err := bg(eng).DistanceMatrix(mpts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mpts {
			for j := i; j < len(mpts); j++ {
				var want float64
				switch {
				case i == j:
				case mpts[i] == buried || mpts[j] == buried:
					want = math.Inf(1)
				default:
					want = s.bruteDist(mpts[i], mpts[j])
				}
				if !sameDist(m[i][j], want) || m[j][i] != m[i][j] {
					t.Fatalf("DistanceMatrix[%d][%d] (%v to %v) = %v, oracle %v", i, j, mpts[i], mpts[j], m[i][j], want)
				}
			}
		}
	})
}
