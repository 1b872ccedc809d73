package visgraph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// TestAddObstaclesBatchMatchesSequential: folding a batch of obstacles into
// a graph must produce the same distances as adding them one by one and the
// same as a fresh batch build.
func TestAddObstaclesBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		rects := disjointRects(rng, 10, 100)
		split := 4
		mk := func() (*Graph, []Obstacle, []Obstacle) {
			var first, second []Obstacle
			for i, r := range rects {
				ob := rectObstacle(int64(i), r)
				if i < split {
					first = append(first, ob)
				} else {
					second = append(second, ob)
				}
			}
			return Build(Options{UseSweep: true}, first), first, second
		}
		a := freePoint(rng, rects, 100)
		b := freePoint(rng, rects, 100)

		gBatch, _, second := mk()
		na := gBatch.AddTerminal(a)
		nb := gBatch.AddTerminal(b)
		if got := gBatch.AddObstacles(second); got != len(second) {
			t.Fatalf("AddObstacles added %d, want %d", got, len(second))
		}
		dBatch := gBatch.ObstructedDist(na, nb)

		gSeq, _, second2 := mk()
		na2 := gSeq.AddTerminal(a)
		nb2 := gSeq.AddTerminal(b)
		for _, ob := range second2 {
			if gSeq.AddObstacles([]Obstacle{ob}) != 1 {
				t.Fatal("sequential AddObstacles rejected fresh obstacle")
			}
		}
		dSeq := gSeq.ObstructedDist(na2, nb2)

		gFresh := buildWith(true, rects)
		dFresh := gFresh.ObstructedDist(gFresh.AddTerminal(a), gFresh.AddTerminal(b))

		if !distEq(dBatch, dSeq) || !distEq(dBatch, dFresh) {
			t.Fatalf("trial %d: batch=%v seq=%v fresh=%v", trial, dBatch, dSeq, dFresh)
		}
		// Duplicate batch entries are ignored.
		if got := gBatch.AddObstacles(second); got != 0 {
			t.Fatalf("re-adding batch added %d", got)
		}
	}
}

func distEq(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= 1e-6
}

// TestSweepOnStreetMapWorld runs the sweep-vs-naive distance property on the
// actual evaluation generator output: thin axis-aligned street segments with
// boundary entities, the configuration the experiments use.
func TestSweepOnStreetMapWorld(t *testing.T) {
	world := dataset.Generate(dataset.DefaultConfig(77, 120))
	obs := make([]Obstacle, len(world.Polys))
	for i, pg := range world.Polys {
		obs[i] = Obstacle{ID: int64(i), Poly: pg}
	}
	gn := Build(Options{UseSweep: false}, obs)
	gs := Build(Options{UseSweep: true}, obs)
	rng := world.EntityRand(1)
	pts := world.Entities(rng, 12)
	var nn, ns []NodeID
	for _, p := range pts {
		nn = append(nn, gn.AddTerminal(p))
		ns = append(ns, gs.AddTerminal(p))
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			dn := gn.ObstructedDist(nn[i], nn[j])
			ds := gs.ObstructedDist(ns[i], ns[j])
			if !distEq(dn, ds) {
				t.Fatalf("street world dist %d-%d: naive=%v sweep=%v (%v %v)",
					i, j, dn, ds, pts[i], pts[j])
			}
			// Lower bound holds too.
			if ds < pts[i].Dist(pts[j])-1e-9 {
				t.Fatalf("dO < dE for %v-%v", pts[i], pts[j])
			}
		}
	}
}

// TestGraphCountersConsistent: node/edge counters must survive a workout of
// additions and deletions.
func TestGraphCountersConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	rects := disjointRects(rng, 8, 100)
	g := buildWith(true, rects)
	materialise(g)
	baseNodes, baseEdges := g.NumNodes(), g.NumEdges()
	if baseNodes != 4*len(rects) {
		t.Fatalf("vertex nodes = %d, want %d", baseNodes, 4*len(rects))
	}
	var ids []NodeID
	for i := 0; i < 20; i++ {
		ids = append(ids, g.AddEntity(freePoint(rng, rects, 100)))
	}
	for _, id := range ids {
		g.DeleteEntity(id)
	}
	if g.NumNodes() != baseNodes || g.NumEdges() != baseEdges {
		t.Fatalf("counters drifted: nodes %d->%d edges %d->%d",
			baseNodes, g.NumNodes(), baseEdges, g.NumEdges())
	}
	// Adjacency symmetry: every half edge has its mirror.
	for u := range g.nodes {
		if !g.nodes[u].alive {
			continue
		}
		for _, he := range g.nodes[u].adj {
			found := false
			for _, back := range g.nodes[he.To].adj {
				if back.To == NodeID(u) {
					if math.Abs(back.Weight-he.Weight) > 1e-12 {
						t.Fatalf("asymmetric weight %v vs %v", back.Weight, he.Weight)
					}
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("missing mirror edge %d->%d", u, he.To)
			}
		}
	}
}

// TestNodeSlotReuse: deleted entity slots are recycled without disturbing
// obstacle vertices.
func TestNodeSlotReuse(t *testing.T) {
	g := buildWith(true, []geom.Rect{geom.R(10, 10, 20, 20)})
	a := g.AddEntity(geom.Pt(0, 0))
	g.DeleteEntity(a)
	b := g.AddEntity(geom.Pt(5, 5))
	if a != b {
		t.Errorf("slot not reused: %d then %d", a, b)
	}
	if g.Point(b) != geom.Pt(5, 5) {
		t.Errorf("reused slot has stale point %v", g.Point(b))
	}
}
