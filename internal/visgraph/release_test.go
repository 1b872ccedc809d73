package visgraph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestReleasedGraphCycleAllocs: a query's graph is built in the storage of
// the one released before it — nodes and their adjacency arrays, maps, grid
// and search scratch — so a steady Build → AddTerminal → AddEntity →
// ObstructedDist → Release cycle allocates at most releasedCycleAllocs times,
// however many nodes, edges and grid cells the graph holds (258 per cycle
// of this scene when every Build started from nothing).
func TestReleasedGraphCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	const releasedCycleAllocs = 2
	rng := rand.New(rand.NewSource(3))
	var obs []Obstacle
	for i, r := range disjointRects(rng, 40, 400) {
		obs = append(obs, Obstacle{ID: int64(i), Poly: geom.RectPolygon(r)})
	}
	var polys []geom.Polygon
	for _, ob := range obs {
		polys = append(polys, ob.Poly)
	}
	a, b := freeOf(rng, polys, 400), freeOf(rng, polys, 400)
	var m Metrics
	d := 0.0
	cycle := func() {
		g := Build(Options{UseSweep: true, Metrics: &m}, obs)
		d = g.ObstructedDist(g.AddTerminal(a), g.AddEntity(b))
		g.Release()
	}
	cycle()
	want := d
	allocs := testing.AllocsPerRun(100, cycle)
	if d != want || math.IsInf(d, 1) {
		t.Fatalf("distance %v on a released graph, %v on the first one", d, want)
	}
	if allocs > releasedCycleAllocs {
		t.Errorf("Build/ObstructedDist/Release: %v allocations per cycle, want at most %d", allocs, releasedCycleAllocs)
	}
	t.Logf("%v allocations per cycle; %d sweeps, %d settled nodes", allocs, m.Sweeps, m.SettledNodes)
}
