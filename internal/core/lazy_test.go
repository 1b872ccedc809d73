package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/telemetry"
)

// standardWorld is the default evaluation world (|O| = 1000 street MBRs) and
// pairs of uniform points 800-1600 units apart in it, the shape of the
// benchmark's route_long workload.
func standardWorld(tb testing.TB, pairs int) (*Engine, [][2]geom.Point) {
	world := dataset.Generate(dataset.DefaultConfig(1, 1000))
	obst, err := NewObstacleSet(testTreeOpts(), world.Polys, true)
	if err != nil {
		tb.Fatal(err)
	}
	eng := NewEngine(obst, DefaultEngineOptions())
	rng := world.EntityRand(9)
	var out [][2]geom.Point
	for len(out) < pairs {
		pts := world.UniformPoints(rng, 2)
		if d := pts[0].Dist(pts[1]); d >= 800 && d <= 1600 {
			out = append(out, [2]geom.Point{pts[0], pts[1]})
		}
	}
	return eng, out
}

// TestObstructedPathOneSearchPerIteration: the route comes out of the final
// Fig 8 iteration's search, so a path query runs one search per iteration
// (each iteration grows the graph at most once) and no more searches than
// the distance query over the same pair; and every sweep the query made is
// inside a dijkstra span: adding the two points sweeps nothing.
func TestObstructedPathOneSearchPerIteration(t *testing.T) {
	eng, pairs := standardWorld(t, 6)
	for _, pq := range pairs {
		s := eng.NewSession(context.Background())
		root := telemetry.NewTrace().Root("path")
		s.SetSpan(root)
		path, d, st, err := s.ObstructedPath(pq[0], pq[1])
		root.End()
		if err != nil || math.IsInf(d, 1) {
			t.Fatalf("path %v: d=%v err=%v", pq, d, err)
		}
		var searches, grows, sweeps uint64
		for _, sp := range root.Trace().Snapshot().Spans[0].Children {
			switch sp.Name {
			case "dijkstra":
				searches++
				sweeps += sp.Attrs["sweeps"].(uint64)
			case "graph-grow":
				grows++
			}
		}
		if st.Expansions != searches || searches < grows || searches > grows+1 {
			t.Errorf("path %v: %d searches (%d under dijkstra spans) for %d graph growths", pq, st.Expansions, searches, grows)
		}
		if st.Sweeps != sweeps {
			t.Errorf("path %v: %d sweeps, %d of them inside dijkstra spans, want all", pq, st.Sweeps, sweeps)
		}
		if int(st.Sweeps) >= st.GraphNodes {
			t.Errorf("path %v: swept %d of %d nodes: the search was not goal-directed or not lazy", pq, st.Sweeps, st.GraphNodes)
		}
		sum := 0.0
		for i := 1; i < len(path); i++ {
			sum += path[i-1].Dist(path[i])
		}
		if !path[0].Eq(pq[0]) || !path[len(path)-1].Eq(pq[1]) || math.Abs(sum-d) > 1e-9*d {
			t.Errorf("path %v: runs %v..%v, legs sum to %v, length %v", pq, path[0], path[len(path)-1], sum, d)
		}
		dd, dst, err := eng.NewSession(context.Background()).ObstructedDistance(pq[0], pq[1])
		if err != nil || math.Abs(dd-d) > 1e-9*d || dst.Expansions != st.Expansions {
			t.Errorf("path %v: length %v in %d searches, distance %v in %d (err %v)", pq, d, st.Expansions, dd, dst.Expansions, err)
		}
	}
}

// TestPathWorkGate holds a path query's work on route_long-shaped pairs to
// what growing Fig 8 by the ellipse a path can use costs. Per-path means over
// 300 pairs, with what growing the disk of radius d cost before:
//
//	graph nodes          <= 100  (disk: 374)
//	obstacle page reads  <= 20   (disk: 58.5)
//	searches             <= 2.2  (disk: 1.91)
//	sweeps               <= 30.3 at one decimal, the disk's
//	grid walks           <= 450  (each pair asked from both ends: 1,330.2)
func TestPathWorkGate(t *testing.T) {
	eng, pairs := standardWorld(t, 300)
	var nodes, reads, searches, sweeps, walks float64
	for _, pq := range pairs {
		_, d, st, err := eng.NewSession(context.Background()).ObstructedPath(pq[0], pq[1])
		if err != nil || math.IsInf(d, 1) {
			t.Fatalf("path %v: d=%v err=%v", pq, d, err)
		}
		nodes += float64(st.GraphNodes)
		reads += float64(st.ObstReads.PointQuery + st.ObstReads.Scan + st.ObstReads.Enlarge)
		searches += float64(st.Expansions)
		sweeps += float64(st.Sweeps)
		walks += float64(st.Walks)
	}
	n := float64(len(pairs))
	nodes, reads, searches, sweeps, walks = nodes/n, reads/n, searches/n, sweeps/n, walks/n
	t.Logf("per path: %.1f graph nodes, %.1f obstacle page reads, %.2f searches, %.2f sweeps, %.1f grid walks",
		nodes, reads, searches, sweeps, walks)
	if nodes > 100 || reads > 20 || searches > 2.2 || sweeps >= 30.35 || walks > 450 {
		t.Errorf("per path: %.1f graph nodes (gate 100), %.1f obstacle page reads (20), %.2f searches (2.2), %.2f sweeps (30.3), %.1f grid walks (450)",
			nodes, reads, searches, sweeps, walks)
	}
}

// sweepBudgetCtx is canceled once the session it governs has made budget
// sweeps: cancellation that lands at a point in the session's work, wherever
// the polls happen to fall.
type sweepBudgetCtx struct {
	context.Context
	s      *Session
	budget uint64
	since  time.Time // when cancellation was first reported
}

func (c *sweepBudgetCtx) Err() error {
	if c.s.met.Sweeps < c.budget {
		return nil
	}
	if c.since.IsZero() {
		c.since = time.Now()
	}
	return context.Canceled
}

// TestCancelMidPathIsPrompt: a settle can cost a whole sweep (~0.2 ms on this
// world), so a search must notice cancellation before its next sweep, not 64
// settles later. The exact form of "returns within a few milliseconds" is that
// no sweep runs after cancellation; the wall-clock bound is loose on purpose
// (CI runs this under -race on shared runners) and only catches gross stalls.
func TestCancelMidPathIsPrompt(t *testing.T) {
	eng, pairs := standardWorld(t, 8)
	// The pair whose route takes the most work.
	var a, b geom.Point
	var whole Stats
	for _, pq := range pairs {
		_, _, st, err := eng.NewSession(context.Background()).ObstructedPath(pq[0], pq[1])
		if err != nil {
			t.Fatal(err)
		}
		if st.Sweeps > whole.Sweeps {
			a, b, whole = pq[0], pq[1], st
		}
	}
	if whole.Sweeps < 40 {
		t.Fatalf("the longest route takes %d sweeps; want a query worth canceling", whole.Sweeps)
	}
	for _, budget := range []uint64{whole.Sweeps / 4, whole.Sweeps / 2, whole.Sweeps - 5} {
		ctx := &sweepBudgetCtx{Context: context.Background(), budget: budget}
		ctx.s = eng.NewSession(ctx)
		_, _, st, err := ctx.s.ObstructedPath(a, b)
		late := time.Since(ctx.since)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled after %d of %d sweeps: err = %v", budget, whole.Sweeps, err)
		}
		if st.Sweeps != budget {
			t.Errorf("canceled after %d of %d sweeps: %d more ran", budget, whole.Sweeps, st.Sweeps-budget)
		}
		if late > 100*time.Millisecond {
			t.Errorf("canceled after %d of %d sweeps: returned %v later", budget, whole.Sweeps, late)
		}
	}
}
