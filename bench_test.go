// Benchmarks reproducing every figure of the paper's evaluation (Figs
// 13-22) as testing.B targets, plus ablations of the index and buffer choices.
// Each figure benchmark has one sub-benchmark per x-axis value; per-query
// page accesses are attached as custom metrics (data-pages/op,
// obst-pages/op) alongside the standard ns/op. `obsctl figures` runs the
// same sweeps in workload form and prints the full tables.
//
// Benchmarks use a reduced |O| so `go test -bench=.` finishes in minutes;
// the harness preserves the paper's obstacle density and absolute query
// ranges, so per-query behaviour is scale-invariant (see internal/expt).
package obstacles_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	obstacles "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/expt"
	"repro/internal/geom"
	"repro/internal/rtree"
)

const benchObstacles = 4000

var bctx = context.Background()

var benchLabs = map[int]*expt.Lab{}

func benchLab(b *testing.B, obstacles int) *expt.Lab {
	b.Helper()
	if lab, ok := benchLabs[obstacles]; ok {
		return lab
	}
	cfg := expt.DefaultConfig()
	cfg.ObstacleCount = obstacles
	cfg.Workload = 50
	lab, err := expt.NewLab(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchLabs[obstacles] = lab
	return lab
}

func entitySet(b *testing.B, lab *expt.Lab, card int) *core.PointSet {
	b.Helper()
	P, err := lab.EntitySet(card)
	if err != nil {
		b.Fatal(err)
	}
	return P
}

// session starts a background-context session on the lab's engine: one per
// benchmarked query.
func session(lab *expt.Lab) *core.Session {
	return lab.Engine().NewSession(context.Background())
}

// runQueries executes fn once per iteration, cycling through the workload,
// and reports per-op page-access metrics for the involved trees.
func runQueries(b *testing.B, lab *expt.Lab, sets []*core.PointSet, fn func(q geom.Point) error) {
	b.Helper()
	queries := lab.Queries()
	obstPF := lab.Engine().Obstacles().Tree().PageFile()
	obstBase := obstPF.Stats().PhysicalReads
	var dataBase uint64
	for _, s := range sets {
		dataBase += s.Tree().PageFile().Stats().PhysicalReads
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var dataNow uint64
	for _, s := range sets {
		dataNow += s.Tree().PageFile().Stats().PhysicalReads
	}
	b.ReportMetric(float64(dataNow-dataBase)/float64(b.N), "data-pages/op")
	b.ReportMetric(float64(obstPF.Stats().PhysicalReads-obstBase)/float64(b.N), "obst-pages/op")
}

// BenchmarkFig13ORCardinality reproduces Fig 13: obstacle range queries at
// e=0.1% across entity/obstacle cardinality ratios.
func BenchmarkFig13ORCardinality(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	radius := lab.ERadius(expt.ORFixedE)
	for _, ratio := range expt.RatioGrid {
		b.Run(fmt.Sprintf("ratio=%g", ratio), func(b *testing.B) {
			P := entitySet(b, lab, int(ratio*benchObstacles))
			runQueries(b, lab, []*core.PointSet{P}, func(q geom.Point) error {
				_, _, err := session(lab).Range(P, q, radius)
				return err
			})
		})
	}
}

// BenchmarkFig14ORRange reproduces Fig 14: obstacle range queries at
// |P|=|O| across query ranges e.
func BenchmarkFig14ORRange(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	P := entitySet(b, lab, benchObstacles)
	for _, pct := range expt.ORRangeGrid {
		b.Run(fmt.Sprintf("e=%g%%", pct), func(b *testing.B) {
			radius := lab.ERadius(pct)
			runQueries(b, lab, []*core.PointSet{P}, func(q geom.Point) error {
				_, _, err := session(lab).Range(P, q, radius)
				return err
			})
		})
	}
}

// BenchmarkFig15ORFalseHits reproduces Fig 15: the false-hit behaviour of
// OR, reported as falsehits/op and results/op metrics (a: vs cardinality
// ratio at e=0.1%; b: vs e at |P|=|O|).
func BenchmarkFig15ORFalseHits(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	run := func(b *testing.B, P *core.PointSet, radius float64) {
		var fh, res int
		runQueries(b, lab, []*core.PointSet{P}, func(q geom.Point) error {
			_, st, err := session(lab).Range(P, q, radius)
			fh += st.FalseHits
			res += st.Results
			return err
		})
		b.ReportMetric(float64(fh)/float64(b.N), "falsehits/op")
		b.ReportMetric(float64(res)/float64(b.N), "results/op")
	}
	for _, ratio := range expt.RatioGrid {
		b.Run(fmt.Sprintf("a/ratio=%g", ratio), func(b *testing.B) {
			run(b, entitySet(b, lab, int(ratio*benchObstacles)), lab.ERadius(expt.ORFixedE))
		})
	}
	for _, pct := range expt.ORRangeGrid {
		b.Run(fmt.Sprintf("b/e=%g%%", pct), func(b *testing.B) {
			run(b, entitySet(b, lab, benchObstacles), lab.ERadius(pct))
		})
	}
}

// BenchmarkFig16ONNCardinality reproduces Fig 16: k=16 obstructed NN
// queries across cardinality ratios.
func BenchmarkFig16ONNCardinality(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	for _, ratio := range expt.RatioGrid {
		b.Run(fmt.Sprintf("ratio=%g", ratio), func(b *testing.B) {
			P := entitySet(b, lab, int(ratio*benchObstacles))
			runQueries(b, lab, []*core.PointSet{P}, func(q geom.Point) error {
				_, _, err := session(lab).NearestNeighbors(P, q, expt.ONNFixedK)
				return err
			})
		})
	}
}

// BenchmarkFig17ONNK reproduces Fig 17: obstructed NN queries at |P|=|O|
// across k.
func BenchmarkFig17ONNK(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	P := entitySet(b, lab, benchObstacles)
	for _, k := range expt.KGrid {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			runQueries(b, lab, []*core.PointSet{P}, func(q geom.Point) error {
				_, _, err := session(lab).NearestNeighbors(P, q, k)
				return err
			})
		})
	}
}

// BenchmarkFig18ONNFalseHits reproduces Fig 18: ONN false hits (Euclidean
// kNNs not among the obstructed kNNs), as falsehits/op (a: vs ratio at
// k=16; b: vs k at |P|=|O|).
func BenchmarkFig18ONNFalseHits(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	run := func(b *testing.B, P *core.PointSet, k int) {
		var fh int
		runQueries(b, lab, []*core.PointSet{P}, func(q geom.Point) error {
			_, st, err := session(lab).NearestNeighbors(P, q, k)
			fh += st.FalseHits
			return err
		})
		b.ReportMetric(float64(fh)/float64(b.N), "falsehits/op")
		b.ReportMetric(float64(fh)/float64(b.N)/float64(k), "fh-ratio")
	}
	for _, ratio := range expt.RatioGrid {
		b.Run(fmt.Sprintf("a/ratio=%g", ratio), func(b *testing.B) {
			run(b, entitySet(b, lab, int(ratio*benchObstacles)), expt.ONNFixedK)
		})
	}
	for _, k := range expt.KGrid {
		b.Run(fmt.Sprintf("b/k=%d", k), func(b *testing.B) {
			run(b, entitySet(b, lab, benchObstacles), k)
		})
	}
}

// runJoinOp executes one whole join/closest-pair operation per iteration.
func runJoinOp(b *testing.B, lab *expt.Lab, sets []*core.PointSet, fn func() error) {
	b.Helper()
	obstPF := lab.Engine().Obstacles().Tree().PageFile()
	obstBase := obstPF.Stats().PhysicalReads
	var dataBase uint64
	for _, s := range sets {
		dataBase += s.Tree().PageFile().Stats().PhysicalReads
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var dataNow uint64
	for _, s := range sets {
		dataNow += s.Tree().PageFile().Stats().PhysicalReads
	}
	b.ReportMetric(float64(dataNow-dataBase)/float64(b.N), "data-pages/op")
	b.ReportMetric(float64(obstPF.Stats().PhysicalReads-obstBase)/float64(b.N), "obst-pages/op")
}

// BenchmarkFig19ODJCardinality reproduces Fig 19: e-distance joins at
// e=0.01%, |T|=0.1|O|, across |S|/|O|.
func BenchmarkFig19ODJCardinality(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	dist := lab.ERadius(expt.ODJFixedE)
	T := entitySet(b, lab, int(expt.JoinTFrac*benchObstacles))
	for _, ratio := range expt.JoinRatioGrid {
		b.Run(fmt.Sprintf("Sratio=%g", ratio), func(b *testing.B) {
			S := entitySet(b, lab, int(ratio*benchObstacles))
			runJoinOp(b, lab, []*core.PointSet{S, T}, func() error {
				_, _, err := session(lab).DistanceJoin(S, T, dist)
				return err
			})
		})
	}
}

// BenchmarkFig20ODJRange reproduces Fig 20: e-distance joins at
// |S|=|T|=0.1|O| across e.
func BenchmarkFig20ODJRange(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	card := int(expt.JoinSTFrac * benchObstacles)
	S := entitySet(b, lab, card)
	T := entitySet(b, lab, card+1)
	for _, pct := range expt.JoinRangeGrid {
		b.Run(fmt.Sprintf("e=%g%%", pct), func(b *testing.B) {
			dist := lab.ERadius(pct)
			runJoinOp(b, lab, []*core.PointSet{S, T}, func() error {
				_, _, err := session(lab).DistanceJoin(S, T, dist)
				return err
			})
		})
	}
}

// BenchmarkFig21OCPCardinality reproduces Fig 21: k=16 closest pairs at
// |T|=0.1|O| across |S|/|O|.
func BenchmarkFig21OCPCardinality(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	T := entitySet(b, lab, int(expt.JoinTFrac*benchObstacles))
	for _, ratio := range expt.JoinRatioGrid {
		b.Run(fmt.Sprintf("Sratio=%g", ratio), func(b *testing.B) {
			S := entitySet(b, lab, int(ratio*benchObstacles))
			runJoinOp(b, lab, []*core.PointSet{S, T}, func() error {
				_, _, err := session(lab).ClosestPairs(S, T, expt.OCPFixedK)
				return err
			})
		})
	}
}

// BenchmarkFig22OCPK reproduces Fig 22: closest pairs at |S|=|T|=0.1|O|
// across k.
func BenchmarkFig22OCPK(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	card := int(expt.JoinSTFrac * benchObstacles)
	S := entitySet(b, lab, card)
	T := entitySet(b, lab, card+1)
	for _, k := range expt.KGrid {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			k := k
			runJoinOp(b, lab, []*core.PointSet{S, T}, func() error {
				_, _, err := session(lab).ClosestPairs(S, T, k)
				return err
			})
		})
	}
}

// BenchmarkObstructedPathLong is the in-process twin of the benchmark's
// route_long workload: shortest paths between uniform points 800-1600 units
// apart on the default world (seed 1, |O| = 1000), one large local graph per
// query. sweeps/op is where the time goes: against nodes/op (what eager
// construction swept) it shows what laziness saves, against settled/op how
// many settled nodes were already up to date. walks/op counts the grid walks
// of those passes; QueryStats does not carry it, so it comes from the same
// pairs replayed through a core session over the same world.
func BenchmarkObstructedPathLong(b *testing.B) {
	world := dataset.Generate(dataset.DefaultConfig(1, 1000))
	db, err := obstacles.NewDatabaseFromRects(world.Rects, obstacles.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(2))
	pairs := make([][2]geom.Point, 64)
	for i, a := range world.UniformPoints(rng, len(pairs)) {
		for {
			l, th := 800+800*rng.Float64(), rng.Float64()*2*math.Pi
			c := geom.Pt(a.X+l*math.Cos(th), a.Y+l*math.Sin(th))
			if inside, err := db.InsideObstacle(c); err != nil {
				b.Fatal(err)
			} else if !inside && c.X >= 0 && c.Y >= 0 && c.X <= world.Universe() && c.Y <= world.Universe() {
				pairs[i] = [2]geom.Point{a, c}
				break
			}
		}
	}
	var sweeps, settled, nodes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var qs obstacles.QueryStats
		pq := pairs[i%len(pairs)]
		if _, _, err := db.ObstructedPath(bctx, pq[0], pq[1], obstacles.WithStats(&qs)); err != nil {
			b.Fatal(err)
		}
		sweeps += qs.Sweeps
		settled += qs.SettledNodes
		nodes += uint64(qs.GraphNodes)
	}
	b.StopTimer()
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
	obst, err := core.NewObstacleSet(rtree.Options{PageSize: 4096}, world.Polys, true)
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(obst, core.DefaultEngineOptions())
	var total core.Stats
	for _, pq := range pairs {
		_, _, st, err := eng.NewSession(bctx).ObstructedPath(pq[0], pq[1])
		if err != nil {
			b.Fatal(err)
		}
		total.Merge(st)
	}
	b.ReportMetric(float64(total.Walks)/float64(len(pairs)), "walks/op")
}

// BenchmarkAblationBulkVsInsert compares STR bulk loading against repeated
// insertion (Tree.Insert): build cost, and NN query I/O on the resulting trees.
func BenchmarkAblationBulkVsInsert(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	pts := make([]geom.Point, 0, 5000)
	P := entitySet(b, lab, 5000)
	for i := 0; i < P.Len(); i++ {
		pts = append(pts, P.Point(int64(i)))
	}
	for _, bulk := range []bool{true, false} {
		b.Run(fmt.Sprintf("build/bulk=%v", bulk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewPointSet(rtree.Options{PageSize: 4096}, pts, bulk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, bulk := range []bool{true, false} {
		set, err := core.NewPointSet(rtree.Options{PageSize: 4096}, pts, bulk)
		if err != nil {
			b.Fatal(err)
		}
		_ = set.Tree().PageFile().SetBufferPages(1) // cold-ish buffer isolates structure quality
		b.Run(fmt.Sprintf("query/bulk=%v", bulk), func(b *testing.B) {
			base := set.Tree().PageFile().Stats().PhysicalReads
			queries := lab.Queries()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := set.Tree().NearestK(queries[i%len(queries)], 16); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(set.Tree().PageFile().Stats().PhysicalReads-base)/float64(b.N), "pages/op")
		})
	}
}

// BenchmarkAblationBufferFraction sweeps the LRU buffer size on the
// obstacle tree (the paper fixes it at 10% of each tree).
func BenchmarkAblationBufferFraction(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	P := entitySet(b, lab, benchObstacles)
	radius := lab.ERadius(0.5)
	obstPF := lab.Engine().Obstacles().Tree().PageFile()
	total := obstPF.NumPages()
	for _, frac := range []float64{0.01, 0.05, 0.1, 0.25, 0.5} {
		b.Run(fmt.Sprintf("buffer=%g%%", frac*100), func(b *testing.B) {
			pages := int(frac * float64(total))
			if pages < 1 {
				pages = 1
			}
			if err := obstPF.SetBufferPages(pages); err != nil {
				b.Fatal(err)
			}
			runQueries(b, lab, []*core.PointSet{P}, func(q geom.Point) error {
				_, _, err := session(lab).Range(P, q, radius)
				return err
			})
		})
	}
	// Restore the paper's setting for any benchmark that runs after.
	if err := obstPF.SetBufferPages(int(0.1 * float64(total))); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBatchDistances compares ONE multi-target BatchDistances call
// against N independent ObstructedDistance calls — the primitive under
// DistanceMatrix and k-medoids clustering. Targets are the query's Euclidean
// kNNs (local graphs; universe-spanning target sets degenerate to a global
// visibility graph either way). settled/op counts Dijkstra-settled
// visibility-graph nodes, the refinement work the batch engine shares across
// targets.
func BenchmarkBatchDistances(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	P := entitySet(b, lab, 2000)
	queries := lab.Queries()
	// Larger target sets only widen the gap (per-pair cost grows linearly
	// in n, the batch expansion sublinearly) but make the per-pair side of
	// the benchmark take minutes per op, so the grid stops at 64.
	for _, n := range []int{16, 64} {
		// Per-query target sets: the n Euclidean-nearest entities.
		targetSets := make([][]geom.Point, len(queries))
		for qi, q := range queries {
			nns, err := P.Tree().NearestK(q, n)
			if err != nil {
				b.Fatal(err)
			}
			for _, nb := range nns {
				targetSets[qi] = append(targetSets[qi], P.Point(nb.Item.Data))
			}
		}
		for _, batch := range []bool{true, false} {
			b.Run(fmt.Sprintf("n=%d/batch=%v", n, batch), func(b *testing.B) {
				eng := core.NewEngine(lab.Engine().Obstacles(), core.DefaultEngineOptions())
				var total core.Stats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := queries[i%len(queries)]
					targets := targetSets[i%len(queries)]
					if batch {
						_, st, err := eng.NewSession(context.Background()).BatchDistances(q, targets)
						if err != nil {
							b.Fatal(err)
						}
						total.Merge(st)
					} else {
						for _, p := range targets {
							_, st, err := eng.NewSession(context.Background()).ObstructedDistance(q, p)
							if err != nil {
								b.Fatal(err)
							}
							total.Merge(st)
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(total.SettledNodes)/float64(b.N), "settled/op")
				b.ReportMetric(float64(total.GraphBuilds)/float64(b.N), "builds/op")
			})
		}
	}
}

// clusterBench builds a public Database over a generated street world with
// one entity dataset, for the clustering and churn benchmarks.
// OBS_TRACE_SAMPLE, when set, becomes Options.TraceSampleRate, so tracing
// overhead is measured as one env sweep over the same benchmark.
func clusterBench(b *testing.B, nObst, nPts int) (*obstacles.Database, float64) {
	b.Helper()
	world := dataset.Generate(dataset.DefaultConfig(9, nObst))
	opts := obstacles.DefaultOptions()
	if v := os.Getenv("OBS_TRACE_SAMPLE"); v != "" {
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil {
			b.Fatalf("bad OBS_TRACE_SAMPLE %q: %v", v, err)
		}
		opts.TraceSampleRate = rate
	}
	db, err := obstacles.NewDatabase(world.Polys, opts)
	if err != nil {
		b.Fatal(err)
	}
	pts := world.Entities(world.EntityRand(2), nPts)
	if err := db.AddDataset("P", pts); err != nil {
		b.Fatal(err)
	}
	return db, world.Universe()
}

// BenchmarkClusterDBSCAN measures obstructed-distance density clustering
// end to end: every ε-neighborhood from one obstacle distance self-join
// (Fig 10 with S = T).
func BenchmarkClusterDBSCAN(b *testing.B) {
	for _, nPts := range []int{100, 300} {
		b.Run(fmt.Sprintf("pts=%d", nPts), func(b *testing.B) {
			db, universe := clusterBench(b, 1000, nPts)
			eps := clusterEps(universe, nPts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl, err := db.Cluster(bctx, "P", obstacles.ClusterOptions{
					Algorithm: obstacles.DBSCAN, Eps: eps, MinPts: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				if cl.NumClusters == 0 {
					b.Fatal("no clusters found")
				}
			}
		})
	}
}

// BenchmarkClusterKMedoids measures PAM over the full obstructed-distance
// matrix (one expansion per row). The matrix spans the whole universe, so
// the obstacle count is kept moderate: its cost is dominated by one
// near-global graph, which the matrix's one field keeps for every row.
func BenchmarkClusterKMedoids(b *testing.B) {
	for _, nPts := range []int{60, 120} {
		b.Run(fmt.Sprintf("pts=%d", nPts), func(b *testing.B) {
			db, _ := clusterBench(b, 500, nPts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl, err := db.Cluster(bctx, "P", obstacles.ClusterOptions{
					Algorithm: obstacles.KMedoids, K: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
				if cl.NumClusters != 8 {
					b.Fatalf("clusters = %d", cl.NumClusters)
				}
			}
		})
	}
}

// clusterEps scales the DBSCAN radius with point density so neighborhoods
// keep a few members at every cardinality.
func clusterEps(universe float64, nPts int) float64 {
	return universe * 0.03 * math.Sqrt(300/float64(nPts))
}

// BenchmarkAblationIncrementalCP compares batch OCP(k) against consuming k
// pairs from the incremental iOCP iterator.
func BenchmarkAblationIncrementalCP(b *testing.B) {
	lab := benchLab(b, benchObstacles)
	card := int(expt.JoinSTFrac * benchObstacles)
	S := entitySet(b, lab, card)
	T := entitySet(b, lab, card+1)
	const k = 16
	b.Run("batch-OCP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := session(lab).ClosestPairs(S, T, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental-iOCP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			it, err := session(lab).ClosestPairIterator(S, T)
			if err != nil {
				b.Fatal(err)
			}
			for n := 0; n < k; n++ {
				if _, ok := it.Next(); !ok {
					b.Fatal(it.Err())
				}
			}
		}
	})
}

// BenchmarkConcurrentQueries measures aggregate query throughput over one
// shared Database at 1, 4 and 16 goroutines. The workload alternates k-NN and range queries through
// the public context-first API; all goroutines share the warm page buffers
// and the visibility-graph cache. ns/op is wall time per query; the
// queries/sec metric is the aggregate throughput the API redesign exists
// to scale.
func BenchmarkConcurrentQueries(b *testing.B) {
	db, universe := clusterBench(b, 1000, 2000)
	rng := rand.New(rand.NewSource(5))
	queries := make([]obstacles.Point, 64)
	for i := range queries {
		queries[i] = obstacles.Pt(rng.Float64()*universe, rng.Float64()*universe)
	}
	radius := universe * 0.02
	// Warm the buffers so every parallelism level starts from the same
	// steady state.
	for _, q := range queries {
		if _, err := db.NearestNeighbors(bctx, "P", q, 8); err != nil {
			b.Fatal(err)
		}
	}
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			per := (b.N + g - 1) / g
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						q := queries[(w*per+i)%len(queries)]
						var err error
						if i%2 == 0 {
							_, err = db.NearestNeighbors(bctx, "P", q, 8)
						} else {
							_, err = db.Range(bctx, "P", q, radius)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			elapsed := time.Since(start)
			b.ReportMetric(float64(g*per)/elapsed.Seconds(), "queries/sec")
		})
	}
}
