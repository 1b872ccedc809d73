// Command obsquery runs ad-hoc obstructed spatial queries over CSV datasets
// produced by obsgen (or any files in the same format).
//
// Examples:
//
//	obsquery -data dir -query range -x 5000 -y 5000 -radius 100
//	obsquery -data dir -query nn -x 5000 -y 5000 -k 5
//	obsquery -data dir -query dist -x 10 -y 10 -x2 500 -y2 600
//	obsquery -data dir -query cp -entities2 other.csv -k 4
//	obsquery -data dir -query join -entities2 other.csv -radius 50
//	obsquery -data dir -query nn -parallel 16 -timeout 2s
//
// -data names a directory with obstacles.csv and entities.csv; join and cp
// additionally need a second point file via -entities2. -timeout bounds the
// whole query via context cancellation; -parallel N runs the query
// concurrently from N goroutines over the shared database (the per-query
// stats then demonstrate per-goroutine work attribution). -debug-addr
// serves the database's observability endpoints — /metrics (Prometheus
// text), /debug/vars, /debug/pprof/ — on the given address for the run's
// duration.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	obstacles "repro"
	"repro/internal/dataset"
)

func main() {
	var (
		dataDir  = flag.String("data", ".", "directory with obstacles.csv and entities.csv")
		second   = flag.String("entities2", "", "second point dataset (join/cp queries)")
		query    = flag.String("query", "nn", "query type: range | nn | join | cp | dist")
		x        = flag.Float64("x", 0, "query point x")
		y        = flag.Float64("y", 0, "query point y")
		x2       = flag.Float64("x2", 0, "second point x (dist query)")
		y2       = flag.Float64("y2", 0, "second point y (dist query)")
		radius   = flag.Float64("radius", 100, "range / join distance")
		k        = flag.Int("k", 4, "result count for nn / cp")
		timeout  = flag.Duration("timeout", 0, "per-query timeout (0 = none); expired queries fail with context.DeadlineExceeded")
		parallel = flag.Int("parallel", 1, "run the query from N goroutines concurrently")
		debug    = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while the tool runs")
	)
	flag.Parse()

	rects, err := readRects(filepath.Join(*dataDir, "obstacles.csv"))
	if err != nil {
		fatal(err)
	}
	opts := obstacles.DefaultOptions()
	opts.DebugAddr = *debug
	db, err := obstacles.NewDatabaseFromRects(rects, opts)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if *debug != "" {
		fmt.Printf("debug listener: http://%s/metrics\n", db.DebugAddr())
	}
	pts, err := readPoints(filepath.Join(*dataDir, "entities.csv"))
	if err != nil {
		fatal(err)
	}
	if err := db.AddDataset("P", pts); err != nil {
		fatal(err)
	}
	if *second != "" {
		pts2, err := readPoints(*second)
		if err != nil {
			fatal(err)
		}
		if err := db.AddDataset("T", pts2); err != nil {
			fatal(err)
		}
	}
	n, err := db.DatasetLen("P")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d obstacles, %d entities\n", db.NumObstacles(), n)

	q := obstacles.Pt(*x, *y)
	if inside, err := db.InsideObstacle(q); err != nil {
		fatal(err)
	} else if inside {
		fmt.Printf("note: %v lies inside an obstacle; nothing is reachable from it\n", q)
	}

	runOne := func(verbose bool) (obstacles.QueryStats, error) {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		var qs obstacles.QueryStats
		withStats := obstacles.WithStats(&qs)
		switch *query {
		case "dist":
			d, err := db.ObstructedDistance(ctx, q, obstacles.Pt(*x2, *y2), withStats)
			if err != nil {
				return qs, err
			}
			if verbose {
				fmt.Printf("dO(%v, %v) = %g (dE = %g)\n", q, obstacles.Pt(*x2, *y2), d, q.Dist(obstacles.Pt(*x2, *y2)))
			}
		case "range":
			res, err := db.Range(ctx, "P", q, *radius, withStats)
			if err != nil {
				return qs, err
			}
			if verbose {
				fmt.Printf("%d entities within obstructed distance %g of %v:\n", len(res), *radius, q)
				for _, nb := range res {
					fmt.Printf("  #%d %v  dO=%.2f\n", nb.ID, nb.Point, nb.Distance)
				}
			}
		case "nn":
			res, err := db.NearestNeighbors(ctx, "P", q, *k, withStats)
			if err != nil {
				return qs, err
			}
			if verbose {
				fmt.Printf("%d obstructed nearest neighbors of %v:\n", len(res), q)
				for i, nb := range res {
					fmt.Printf("  %d. #%d %v  dO=%.2f (dE=%.2f)\n", i+1, nb.ID, nb.Point, nb.Distance, q.Dist(nb.Point))
				}
			}
		case "join":
			requireSecond(*second)
			res, err := db.DistanceJoin(ctx, "P", "T", *radius, withStats)
			if err != nil {
				return qs, err
			}
			if verbose {
				fmt.Printf("%d pairs within obstructed distance %g:\n", len(res), *radius)
				for _, p := range res {
					fmt.Printf("  P#%d - T#%d  dO=%.2f\n", p.ID1, p.ID2, p.Distance)
				}
			}
		case "cp":
			requireSecond(*second)
			res, err := db.ClosestPairs(ctx, "P", "T", *k, withStats)
			if err != nil {
				return qs, err
			}
			if verbose {
				fmt.Printf("%d closest pairs:\n", len(res))
				for i, p := range res {
					fmt.Printf("  %d. P#%d - T#%d  dO=%.2f\n", i+1, p.ID1, p.ID2, p.Distance)
				}
			}
		default:
			return qs, fmt.Errorf("unknown query %q", *query)
		}
		return qs, nil
	}

	if *parallel <= 1 {
		qs, err := runOne(true)
		if err != nil {
			fatal(err)
		}
		printStats("query", qs)
		return
	}

	// Concurrent mode: the same query from N goroutines over one shared
	// database. Each goroutine gets its own WithStats collector, so the
	// printed counters are genuinely per-query even under contention.
	fmt.Printf("\nrunning %d concurrent queries...\n", *parallel)
	allStats := make([]obstacles.QueryStats, *parallel)
	errs := make([]error, *parallel)
	var wg sync.WaitGroup
	wall := time.Now()
	for i := 0; i < *parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			allStats[i], errs[i] = runOne(false)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(wall)
	for i, err := range errs {
		if err != nil {
			fatal(fmt.Errorf("goroutine %d: %w", i, err))
		}
	}
	for i, qs := range allStats {
		printStats(fmt.Sprintf("goroutine %d", i), qs)
	}
	fmt.Printf("\nwall time for %d concurrent queries: %v (%.1f queries/sec)\n",
		*parallel, elapsed, float64(*parallel)/elapsed.Seconds())
}

func printStats(label string, qs obstacles.QueryStats) {
	fmt.Printf("%s: %v | pages=%d (logical=%d, buffer-hits=%d) | cands=%d results=%d false-hits=%d | dist-comps=%d settled=%d expansions=%d builds=%d\n",
		label, qs.Elapsed, qs.PageAccesses, qs.LogicalReads, qs.BufferHits,
		qs.Candidates, qs.Results, qs.FalseHits,
		qs.DistComputations, qs.SettledNodes, qs.Expansions, qs.GraphBuilds)
}

func requireSecond(second string) {
	if second == "" {
		fatal(fmt.Errorf("join/cp queries need -entities2"))
	}
}

func readRects(path string) ([]obstacles.Rect, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadRects(f)
}

func readPoints(path string) ([]obstacles.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadPoints(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obsquery:", err)
	os.Exit(1)
}
