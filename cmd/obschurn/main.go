// Command obschurn measures query throughput under a dynamic-update
// workload: N goroutines run nearest-neighbor and range queries over a
// generated street world while a configurable fraction of operations mutate
// the database in place — point inserts/deletes and obstacle add/removes
// through the public update API.
//
// Examples:
//
//	obschurn -obstacles 1000 -entities 2000 -ops 2000 -mix 0.01 -parallel 4
//	obschurn -mix 0.10 -parallel 1 -seed 7
//	obschurn -db /tmp/churn.obs -mix 0.05 -ops 500
//
// Each worker reports its own per-query stats; the tool prints aggregate
// queries/sec, page accesses, and the graph-cache counters (hits, misses,
// invalidations) that show how far an obstacle update's damage spreads.
//
// The world and every worker's operation stream derive from -seed, so a
// run with -parallel 1 is reproducible byte-for-byte; with more workers
// each worker's stream is still seed-determined but their interleaving is
// scheduler-dependent. With -db the same churn runs against a durable
// database file (obstacles.Open): every update commits through the
// write-ahead log, measuring the fsync cost of durability, and the file is
// left behind for obsstore inspect/verify.
//
// With -db and -workers N the tool instead runs a pure durable-mutator
// workload: N goroutines insert and delete points as fast as commits
// acknowledge, reporting commit throughput, latency percentiles (p50/p99)
// and the group-commit counters (fsyncs vs commits, batch sizes) — the
// CLI view of the batching win:
//
//	obschurn -db /tmp/churn.obs -workers 4 -ops 2000
//
// -debug-addr serves the database's observability endpoints — /metrics
// (Prometheus text), /debug/vars, /debug/pprof/ — on the given address for
// the run's duration, so a scraper can watch the churn live.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	obstacles "repro"
	"repro/internal/dataset"
)

func main() {
	var (
		nObst    = flag.Int("obstacles", 1000, "obstacle count of the generated world")
		nPts     = flag.Int("entities", 2000, "entity count of the P dataset")
		ops      = flag.Int("ops", 2000, "operations per worker")
		mix      = flag.Float64("mix", 0.01, "fraction of operations that are updates (0..1)")
		parallel = flag.Int("parallel", 4, "worker goroutines")
		seed     = flag.Int64("seed", 9, "world and workload seed (byte-for-byte reproducible with -parallel 1)")
		timeout  = flag.Duration("timeout", 0, "per-query timeout (0 = none)")
		dbPath   = flag.String("db", "", "churn a durable database file at this path instead of in memory (created if missing; updates commit through the WAL)")
		workers  = flag.Int("workers", 0, "with -db: run N parallel durable mutators (pure update workload) and report commit latency percentiles")
		debug    = flag.String("debug-addr", "", "serve /metrics (Prometheus text), /debug/vars and /debug/pprof on this address for the run's duration")
		autoRec  = flag.Bool("auto-recover", false, "with -db: retry in-place recovery automatically if a durable fault degrades the database mid-run")
	)
	flag.Parse()

	if *workers > 0 && *dbPath == "" {
		fatal(fmt.Errorf("-workers requires -db (it measures durable commit batching)"))
	}
	dopts := obstacles.DefaultOptions()
	dopts.DebugAddr = *debug
	dopts.AutoRecover = *autoRec
	world := dataset.Generate(dataset.DefaultConfig(*seed, *nObst))
	var db *obstacles.Database
	var err error
	if *dbPath != "" {
		if db, err = obstacles.Open(*dbPath, dopts); err != nil {
			fatal(err)
		}
		defer db.Close()
		if db.NumObstacles() == 0 {
			if _, err := db.AddObstacleRects(world.Rects...); err != nil {
				fatal(err)
			}
		}
	} else if db, err = obstacles.NewDatabase(world.Polys, dopts); err != nil {
		fatal(err)
	} else {
		defer db.Close() // stops the debug listener; no durable backend
	}
	if *debug != "" {
		fmt.Printf("debug listener: http://%s/metrics\n", db.DebugAddr())
	}
	if !db.HasDataset("P") {
		pts := world.Entities(world.EntityRand(2), *nPts)
		if err := db.AddDataset("P", pts); err != nil {
			fatal(err)
		}
	}
	if *workers > 0 {
		runDurableMutators(db, *workers, *ops, *seed, world.Universe())
		return
	}
	universe := world.Universe()
	backend := "in-memory"
	if *dbPath != "" {
		backend = "durable " + *dbPath
	}
	fmt.Printf("world: %d obstacles, %d entities, update mix %.1f%%, %d workers x %d ops, seed %d, %s\n",
		db.NumObstacles(), *nPts, *mix*100, *parallel, *ops, *seed, backend)

	var (
		wg          sync.WaitGroup
		queries     atomic.Uint64
		updates     atomic.Uint64
		pageAccs    atomic.Uint64
		workerErr   atomic.Value
		updateMu    sync.Mutex // serializes the update bookkeeping below
		insertedIDs []int64
		obstIDs     []int64
	)
	radius := universe * 0.02
	start := time.Now()
	for wkr := 0; wkr < *parallel; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(wkr)*7919))
			for i := 0; i < *ops; i++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if *timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, *timeout)
				}
				err := runOp(ctx, db, rng, *mix, universe, radius,
					&updateMu, &insertedIDs, &obstIDs, &queries, &updates, &pageAccs)
				cancel()
				if err != nil {
					workerErr.Store(fmt.Errorf("worker %d op %d: %w", wkr, i, err))
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := workerErr.Load().(error); err != nil {
		fatal(err)
	}

	q, u := queries.Load(), updates.Load()
	fmt.Printf("\n%d queries + %d updates in %v\n", q, u, elapsed)
	fmt.Printf("throughput: %.1f queries/sec (%.1f ops/sec total)\n",
		float64(q)/elapsed.Seconds(), float64(q+u)/elapsed.Seconds())
	fmt.Printf("page accesses: %d total, %.2f per query\n", pageAccs.Load(), float64(pageAccs.Load())/float64(q))
	cs := db.GraphCacheStats()
	fmt.Printf("graph cache: %d hits, %d misses (%.1f%% hit rate), %d evictions, %d invalidations\n",
		cs.Hits, cs.Misses, cs.HitRate()*100, cs.Evictions, cs.Invalidations)
	n, err := db.DatasetLen("P")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("final state: %d obstacles, %d entities\n", db.NumObstacles(), n)
	if db.Persistent() {
		pst := db.PersistStats()
		fmt.Printf("durability: %d commits, %d fsyncs (%.2f commits/fsync), %d checkpoints, wal %d bytes, %d file pages (%d pending write-back)\n",
			pst.Commits, pst.Fsyncs, pst.AvgBatch, pst.Checkpoints, pst.WALBytes, pst.FilePages, pst.PendingPages)
	}
}

// runDurableMutators drives N goroutines of pure durable point churn —
// insert one, occasionally delete an old one — measuring per-commit
// acknowledgment latency, and prints throughput, p50/p99 latency and the
// group-commit counters. This is the CLI view of the batching win: with
// several workers, fsyncs stay well below commits.
func runDurableMutators(db *obstacles.Database, workers, ops int, seed int64, universe float64) {
	before := db.PersistStats()
	var wg sync.WaitGroup
	var workerErr atomic.Value
	lats := make([][]time.Duration, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			var live []int64
			lats[w] = make([]time.Duration, 0, 2*ops)
			for i := 0; i < ops; i++ {
				p := obstacles.Pt(rng.Float64()*universe, rng.Float64()*universe)
				t0 := time.Now()
				ids, err := db.InsertPoints("P", p)
				lats[w] = append(lats[w], time.Since(t0))
				if err != nil {
					workerErr.Store(fmt.Errorf("worker %d insert %d: %w", w, i, err))
					return
				}
				live = append(live, ids...)
				if len(live) > 64 {
					t0 = time.Now()
					err := db.DeletePoints("P", live[0])
					lats[w] = append(lats[w], time.Since(t0))
					if err != nil {
						workerErr.Store(fmt.Errorf("worker %d delete: %w", w, err))
						return
					}
					live = live[1:]
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := workerErr.Load().(error); err != nil {
		fatal(err)
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	after := db.PersistStats()
	commits := after.Commits - before.Commits
	fsyncs := after.Fsyncs - before.Fsyncs
	// A zero-op run (or a fresh handle) has no fsyncs yet; don't print NaN.
	perFsync := 0.0
	if fsyncs > 0 {
		perFsync = float64(commits) / float64(fsyncs)
	}
	fmt.Printf("\n%d durable commits by %d workers in %v (group commit)\n", commits, workers, elapsed)
	fmt.Printf("throughput:     %.1f commits/sec\n", float64(commits)/elapsed.Seconds())
	fmt.Printf("commit latency: p50 %v, p99 %v\n", pct(0.50), pct(0.99))
	fmt.Printf("fsyncs:         %d (%.2f commits/fsync; largest batch %d, %d grouped fsyncs)\n",
		fsyncs, perFsync, after.MaxBatch, after.GroupCommits-before.GroupCommits)
	fmt.Printf("wal:            %d bytes (%d checkpoints)\n", after.WALBytes, after.Checkpoints-before.Checkpoints)
}

// runOp performs one workload operation: with probability mix an update
// (alternating point churn and obstacle churn, keeping the live counts
// roughly steady), otherwise a query.
func runOp(ctx context.Context, db *obstacles.Database, rng *rand.Rand, mix, universe, radius float64,
	mu *sync.Mutex, insertedIDs, obstIDs *[]int64,
	queries, updates, pageAccs *atomic.Uint64) error {
	randPt := func() obstacles.Point {
		return obstacles.Pt(rng.Float64()*universe, rng.Float64()*universe)
	}
	if rng.Float64() < mix {
		updates.Add(1)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case rng.Intn(2) == 0: // point churn: insert one, delete an old one
			ids, err := db.InsertPoints("P", randPt())
			if err != nil {
				return err
			}
			*insertedIDs = append(*insertedIDs, ids...)
			if len(*insertedIDs) > 64 {
				id := (*insertedIDs)[0]
				*insertedIDs = (*insertedIDs)[1:]
				if err := db.DeletePoints("P", id); err != nil {
					return err
				}
			}
		default: // obstacle churn: a construction site appears, an old one clears
			s := universe * 0.002
			site, ok := findSite(db, rng, universe, s)
			if !ok {
				return nil // crowded world; skip this update
			}
			ids, err := db.AddObstacleRects(site)
			if err != nil {
				return err
			}
			*obstIDs = append(*obstIDs, ids...)
			if len(*obstIDs) > 16 {
				id := (*obstIDs)[0]
				*obstIDs = (*obstIDs)[1:]
				if err := db.RemoveObstacles(id); err != nil {
					return err
				}
			}
		}
		return nil
	}
	queries.Add(1)
	var qs obstacles.QueryStats
	q := randPt()
	var err error
	switch rng.Intn(3) {
	case 0:
		_, err = db.NearestNeighbors(ctx, "P", q, 8, obstacles.WithStats(&qs))
	case 1:
		_, err = db.Range(ctx, "P", q, radius, obstacles.WithStats(&qs))
	default:
		// Batch distances exercise the shared graph cache, whose hit and
		// invalidation counters show how localized the update damage is.
		targets := make([]obstacles.Point, 8)
		for i := range targets {
			targets[i] = obstacles.Pt(q.X+(rng.Float64()-0.5)*radius, q.Y+(rng.Float64()-0.5)*radius)
		}
		_, err = db.ObstructedDistances(ctx, q, targets, obstacles.WithStats(&qs))
	}
	if err != nil {
		return err
	}
	pageAccs.Add(qs.PageAccesses)
	return nil
}

// findSite looks for a spot whose corners and center lie outside every
// obstacle, so construction sites (mostly) avoid overlapping existing
// obstacle interiors — the plane sweep assumes disjoint interiors.
func findSite(db *obstacles.Database, rng *rand.Rand, universe, s float64) (obstacles.Rect, bool) {
	for try := 0; try < 8; try++ {
		x, y := rng.Float64()*(universe-s), rng.Float64()*(universe-s)
		r := obstacles.R(x, y, x+s, y+s)
		clear := true
		for _, p := range []obstacles.Point{
			obstacles.Pt(x, y), obstacles.Pt(x+s, y), obstacles.Pt(x, y+s),
			obstacles.Pt(x+s, y+s), obstacles.Pt(x+s/2, y+s/2),
		} {
			inside, err := db.InsideObstacle(p)
			if err != nil || inside {
				clear = false
				break
			}
		}
		if clear {
			return r, true
		}
	}
	return obstacles.Rect{}, false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obschurn:", err)
	os.Exit(1)
}
