// Command obscluster clusters an entity dataset by obstructed distance over
// CSV datasets produced by obsgen (or any files in the same format).
//
// Examples:
//
//	obscluster -data dir -algo dbscan -eps 150 -minpts 4
//	obscluster -data dir -algo kmedoids -k 8
//	obscluster -data dir -algo dbscan -eps 150 -assign out.csv
//
// -data names a directory with obstacles.csv and entities.csv. The cluster
// summary goes to stdout; -assign additionally writes one "x,y,cluster"
// line per entity (cluster -1 is noise).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	obstacles "repro"
	"repro/internal/dataset"
)

func main() {
	var (
		dataDir = flag.String("data", ".", "directory with obstacles.csv and entities.csv")
		algo    = flag.String("algo", "dbscan", "clustering algorithm: dbscan | kmedoids")
		eps     = flag.Float64("eps", 100, "dbscan neighborhood radius (obstructed distance)")
		minPts  = flag.Int("minpts", 4, "dbscan core threshold (including the point itself)")
		k       = flag.Int("k", 4, "kmedoids cluster count")
		maxIter = flag.Int("maxiter", 0, "kmedoids swap-round cap (0 = to convergence)")
		assign  = flag.String("assign", "", "write per-entity assignments to this CSV file")
		timeout = flag.Duration("timeout", 0, "abort the clustering job after this long (0 = none)")
		debug   = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while the tool runs")
	)
	flag.Parse()

	rects, err := readRects(filepath.Join(*dataDir, "obstacles.csv"))
	if err != nil {
		fatal(err)
	}
	pts, err := readPoints(filepath.Join(*dataDir, "entities.csv"))
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
	if err := db.AddDataset("P", pts); err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d obstacles, %d entities\n", db.NumObstacles(), len(pts))

	copts := obstacles.ClusterOptions{Eps: *eps, MinPts: *minPts, K: *k, MaxIterations: *maxIter}
	switch *algo {
	case "dbscan":
		copts.Algorithm = obstacles.DBSCAN
		fmt.Printf("DBSCAN eps=%g minpts=%d (obstructed metric)\n", *eps, *minPts)
	case "kmedoids":
		copts.Algorithm = obstacles.KMedoids
		fmt.Printf("k-medoids k=%d (obstructed metric)\n", *k)
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var qs obstacles.QueryStats
	cl, err := db.Cluster(ctx, "P", copts, obstacles.WithStats(&qs))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\n%d clusters, %d noise points\n", cl.NumClusters, cl.NoiseCount)
	printClusters(cl, pts)
	if copts.Algorithm == obstacles.KMedoids {
		fmt.Printf("total cost (sum of obstructed distances to medoids): %.1f\n", cl.Cost)
	}

	if *assign != "" {
		if err := writeAssignments(*assign, pts, cl.Assignments); err != nil {
			fatal(err)
		}
		fmt.Printf("assignments written to %s\n", *assign)
	}

	fmt.Printf("\njob: %v | pages=%d (logical=%d) | dist-comps=%d settled=%d builds=%d\n",
		qs.Elapsed, qs.PageAccesses, qs.LogicalReads, qs.DistComputations, qs.SettledNodes, qs.GraphBuilds)
}

func printClusters(cl *obstacles.Clustering, pts []obstacles.Point) {
	type row struct {
		id, size int
		cx, cy   float64
		medoid   int
	}
	rows := make([]row, cl.NumClusters)
	for c := range rows {
		rows[c] = row{id: c, medoid: -1}
	}
	for i, c := range cl.Assignments {
		if c < 0 {
			continue
		}
		rows[c].size++
		rows[c].cx += pts[i].X
		rows[c].cy += pts[i].Y
	}
	for c, md := range cl.Medoids {
		rows[c].medoid = md
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].size > rows[j].size })
	for _, r := range rows {
		if r.size == 0 {
			fmt.Printf("  cluster %d: empty\n", r.id)
			continue
		}
		cx, cy := r.cx/float64(r.size), r.cy/float64(r.size)
		if r.medoid >= 0 {
			fmt.Printf("  cluster %d: %d entities, centroid (%.1f, %.1f), medoid #%d %v\n",
				r.id, r.size, cx, cy, r.medoid, pts[r.medoid])
		} else {
			fmt.Printf("  cluster %d: %d entities, centroid (%.1f, %.1f)\n", r.id, r.size, cx, cy)
		}
	}
}

func writeAssignments(path string, pts []obstacles.Point, assign []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i, p := range pts {
		if _, err := fmt.Fprintf(w, "%g,%g,%d\n", p.X, p.Y, assign[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
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
	fmt.Fprintln(os.Stderr, "obscluster:", err)
	os.Exit(1)
}
