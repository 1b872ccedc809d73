// Command obsstore creates, inspects, checkpoints and verifies durable
// database files (see obstacles.Open).
//
// Usage:
//
//	obsstore create -db city.obs [-obstacles 1000] [-entities 2000] [-seed 1] [-dataset P]
//	obsstore create -db city.obs -obstacles-csv obstacles.csv -entities-csv entities.csv
//	obsstore inspect -db city.obs
//	obsstore checkpoint -db city.obs
//	obsstore verify -db city.obs
//	obsstore scrub -db city.obs
//	obsstore backup -db city.obs -to city-copy.obs
//	obsstore serve-metrics -db city.obs -addr localhost:6060
//
// create builds a durable file from a generated street world (obsgen's
// generator, reproducible byte-for-byte from -seed) or from CSV files
// written by obsgen. inspect prints the superblock-level stats and the
// catalog contents. checkpoint applies the WAL to the data file and
// truncates it. verify reopens the file and cross-checks a sample of
// queries against an in-memory rebuild of the same data. scrub reads every
// allocated page and verifies its checksum (v2 files; see
// obstacles.Database.Scrub), reporting corrupt pages and quarantining
// corrupt free ones so they are never handed out again — exit status 1 when
// live data is damaged. backup writes a
// consistent point-in-time copy to a fresh file (the file lock keeps tools
// out of a file a daemon holds open — back up a live obsd with its
// POST /v1/admin/backup verb instead). serve-metrics
// holds the file open and serves its telemetry — /metrics in the
// Prometheus text format, /debug/vars as JSON, pprof under /debug/pprof/ —
// until interrupted.
//
// Opening a database file — by any subcommand — first replays WAL
// transactions a crash left unapplied, exactly like obstacles.Open.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	obstacles "repro"
	"repro/internal/dataset"
	"repro/internal/geom"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "create":
		err = create(args)
	case "inspect":
		err = inspect(args)
	case "checkpoint":
		err = checkpoint(args)
	case "verify":
		err = verify(args)
	case "scrub":
		err = scrub(args)
	case "backup":
		err = backup(args)
	case "serve-metrics":
		err = serveMetrics(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: obsstore {create|inspect|checkpoint|verify|scrub|backup|serve-metrics} -db <file> [flags]")
	os.Exit(2)
}

// serveMetrics opens the database with its debug listener enabled and
// parks until interrupted, so any scraper can collect the file's telemetry
// (and pprof profiles) while other tools are kept out by the file lock.
func serveMetrics(args []string) error {
	fs := flag.NewFlagSet("serve-metrics", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	addr := fs.String("addr", "localhost:6060", "listen address (host:0 picks a free port)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("serve-metrics: -db is required")
	}
	db, err := obstacles.Open(*path, obstacles.Options{WALCheckpointBytes: -1, DebugAddr: *addr})
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Printf("serving %s telemetry on http://%s/metrics (ctrl-c to stop)\n", *path, db.DebugAddr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down")
	return db.Close()
}

func create(args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	var (
		path    = fs.String("db", "", "database file to create")
		page    = fs.Int("page", 0, "page size in bytes (0 = 4096)")
		nObst   = fs.Int("obstacles", 1000, "generated obstacle count (ignored with -obstacles-csv)")
		nEnts   = fs.Int("entities", 2000, "generated entity count (ignored with -entities-csv)")
		seed    = fs.Int64("seed", 1, "generator seed; equal seeds give byte-identical databases")
		name    = fs.String("dataset", "P", "dataset name for the entities")
		obstCSV = fs.String("obstacles-csv", "", "load obstacle rectangles from this CSV instead of generating")
		entsCSV = fs.String("entities-csv", "", "load entity points from this CSV instead of generating")
		wal     = fs.Int64("wal-checkpoint", 0, "auto-checkpoint WAL threshold in bytes (0 = default 4 MiB, negative disables)")
	)
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("create: -db is required")
	}
	if _, err := os.Stat(*path); err == nil {
		return fmt.Errorf("create: %s already exists", *path)
	}

	var rects []geom.Rect
	var ents []geom.Point
	if *obstCSV != "" {
		var err error
		if rects, err = readRects(*obstCSV); err != nil {
			return err
		}
	}
	if *entsCSV != "" {
		var err error
		if ents, err = readPoints(*entsCSV); err != nil {
			return err
		}
	}
	if rects == nil || ents == nil {
		world := dataset.Generate(dataset.DefaultConfig(*seed, *nObst))
		if rects == nil {
			rects = world.Rects
		}
		if ents == nil {
			ents = world.Entities(world.EntityRand(1), *nEnts)
		}
	}

	db, err := obstacles.Open(*path, obstacles.Options{PageSize: *page, WALCheckpointBytes: *wal})
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.AddObstacleRects(rects...); err != nil {
		return err
	}
	if err := db.AddDataset(*name, ents); err != nil {
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	src := fmt.Sprintf("seed %d; same seed creates a byte-identical file", *seed)
	if *obstCSV != "" && *entsCSV != "" {
		src = "from CSV"
	}
	fmt.Printf("created %s: %d obstacles, %d entities in dataset %q (%s)\n",
		*path, len(rects), len(ents), *name, src)
	return nil
}

func inspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("inspect: -db is required")
	}
	db, err := obstacles.Open(*path, obstacles.Options{WALCheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer db.Close()
	st := db.PersistStats()
	fmt.Printf("file:        %s\n", st.Path)
	fmt.Printf("commit seq:  %d\n", st.Seq)
	fmt.Printf("pages:       %d allocated (%d committed, pending write-back)\n", st.FilePages, st.PendingPages)
	fmt.Printf("wal:         %d bytes\n", st.WALBytes)
	// Commit/fsync counters are per-handle, and inspect's own handle
	// mutates nothing — they are shown for completeness with a pointer to
	// the tool that produces loaded numbers.
	fmt.Printf("commits:     %d this handle, %d fsyncs", st.Commits, st.Fsyncs)
	if st.Fsyncs > 0 {
		fmt.Printf(" (%.2f commits/fsync, largest batch %d, %d grouped)\n", st.AvgBatch, st.MaxBatch, st.GroupCommits)
	} else {
		fmt.Printf(" (per-handle counters; run obschurn -db ... -workers N for a loaded measurement)\n")
	}
	fmt.Printf("obstacles:   %d\n", db.NumObstacles())
	for _, name := range db.Datasets() {
		n, err := db.DatasetLen(name)
		if err != nil {
			return err
		}
		fmt.Printf("dataset %-10q %d entities\n", name, n)
	}
	return nil
}

func checkpoint(args []string) error {
	fs := flag.NewFlagSet("checkpoint", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("checkpoint: -db is required")
	}
	db, err := obstacles.Open(*path, obstacles.Options{WALCheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer db.Close()
	before := db.PersistStats()
	if err := db.Checkpoint(); err != nil {
		return err
	}
	after := db.PersistStats()
	fmt.Printf("checkpointed %s: wal %d -> %d bytes, %d pages written back\n",
		*path, before.WALBytes, after.WALBytes, before.PendingPages)
	return db.Close()
}

func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("verify: -db is required")
	}
	db, err := obstacles.Open(*path, obstacles.Options{WALCheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer db.Close()
	ctx := context.Background()
	// Query from a point outside every obstacle (a blocked query point
	// legitimately returns nothing, which would mask index damage).
	q := obstacles.Pt(0, 0)
	for try := 0; ; try++ {
		inside, err := db.InsideObstacle(q)
		if err != nil {
			return err
		}
		if !inside {
			break
		}
		if try == 64 {
			return fmt.Errorf("verify: could not find a query point outside all obstacles")
		}
		q = obstacles.Pt(q.X+137.5, q.Y+89.25)
	}
	checked := 0
	for _, name := range db.Datasets() {
		n, err := db.DatasetLen(name)
		if err != nil {
			return err
		}
		if n == 0 {
			continue
		}
		// An n-nearest-neighbors query from an unblocked point must surface
		// every entity — reachable ones in ascending obstructed-distance
		// order, sealed-off ones at +Inf — pinning the recovered index
		// against the recovered point table: a leaf lost in recovery means
		// fewer than n results.
		nn, err := db.NearestNeighbors(ctx, name, q, n)
		if err != nil {
			return err
		}
		if len(nn) != n {
			return fmt.Errorf("verify: dataset %q returned %d of %d entities — recovered index and point table disagree", name, len(nn), n)
		}
		prev := 0.0
		for _, nb := range nn {
			if math.IsNaN(nb.Distance) || nb.Distance < prev {
				return fmt.Errorf("verify: dataset %q entity %d has distance %v after %v", name, nb.ID, nb.Distance, prev)
			}
			if !math.IsInf(nb.Distance, 1) {
				prev = nb.Distance
			}
		}
		checked += len(nn)
	}
	fmt.Printf("verified %s: %d obstacles, %d entities queried, no inconsistencies\n",
		*path, db.NumObstacles(), checked)
	return nil
}

func scrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("scrub: -db is required")
	}
	db, err := obstacles.Open(*path, obstacles.Options{WALCheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer db.Close()
	rep, err := db.Scrub(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("scrubbed %s: %d pages scanned (%d live) in %s\n", *path, rep.Scanned, rep.Live, rep.Duration.Round(time.Millisecond))
	if len(rep.CorruptFree) > 0 {
		fmt.Printf("  %d corrupt free page(s) quarantined: %v\n", len(rep.Quarantined), rep.CorruptFree)
	}
	if len(rep.CorruptLive) > 0 {
		return fmt.Errorf("scrub: %d live page(s) corrupt: %v — restore from a backup", len(rep.CorruptLive), rep.CorruptLive)
	}
	fmt.Println("  all checksums good")
	return db.Close()
}

func backup(args []string) error {
	fs := flag.NewFlagSet("backup", flag.ExitOnError)
	path := fs.String("db", "", "database file")
	to := fs.String("to", "", "destination file for the copy")
	fs.Parse(args)
	if *path == "" || *to == "" {
		return fmt.Errorf("backup: -db and -to are required")
	}
	db, err := obstacles.Open(*path, obstacles.Options{WALCheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.Backup(context.Background(), *to); err != nil {
		return err
	}
	st, err := os.Stat(*to)
	if err != nil {
		return err
	}
	fmt.Printf("backed up %s to %s (%d bytes); open it like any database file\n",
		*path, *to, st.Size())
	return db.Close()
}

func readRects(path string) ([]geom.Rect, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadRects(f)
}

func readPoints(path string) ([]geom.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadPoints(f)
}
