// Command obsctl is obsd's offline companion: it creates, inspects,
// checkpoints, scrubs and backs up durable database files (see
// obstacles.Open), generates the evaluation's CSV datasets, reproduces the
// paper's figures, and sends one request to a database file through obsd's
// own HTTP handler.
//
// Usage:
//
//	obsctl create -db city.obs [-obstacles 1000] [-entities 2000] [-seed 1] [-dataset P]
//	obsctl create -db city.obs -obstacles-csv obstacles.csv -entities-csv entities.csv
//	obsctl inspect -db city.obs
//	obsctl checkpoint -db city.obs
//	obsctl scrub -db city.obs
//	obsctl backup -db city.obs -to city-copy.obs
//	obsctl gen [-obstacles 131461] [-entities 131461] [-queries 200] [-seed 1] [-out data/]
//	obsctl figures [-obstacles 10000] [-workload 100] [-seed 1] [-figure all]
//	               [-markdown] [-quick] [-pagesize 4096] [-buffer 0.1]
//	obsctl request -db city.obs METHOD PATH [JSON]
//
// create builds a durable file from a generated street world (reproducible
// byte-for-byte from -seed) or from the two CSV files gen writes; a world
// comes whole from one source, so the two CSV flags go together. inspect
// prints the superblock-level stats and the catalog contents. checkpoint
// applies the WAL to the data file and truncates it. scrub cross-checks
// every tree against its table — each tree's invariants, and leaves that
// hold exactly the live ids under their items' bounds, the obstacle polygons
// included, since the obstacle trees are their store — then reads every
// allocated page and verifies its checksum (see obstacles.Database.Scrub),
// quarantining corrupt free pages so they are never handed out again; it is
// an error when live data is damaged or an index disagrees. backup writes a
// consistent point-in-time copy to a fresh file (the file lock keeps tools
// out of a file a daemon holds open — back up a live obsd with its
// POST /v1/admin/backup verb instead).
//
// gen writes obstacles.csv ("minx,miny,maxx,maxy" per line), entities.csv
// and queries.csv ("x,y" per line) under -out: the street-map obstacle set
// (the Los Angeles street-MBR surrogate) plus entity and query points
// following the obstacle distribution. The same -seed with the same counts
// always writes identical files.
//
// figures reproduces Section 7 of "Spatial Queries in the Presence of
// Obstacles" (EDBT 2004): one table per figure (Figs 13-22), reporting page
// accesses per R-tree, CPU time and false-hit ratios over the paper's
// parameter grids. -figure selects one figure ("13".."22") or "all". -quick
// shrinks the dataset and workload for a fast sanity run, and raises the
// join grids of Figs 19-21 so that every row has candidates. At -obstacles
// 131461 -workload 200 the run matches the paper's setup exactly.
//
// request serves one request from the file through obsd's handler, in
// process: every obsd route works (query, cluster and mutation verbs, admin
// verbs, GET /metrics, /debug/vars), and the response body is printed as
// the daemon would send it. A non-2xx status is an error, after the body.
//
//	obsctl request -db city.obs POST /v1/datasets/P/nearest '{"q":[500,400],"k":3}'
//	obsctl request -db city.obs POST /v1/datasets/P/cluster '{"algorithm":"dbscan","eps":150,"minpts":4}'
//	obsctl request -db city.obs GET /metrics
//
// Opening a database file — by any subcommand — first replays WAL
// transactions a crash left unapplied, exactly like obstacles.Open.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	obstacles "repro"
	"repro/internal/dataset"
	"repro/internal/expt"
	"repro/internal/geom"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "obsctl:", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("usage: obsctl {create|inspect|checkpoint|scrub|backup|gen|figures|request} [flags]")

// run executes one subcommand, args[0], writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	cmd, ok := map[string]func([]string, io.Writer) error{
		"create":     create,
		"inspect":    inspect,
		"checkpoint": checkpoint,
		"scrub":      scrub,
		"backup":     backup,
		"gen":        gen,
		"figures":    figures,
		"request":    request,
	}[args[0]]
	if !ok {
		return errUsage
	}
	return cmd(args[1:], stdout)
}

// openDB parses a subcommand's flags plus the -db it requires, runs check
// (nil for none) on the rest, and opens the file with auto-checkpointing off.
func openDB(fs *flag.FlagSet, args []string, check func() error) (*obstacles.Database, string, error) {
	path := fs.String("db", "", "database file")
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	if *path == "" {
		return nil, "", fmt.Errorf("%s: -db is required", fs.Name())
	}
	if check != nil {
		if err := check(); err != nil {
			return nil, "", err
		}
	}
	db, err := obstacles.Open(*path, obstacles.Options{WALCheckpointBytes: -1})
	return db, *path, err
}

func create(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("create", flag.ContinueOnError)
	var (
		path    = fs.String("db", "", "database file to create")
		page    = fs.Int("page", 0, "page size in bytes (0 = 4096)")
		nObst   = fs.Int("obstacles", 1000, "generated obstacle count (ignored with -obstacles-csv)")
		nEnts   = fs.Int("entities", 2000, "generated entity count (ignored with -entities-csv)")
		seed    = fs.Int64("seed", 1, "generator seed; equal seeds give byte-identical databases")
		name    = fs.String("dataset", "P", "dataset name for the entities")
		obstCSV = fs.String("obstacles-csv", "", "load obstacle rectangles from this CSV instead of generating (needs -entities-csv)")
		entsCSV = fs.String("entities-csv", "", "load entity points from this CSV instead of generating (needs -obstacles-csv)")
		wal     = fs.Int64("wal-checkpoint", 0, "auto-checkpoint WAL threshold in bytes (0 = default 4 MiB, negative disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("create: -db is required")
	}
	// Generated entities follow the generated street map, not a loaded one:
	// mixing sources could place entities inside loaded obstacles.
	if (*obstCSV == "") != (*entsCSV == "") {
		return fmt.Errorf("create: -obstacles-csv and -entities-csv go together: give both or neither")
	}
	if _, err := os.Stat(*path); err == nil {
		return fmt.Errorf("create: %s already exists", *path)
	}

	var rects []geom.Rect
	var ents []geom.Point
	src := fmt.Sprintf("seed %d; same seed creates a byte-identical file", *seed)
	if *obstCSV != "" {
		var err error
		if rects, err = readCSV(*obstCSV, dataset.ReadRects); err != nil {
			return err
		}
		if ents, err = readCSV(*entsCSV, dataset.ReadPoints); err != nil {
			return err
		}
		src = "from CSV"
	} else {
		world := dataset.Generate(dataset.DefaultConfig(*seed, *nObst))
		rects, ents = world.Rects, world.Entities(world.EntityRand(1), *nEnts)
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
	fmt.Fprintf(stdout, "created %s: %d obstacles, %d entities in dataset %q (%s)\n",
		*path, len(rects), len(ents), *name, src)
	return nil
}

func inspect(args []string, stdout io.Writer) error {
	db, _, err := openDB(flag.NewFlagSet("inspect", flag.ContinueOnError), args, nil)
	if err != nil {
		return err
	}
	defer db.Close()
	st := db.PersistStats()
	fmt.Fprintf(stdout, "file:        %s\n", st.Path)
	fmt.Fprintf(stdout, "commit seq:  %d\n", st.Seq)
	fmt.Fprintf(stdout, "pages:       %d allocated (%d committed, pending write-back)\n", st.FilePages, st.PendingPages)
	fmt.Fprintf(stdout, "wal:         %d bytes\n", st.WALBytes)
	fmt.Fprintf(stdout, "obstacles:   %d\n", db.NumObstacles())
	for _, name := range db.Datasets() {
		n, err := db.DatasetLen(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "dataset %-10q %d entities\n", name, n)
	}
	return nil
}

func checkpoint(args []string, stdout io.Writer) error {
	db, path, err := openDB(flag.NewFlagSet("checkpoint", flag.ContinueOnError), args, nil)
	if err != nil {
		return err
	}
	defer db.Close()
	before := db.PersistStats()
	if err := db.Checkpoint(); err != nil {
		return err
	}
	after := db.PersistStats()
	fmt.Fprintf(stdout, "checkpointed %s: wal %d -> %d bytes, %d pages written back\n",
		path, before.WALBytes, after.WALBytes, before.PendingPages)
	return db.Close()
}

func scrub(args []string, stdout io.Writer) error {
	db, path, err := openDB(flag.NewFlagSet("scrub", flag.ContinueOnError), args, nil)
	if err != nil {
		return err
	}
	defer db.Close()
	rep, err := db.Scrub(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "scrubbed %s: %d pages scanned (%d live) in %s\n", path, rep.Scanned, rep.Live, rep.Duration.Round(time.Millisecond))
	if len(rep.CorruptFree) > 0 {
		fmt.Fprintf(stdout, "  %d corrupt free page(s) quarantined: %v\n", len(rep.Quarantined), rep.CorruptFree)
	}
	for _, msg := range rep.Inconsistent {
		fmt.Fprintf(stdout, "  inconsistent: %s\n", msg)
	}
	if len(rep.CorruptLive) > 0 {
		return fmt.Errorf("scrub: %d live page(s) corrupt: %v — restore from a backup", len(rep.CorruptLive), rep.CorruptLive)
	}
	if len(rep.Inconsistent) > 0 {
		return fmt.Errorf("scrub: %d index check(s) failed — restore from a backup", len(rep.Inconsistent))
	}
	fmt.Fprintln(stdout, "  every tree matches its table, all checksums good")
	return db.Close()
}

func backup(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("backup", flag.ContinueOnError)
	to := fs.String("to", "", "destination file for the copy")
	db, path, err := openDB(fs, args, func() error {
		if *to == "" {
			return fmt.Errorf("backup: -to is required")
		}
		return nil
	})
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
	fmt.Fprintf(stdout, "backed up %s to %s (%d bytes); open it like any database file\n",
		path, *to, st.Size())
	return db.Close()
}

// request serves one METHOD PATH [JSON] request from the -db file through
// obsd's handler and prints the response body; a non-2xx status is an error.
func request(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("request", flag.ContinueOnError)
	db, _, err := openDB(fs, args, func() error {
		if fs.NArg() < 2 || fs.NArg() > 3 {
			return fmt.Errorf("usage: obsctl request -db FILE METHOD PATH [JSON]")
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer db.Close()
	method, path, body := fs.Arg(0), fs.Arg(1), fs.Arg(2) // Arg is "" past the end
	req, err := http.NewRequest(method, path, strings.NewReader(body))
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	server.New(db, server.Config{}).ServeHTTP(rec, req)
	stdout.Write(rec.Body.Bytes())
	if rec.Code < 200 || rec.Code > 299 {
		return fmt.Errorf("request: %s %s: status %d", method, path, rec.Code)
	}
	return db.Close()
}

func gen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var (
		nObst    = fs.Int("obstacles", 131461, "number of street-MBR obstacles (paper: 131461)")
		nEnts    = fs.Int("entities", 131461, "number of entity points")
		nQueries = fs.Int("queries", 200, "number of query points (paper workload: 200)")
		seed     = fs.Int64("seed", 1, "generator seed")
		universe = fs.Float64("universe", 10000, "universe side length")
		uniform  = fs.Bool("uniform", false, "entities uniform in free space instead of obstacle-correlated")
		out      = fs.String("out", ".", "output directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := dataset.DefaultConfig(*seed, *nObst)
	cfg.Universe = *universe
	world := dataset.Generate(cfg)
	points := world.Entities
	if *uniform {
		points = world.UniformPoints
	}
	ents := points(world.EntityRand(1), *nEnts)
	qs := world.Queries(world.EntityRand(2), *nQueries)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for name, write := range map[string]func(io.Writer) error{
		"obstacles.csv": func(w io.Writer) error { return dataset.WriteRects(w, world.Rects) },
		"entities.csv":  func(w io.Writer) error { return dataset.WritePoints(w, ents) },
		"queries.csv":   func(w io.Writer) error { return dataset.WritePoints(w, qs) },
	} {
		if err := writeFile(filepath.Join(*out, name), write); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "wrote %d obstacles, %d entities, %d queries to %s (seed %d; same seed reproduces these files byte-for-byte)\n",
		len(world.Rects), len(ents), len(qs), *out, *seed)
	return nil
}

func figures(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		nObst    = fs.Int("obstacles", 10000, "obstacle cardinality |O| (paper: 131461)")
		workload = fs.Int("workload", 100, "queries per workload (paper: 200)")
		seed     = fs.Int64("seed", 1, "dataset/workload seed")
		pageSize = fs.Int("pagesize", 4096, "R-tree page size in bytes")
		buffer   = fs.Float64("buffer", 0.10, "LRU buffer fraction per tree")
		figure   = fs.String("figure", "all", `figure to run: "13".."22" or "all"`)
		markdown = fs.Bool("markdown", false, "emit Markdown tables")
		quick    = fs.Bool("quick", false, "tiny configuration for a fast sanity run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := expt.Config{
		Seed:          *seed,
		ObstacleCount: *nObst,
		Workload:      *workload,
		PageSize:      *pageSize,
		BufferFrac:    *buffer,
	}
	if *quick {
		cfg.ObstacleCount = 2000
		cfg.Workload = 20
	}
	fmt.Fprintf(os.Stderr, "figures: |O|=%d universe=%.0f workload=%d pagesize=%d buffer=%.0f%%\n",
		cfg.ObstacleCount, cfg.Universe(), cfg.Workload, cfg.PageSize, cfg.BufferFrac*100)

	start := time.Now()
	suite, err := expt.NewSuite(cfg)
	if err != nil {
		return err
	}
	if *quick {
		// At |O| = 2000 the paper's smallest joins pair no entities at all:
		// shift Figs 19-21's grids up until every row has candidates.
		suite.JoinRatios = []float64{0.2, 0.5, 1, 2, 5}
		suite.JoinRanges = []float64{0.02, 0.05, 0.1, 0.2, 0.5}
	}
	fmt.Fprintf(os.Stderr, "figures: world built in %v\n", time.Since(start).Round(time.Millisecond))

	tables, err := runFigures(suite, *figure)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if *markdown {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			fmt.Fprintln(stdout, t.String())
		}
	}
	fmt.Fprintf(os.Stderr, "figures: done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runFigures(s *expt.Suite, which string) ([]expt.Table, error) {
	which = strings.ToLower(which)
	if which == "all" || which == "" {
		return s.RunAll()
	}
	if run, ok := map[string]func() (expt.Table, error){
		"13": s.RunFig13, "14": s.RunFig14, "16": s.RunFig16, "17": s.RunFig17,
		"19": s.RunFig19, "20": s.RunFig20, "21": s.RunFig21, "22": s.RunFig22,
	}[which]; ok {
		t, err := run()
		return []expt.Table{t}, err
	}
	if run, ok := map[string]func() (expt.Table, expt.Table, error){
		"15": s.RunFig15, "18": s.RunFig18,
	}[which]; ok {
		a, b, err := run()
		return []expt.Table{a, b}, err
	}
	return nil, fmt.Errorf("unknown figure %q (want 13..22 or all)", which)
}

func readCSV[T any](path string, read func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
