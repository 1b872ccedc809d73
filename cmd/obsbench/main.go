// Command obsbench reproduces the experimental evaluation of "Spatial
// Queries in the Presence of Obstacles" (EDBT 2004): one table per figure
// of Section 7 (Figs 13-22), reporting page accesses per R-tree, CPU time
// and false-hit ratios over the same parameter grids as the paper.
//
// Usage:
//
//	obsbench [-obstacles 10000] [-workload 100] [-seed 1] [-figure all]
//	         [-markdown] [-quick] [-pagesize 4096] [-buffer 0.1]
//
// -figure selects one figure ("13".."22") or "all". -quick shrinks the
// dataset and workload for a fast sanity run, and raises the join grids of
// Figs 19-21 so that every row has candidates. At -obstacles 131461
// -workload 200 the run matches the paper's setup exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/expt"
)

func main() {
	var (
		obstacles = flag.Int("obstacles", 10000, "obstacle cardinality |O| (paper: 131461)")
		workload  = flag.Int("workload", 100, "queries per workload (paper: 200)")
		seed      = flag.Int64("seed", 1, "dataset/workload seed")
		pageSize  = flag.Int("pagesize", 4096, "R-tree page size in bytes")
		buffer    = flag.Float64("buffer", 0.10, "LRU buffer fraction per tree")
		figure    = flag.String("figure", "all", `figure to run: "13".."22" or "all"`)
		markdown  = flag.Bool("markdown", false, "emit Markdown tables (for EXPERIMENTS.md)")
		quick     = flag.Bool("quick", false, "tiny configuration for a fast sanity run")
	)
	flag.Parse()

	cfg := expt.Config{
		Seed:          *seed,
		ObstacleCount: *obstacles,
		Workload:      *workload,
		PageSize:      *pageSize,
		BufferFrac:    *buffer,
	}
	if *quick {
		cfg.ObstacleCount = 2000
		cfg.Workload = 20
	}

	fmt.Fprintf(os.Stderr, "obsbench: |O|=%d universe=%.0f workload=%d pagesize=%d buffer=%.0f%%\n",
		cfg.ObstacleCount, cfg.Universe(), cfg.Workload, cfg.PageSize, cfg.BufferFrac*100)

	start := time.Now()
	suite, err := expt.NewSuite(cfg)
	if err != nil {
		fatal(err)
	}
	if *quick {
		// At |O| = 2000 the paper's smallest joins pair no entities at all:
		// shift Figs 19-21's grids up until every row has candidates.
		suite.JoinRatios = []float64{0.2, 0.5, 1, 2, 5}
		suite.JoinRanges = []float64{0.02, 0.05, 0.1, 0.2, 0.5}
	}
	fmt.Fprintf(os.Stderr, "obsbench: world built in %v\n", time.Since(start).Round(time.Millisecond))

	tables, err := runFigures(suite, *figure)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
	}
	fmt.Fprintf(os.Stderr, "obsbench: done in %v\n", time.Since(start).Round(time.Millisecond))
}

func runFigures(s *expt.Suite, which string) ([]expt.Table, error) {
	run1 := func(f func() (expt.Table, error)) ([]expt.Table, error) {
		t, err := f()
		if err != nil {
			return nil, err
		}
		return []expt.Table{t}, nil
	}
	run2 := func(f func() (expt.Table, expt.Table, error)) ([]expt.Table, error) {
		a, b, err := f()
		if err != nil {
			return nil, err
		}
		return []expt.Table{a, b}, nil
	}
	switch strings.ToLower(which) {
	case "all", "":
		return s.RunAll()
	case "13":
		return run1(s.RunFig13)
	case "14":
		return run1(s.RunFig14)
	case "15":
		return run2(s.RunFig15)
	case "16":
		return run1(s.RunFig16)
	case "17":
		return run1(s.RunFig17)
	case "18":
		return run2(s.RunFig18)
	case "19":
		return run1(s.RunFig19)
	case "20":
		return run1(s.RunFig20)
	case "21":
		return run1(s.RunFig21)
	case "22":
		return run1(s.RunFig22)
	default:
		return nil, fmt.Errorf("unknown figure %q (want 13..22 or all)", which)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obsbench:", err)
	os.Exit(1)
}
