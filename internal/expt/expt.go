// Package expt is the experiment harness reproducing Section 7 of the
// paper: one driver per figure (Figs 13-22), each producing a table with
// the same axes and metrics the paper plots — page accesses per R-tree, CPU
// time, and false-hit ratios, as functions of cardinality ratio, range e,
// or k.
//
// Scaling: the paper evaluates |O| = 131,461 Los Angeles street MBRs in a
// fixed universe. To keep per-query behaviour comparable at smaller
// cardinalities (quick runs), the harness holds the paper's obstacle
// density constant: the universe side scales with sqrt(|O| / 131,461). All
// e parameters are expressed as a percentage of the universe side, exactly
// as in the paper.
package expt

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// PaperObstacleCount is the cardinality of the paper's obstacle dataset.
const PaperObstacleCount = 131461

// PaperUniverse is the universe side length used at full scale.
const PaperUniverse = 10000.0

// Config parameterizes a harness run.
type Config struct {
	// Seed drives dataset generation and workloads.
	Seed int64
	// ObstacleCount is |O| (paper: 131,461).
	ObstacleCount int
	// Workload is the number of queries per workload (paper: 200).
	Workload int
	// PageSize is the R-tree page size in bytes (paper: 4096).
	PageSize int
	// BufferFrac sizes each LRU buffer relative to its tree (paper: 0.10).
	BufferFrac float64
}

// DefaultConfig returns a scaled-down configuration suitable for minutes,
// not hours. Set ObstacleCount to PaperObstacleCount and Workload to 200
// for the full-scale reproduction.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		ObstacleCount: 10000,
		Workload:      100,
		PageSize:      4096,
		BufferFrac:    0.10,
	}
}

// Universe returns the side length of the data space for this config (see
// the package comment for the density-preserving rule).
func (c Config) Universe() float64 {
	return PaperUniverse * math.Sqrt(float64(c.ObstacleCount)/PaperObstacleCount)
}

// Row is one x-axis point of a reproduced figure.
type Row struct {
	// X is the x-axis value (a ratio, an e percentage, or k).
	X string
	// DataIO is entity R-tree page accesses (per query for OR/ONN
	// workloads; per operation for joins), summed over both entity trees
	// for join/closest-pair experiments, as in the paper's "data R-trees".
	DataIO float64
	// ObstIO is obstacle R-tree page accesses.
	ObstIO float64
	// ObstSplit is ObstIO by caller, on the same scale: point queries,
	// opening range scans and Fig 8 enlargements (core.ObstacleReads).
	ObstSplit [3]float64
	// CPUms is wall-clock time in milliseconds.
	CPUms float64
	// FalseHitRatio is false hits / results (OR) or misranked Euclidean
	// kNNs / k (ONN); NaN when not applicable.
	FalseHitRatio float64
	// Candidates and Results describe output sizes.
	Candidates, Results float64
}

// Table is one reproduced figure.
type Table struct {
	ID     string // e.g. "Fig 13"
	Title  string
	XLabel string
	Rows   []Row
	// PaperShape documents the qualitative behaviour the paper reports for
	// this figure, for EXPERIMENTS.md comparison.
	PaperShape string
}

// perCandidate returns the obstacle page accesses per candidate ("-" for a
// row without candidates) and the split by caller, rendered.
func (r Row) perCandidate() (string, string) {
	per := "-"
	if r.Candidates > 0 {
		per = fmt.Sprintf("%.2f", r.ObstIO/r.Candidates)
	}
	return per, fmt.Sprintf("%.1f/%.1f/%.1f", r.ObstSplit[0], r.ObstSplit[1], r.ObstSplit[2])
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %12s %12s %12s %12s %20s\n",
		t.XLabel, "dataIO", "obstIO", "CPU(ms)", "FH-ratio", "cand", "results", "obstIO/cand", "point/scan/enlarge")
	for _, r := range t.Rows {
		fh := "-"
		if !math.IsNaN(r.FalseHitRatio) {
			fh = fmt.Sprintf("%.3f", r.FalseHitRatio)
		}
		per, split := r.perCandidate()
		fmt.Fprintf(&b, "%-12s %12.2f %12.2f %12.3f %12s %12.1f %12.1f %12s %20s\n",
			r.X, r.DataIO, r.ObstIO, r.CPUms, fh, r.Candidates, r.Results, per, split)
	}
	return b.String()
}

// Markdown renders the table as a Markdown table for EXPERIMENTS.md.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s — %s**\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "| %s | data R-tree I/O | obstacle R-tree I/O | CPU (ms) | false-hit ratio | candidates | results | obstacle I/O per candidate | point / scan / enlarge |\n", t.XLabel)
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range t.Rows {
		fh := "—"
		if !math.IsNaN(r.FalseHitRatio) {
			fh = fmt.Sprintf("%.3f", r.FalseHitRatio)
		}
		per, split := r.perCandidate()
		fmt.Fprintf(&b, "| %s | %.2f | %.2f | %.3f | %s | %.1f | %.1f | %s | %s |\n",
			r.X, r.DataIO, r.ObstIO, r.CPUms, fh, r.Candidates, r.Results, per, split)
	}
	if t.PaperShape != "" {
		fmt.Fprintf(&b, "\nPaper shape: %s\n", t.PaperShape)
	}
	return b.String()
}

// Lab owns the generated world and index structures shared by the figure
// drivers, caching entity sets by cardinality.
type Lab struct {
	cfg     Config
	world   *dataset.World
	obstSet *core.ObstacleSet
	engine  *core.Engine
	queries []geom.Point
	ents    map[int]*core.PointSet
}

// NewLab generates the obstacle world and builds its R-tree.
func NewLab(cfg Config) (*Lab, error) {
	dcfg := dataset.DefaultConfig(cfg.Seed, cfg.ObstacleCount)
	dcfg.Universe = cfg.Universe()
	world := dataset.Generate(dcfg)
	obstSet, err := core.NewObstacleSet(rtree.Options{PageSize: cfg.PageSize}, world.Polys, true)
	if err != nil {
		return nil, fmt.Errorf("expt: obstacle index: %w", err)
	}
	setBuffer(obstSet.Tree(), cfg.BufferFrac)
	eng := core.NewEngine(obstSet, core.DefaultEngineOptions())
	return &Lab{
		cfg:     cfg,
		world:   world,
		obstSet: obstSet,
		engine:  eng,
		queries: world.Queries(world.EntityRand(9999), cfg.Workload),
		ents:    make(map[int]*core.PointSet),
	}, nil
}

func setBuffer(t *rtree.Tree, frac float64) {
	pages := int(math.Ceil(float64(t.NumPages()) * frac))
	if pages < 1 {
		pages = 1
	}
	_ = t.PageFile().SetBufferPages(pages)
}

// Config returns the lab configuration.
func (l *Lab) Config() Config { return l.cfg }

// Engine returns the query engine.
func (l *Lab) Engine() *core.Engine { return l.engine }

// Queries returns the query workload points.
func (l *Lab) Queries() []geom.Point { return l.queries }

// Universe returns the universe side length.
func (l *Lab) Universe() float64 { return l.world.Universe() }

// EntitySet returns (building and caching) an entity dataset of the given
// cardinality, following the obstacle distribution.
func (l *Lab) EntitySet(card int) (*core.PointSet, error) {
	if card < 1 {
		card = 1
	}
	if ps, ok := l.ents[card]; ok {
		return ps, nil
	}
	pts := l.world.Entities(l.world.EntityRand(int64(card)), card)
	ps, err := core.NewPointSet(rtree.Options{PageSize: l.cfg.PageSize}, pts, true)
	if err != nil {
		return nil, fmt.Errorf("expt: entity index (n=%d): %w", card, err)
	}
	setBuffer(ps.Tree(), l.cfg.BufferFrac)
	l.ents[card] = ps
	return ps, nil
}

// ERadius converts an e percentage to a distance. The percentage is taken
// of the full-scale (paper) universe side, i.e. it is an absolute radius:
// with obstacle density held constant (see the package comment), each query
// then sees exactly the same local world — obstacles per range, visibility
// graph size — as in the paper, regardless of the configured |O|; scaling
// only shrinks the map extent and the R-tree sizes.
func (l *Lab) ERadius(pct float64) float64 { return PaperUniverse * pct / 100 }

// resetStats zeroes the I/O counters of the obstacle tree and the given
// entity trees (buffers stay warm, modelling a running system).
func (l *Lab) resetStats(sets ...*core.PointSet) {
	l.obstSet.Tree().PageFile().ResetStats()
	for _, s := range sets {
		s.Tree().PageFile().ResetStats()
	}
}

// measureWorkload runs fn once per workload query, each on a fresh session,
// and averages I/O and time per query.
func (l *Lab) measureWorkload(sets []*core.PointSet, fn func(sess *core.Session, q geom.Point) (core.Stats, error)) (Row, error) {
	l.resetStats(sets...)
	var agg core.Stats
	start := time.Now()
	for _, q := range l.queries {
		st, err := fn(l.engine.NewSession(context.Background()), q)
		if err != nil {
			return Row{}, err
		}
		agg.Merge(st)
	}
	elapsed := time.Since(start)
	n := float64(len(l.queries))
	var dataIO uint64
	for _, s := range sets {
		dataIO += s.Tree().PageFile().Stats().PhysicalReads
	}
	obstIO := l.obstSet.Tree().PageFile().Stats().PhysicalReads
	fh := math.NaN()
	if agg.Results > 0 {
		fh = float64(agg.FalseHits) / float64(agg.Results)
	}
	return Row{
		DataIO:        float64(dataIO) / n,
		ObstIO:        float64(obstIO) / n,
		ObstSplit:     obstSplit(agg.ObstReads, n),
		CPUms:         float64(elapsed.Microseconds()) / 1000 / n,
		FalseHitRatio: fh,
		Candidates:    float64(agg.Candidates) / n,
		Results:       float64(agg.Results) / n,
	}, nil
}

// obstSplit is a query's obstacle reads by caller, divided by n.
func obstSplit(r core.ObstacleReads, n float64) [3]float64 {
	return [3]float64{float64(r.PointQuery) / n, float64(r.Scan) / n, float64(r.Enlarge) / n}
}

// measureOnce runs one whole operation (a join or closest-pair query) and
// reports its total I/O and time.
func (l *Lab) measureOnce(sets []*core.PointSet, fn func(sess *core.Session) (core.Stats, error)) (Row, error) {
	l.resetStats(sets...)
	start := time.Now()
	st, err := fn(l.engine.NewSession(context.Background()))
	if err != nil {
		return Row{}, err
	}
	elapsed := time.Since(start)
	var dataIO uint64
	for _, s := range sets {
		dataIO += s.Tree().PageFile().Stats().PhysicalReads
	}
	obstIO := l.obstSet.Tree().PageFile().Stats().PhysicalReads
	fh := math.NaN()
	if st.Results > 0 {
		fh = float64(st.FalseHits) / float64(st.Results)
	}
	return Row{
		DataIO:        float64(dataIO),
		ObstIO:        float64(obstIO),
		ObstSplit:     obstSplit(st.ObstReads, 1),
		CPUms:         float64(elapsed.Microseconds()) / 1000,
		FalseHitRatio: fh,
		Candidates:    float64(st.Candidates),
		Results:       float64(st.Results),
	}, nil
}
