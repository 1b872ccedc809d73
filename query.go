package obstacles

import (
	"time"

	"repro/internal/core"
)

// QueryStats reports the work one query performed, valid even while other
// queries run concurrently. Collect it by passing WithStats(&qs) to any
// query verb.
type QueryStats struct {
	// PageAccesses counts R-tree page reads that missed the LRU buffers —
	// the metric the paper's experiments plot — summed over the obstacle
	// tree and every dataset tree this query touched.
	PageAccesses uint64
	// LogicalReads counts all node reads, including buffer hits.
	LogicalReads uint64
	// BufferHits counts reads served by the warm buffers.
	BufferHits uint64
	// Candidates is the number of Euclidean candidates examined.
	Candidates int
	// Results is the number of qualifying answers produced by the engine
	// (before WithFilter/WithLimit post-processing).
	Results int
	// FalseHits counts Euclidean candidates eliminated by the obstructed
	// metric.
	FalseHits int
	// DistComputations counts obstructed-distance computations (Fig 8).
	DistComputations int
	// GraphNodes and GraphEdges describe the largest visibility graph the
	// query worked on. GraphEdges counts materialised edges only: visibility
	// is computed at the nodes a search expands, so a graph holds the edges
	// its searches needed, not the full visibility graph's.
	GraphNodes, GraphEdges int
	// SettledNodes counts visibility-graph nodes settled by searches.
	SettledNodes uint64
	// Expansions counts graph searches (Dijkstra or A* runs).
	Expansions uint64
	// GraphBuilds counts visibility-graph constructions (nodes only).
	GraphBuilds uint64
	// Sweeps counts per-node visibility passes — the dominant refinement
	// cost: one per node a search expands for the first time, and one per
	// query or data point added to a graph after some pass, the first time a
	// search uses it.
	Sweeps uint64
	// Walks counts the visibility tests the passes made that the last
	// obstacle to block one did not settle: grid walks. Unlike time, it does
	// not depend on the host.
	Walks uint64
	// Elapsed is the query's wall-clock duration.
	Elapsed time.Duration
}

// QueryOption tunes one query call. Options are accepted by every query
// verb; options that do not apply to a verb (e.g. WithFilter on a join) are
// ignored there.
type QueryOption func(*queryConfig)

type queryConfig struct {
	stats      *QueryStats
	limit      int
	filter     func(Neighbor) bool
	pairFilter func(Pair) bool
}

func applyOptions(opts []QueryOption) queryConfig {
	cfg := queryConfig{limit: -1}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithStats collects per-query work counters into qs. The struct is
// overwritten when the query finishes; it must not be shared between
// concurrent queries.
func WithStats(qs *QueryStats) QueryOption {
	return func(c *queryConfig) { c.stats = qs }
}

// WithLimit caps the number of results returned. Result sets ordered by
// distance keep the closest n; iterator sequences stop after n elements.
// n <= 0 removes the cap.
func WithLimit(n int) QueryOption {
	return func(c *queryConfig) {
		if n <= 0 {
			n = -1
		}
		c.limit = n
	}
}

// WithFilter keeps only neighbors satisfying pred. Applies to Range,
// NearestNeighbors and Nearest; for NearestNeighbors the k results are the k
// closest entities that satisfy pred (evaluated on the incremental stream),
// not a filtered subset of the unfiltered kNN set.
//
// pred runs on the query's pinned generation; it may call back into the
// Database (reads never block mutators), but such a re-entrant query reads
// the then-current generation, not the outer query's pin — capture plain
// data or use a Snapshot when the predicate needs a consistent view.
func WithFilter(pred func(Neighbor) bool) QueryOption {
	return func(c *queryConfig) { c.filter = pred }
}

// WithPairFilter keeps only pairs satisfying pred. Applies to DistanceJoin,
// ClosestPairs and Closest; for ClosestPairs the k results are the k closest
// pairs that satisfy pred. Like WithFilter, pred must not call back into
// the Database.
func WithPairFilter(pred func(Pair) bool) QueryOption {
	return func(c *queryConfig) { c.pairFilter = pred }
}

// record fills cfg.stats (when requested) from the call's counters.
func (cfg *queryConfig) record(st core.Stats, start time.Time) {
	if cfg.stats == nil {
		return
	}
	*cfg.stats = QueryStats{
		PageAccesses:     st.IO.PhysicalReads,
		LogicalReads:     st.IO.LogicalReads,
		BufferHits:       st.IO.BufferHits,
		Candidates:       st.Candidates,
		Results:          st.Results,
		FalseHits:        st.FalseHits,
		DistComputations: st.DistComputations,
		GraphNodes:       st.GraphNodes,
		GraphEdges:       st.GraphEdges,
		SettledNodes:     st.SettledNodes,
		Expansions:       st.Expansions,
		GraphBuilds:      st.GraphBuilds,
		Sweeps:           st.Sweeps,
		Walks:            st.Walks,
		Elapsed:          time.Since(start),
	}
}

// applyNeighborOpts applies WithFilter and WithLimit to a distance-sorted
// neighbor list.
func (cfg *queryConfig) applyNeighborOpts(nbs []Neighbor) []Neighbor {
	if cfg.filter != nil {
		kept := nbs[:0]
		for _, nb := range nbs {
			if cfg.filter(nb) {
				kept = append(kept, nb)
			}
		}
		nbs = kept
	}
	if cfg.limit >= 0 && len(nbs) > cfg.limit {
		nbs = nbs[:cfg.limit]
	}
	return nbs
}

// applyPairOpts applies WithPairFilter and WithLimit to a distance-sorted
// pair list.
func (cfg *queryConfig) applyPairOpts(ps []Pair) []Pair {
	if cfg.pairFilter != nil {
		kept := ps[:0]
		for _, p := range ps {
			if cfg.pairFilter(p) {
				kept = append(kept, p)
			}
		}
		ps = kept
	}
	if cfg.limit >= 0 && len(ps) > cfg.limit {
		ps = ps[:cfg.limit]
	}
	return ps
}
