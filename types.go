// Package obstacles is a spatial query library for datasets with movement
// obstructions, reproducing "Spatial Queries in the Presence of Obstacles"
// (Zhang, Papadias, Mouratidis, Zhu — EDBT 2004).
//
// Given a set of polygonal obstacles and one or more point datasets — all
// disk-resident and indexed by R-trees — the library answers range, k
// nearest neighbor, e-distance join and closest-pair queries under the
// obstructed distance metric: the length of the shortest path connecting
// two points without crossing any obstacle's interior. Euclidean R-tree
// algorithms produce candidates (the Euclidean distance lower-bounds the
// obstructed one) and local visibility graphs, built on-line from only the
// obstacles relevant to each query, refine them.
//
// Beyond the paper's query types, the library computes batch obstructed
// distances with one visibility-graph expansion per source (one graph for
// DistanceMatrix), and clusters datasets by obstructed distance (Cluster):
// DBSCAN density clustering and k-medoids partitioning, where entities
// separated by an obstacle wall cluster apart even when they are
// Euclidean-close.
//
// A Database is safe for concurrent use: any number of goroutines may query
// it in parallel, sharing the warm page buffers; every query builds its own
// local visibility graphs. Every query verb is context-first — cancellation
// or a deadline aborts long Dijkstra expansions mid-flight and returns
// ctx.Err() — and accepts functional options: WithStats collects per-query work counters
// (page accesses, settled nodes, graph builds, wall time), WithLimit caps
// result counts, WithFilter / WithPairFilter push predicates into the
// incremental streams. Incremental retrieval uses Go range-over-func
// sequences: Nearest (entities by ascending obstructed distance) and
// Closest (pairs, the iOCP algorithm).
//
// Mutation is multi-versioned: InsertPoints/DeletePoints and
// AddObstacles/RemoveObstacles copy only the R-tree pages they touch and
// publish a new generation atomically, never waiting for readers. Every
// read pins the generation current when it starts — one-shot verbs for one
// call, Nearest/Closest streams for the whole iteration — so a mutation
// committing mid-read neither disturbs the read nor appears in it.
// Snapshot holds a generation open across calls, and Backup writes a
// consistent copy of a durable database while it keeps serving.
//
// Quick start:
//
//	db, err := obstacles.NewDatabaseFromRects(streetMBRs, obstacles.DefaultOptions())
//	...
//	err = db.AddDataset("restaurants", restaurantPoints)
//	...
//	var qs obstacles.QueryStats
//	nns, err := db.NearestNeighbors(ctx, "restaurants", obstacles.Pt(x, y), 5,
//		obstacles.WithStats(&qs))
//	...
//	for nb, err := range db.Nearest(ctx, "restaurants", q) {
//		...
//	}
//	cl, err := db.Cluster(ctx, "restaurants", obstacles.ClusterOptions{
//		Algorithm: obstacles.DBSCAN, Eps: 500, MinPts: 4,
//	})
//
// See the examples directory for complete programs.
package obstacles

import (
	"repro/internal/geom"
)

// Point is a location in the plane.
type Point = geom.Point

// Rect is an axis-aligned rectangle (e.g. a street-segment MBR).
type Rect = geom.Rect

// Polygon is a simple polygon used as an obstacle.
type Polygon = geom.Polygon

// Pt returns the point (x, y).
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// R returns the rectangle [minx, maxx] x [miny, maxy].
func R(minx, miny, maxx, maxy float64) Rect { return geom.R(minx, miny, maxx, maxy) }

// NewPolygon builds an obstacle polygon from its vertices (any orientation;
// at least three, pairwise-distinct consecutive vertices).
func NewPolygon(vertices []Point) (Polygon, error) { return geom.NewPolygon(vertices) }

// RectPolygon converts a rectangle to a four-vertex obstacle polygon.
func RectPolygon(r Rect) Polygon { return geom.RectPolygon(r) }
