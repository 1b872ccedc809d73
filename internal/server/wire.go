package server

import (
	"encoding/json"
	"fmt"
	"math"

	obstacles "repro"
)

// This file defines the HTTP/JSON wire schema of the obsd daemon. Points
// travel as two-element arrays [x, y]; distances travel as JSON numbers,
// except the Unreachable sentinel (+Inf), which encoding/json cannot
// represent and which is therefore encoded as the string "Infinity" (both
// directions; see Dist). Every error response is the Error envelope below
// with a machine-readable code.

// Error is the structured error envelope every non-2xx response carries:
//
//	{"error": {"code": "deadline_exceeded", "message": "..."}}
type Error struct {
	// Code is one of the Code* constants — stable, machine-matchable.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Wire error codes, with the HTTP status each maps to.
const (
	// CodeBadRequest (400): malformed JSON, unknown fields, or
	// out-of-range parameters.
	CodeBadRequest = "bad_request"
	// CodeUnknownDataset (404): the {dataset} path element names no
	// dataset.
	CodeUnknownDataset = "unknown_dataset"
	// CodeDatasetExists (409): PUT of a dataset name already in use.
	CodeDatasetExists = "dataset_exists"
	// CodeInvalidPolygon (400): an obstacle polygon with fewer than three
	// vertices or degenerate area (obstacles.ErrInvalidPolygon).
	CodeInvalidPolygon = "invalid_polygon"
	// CodeInvalidArgument (400): a well-formed request whose argument the
	// library rejected as out of range (obstacles.ErrInvalidArgument), e.g.
	// a clustering eps <= 0.
	CodeInvalidArgument = "invalid_argument"
	// CodeDeadlineExceeded (504): the request's deadline (the ?timeout=
	// parameter, or the server default) expired before the query finished.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCanceled (499): the client went away mid-query.
	CodeCanceled = "canceled"
	// CodeOverloaded (429): the admission gate is full — MaxInFlight
	// queries are running and MaxQueued more are already waiting. The
	// response carries a Retry-After header.
	CodeOverloaded = "overloaded"
	// CodeDraining (503): the server is shutting down and admits no new
	// requests; in-flight ones are completing.
	CodeDraining = "draining"
	// CodeDegraded (503): the database is in degraded (read-only) mode after
	// a durable-commit failure (obstacles.ErrDegraded). Reads keep serving
	// the last published generation; mutations fail fast. The response
	// carries a Retry-After header — the time until the recovery
	// supervisor's next attempt when one is scheduled (obsd -auto-recover).
	CodeDegraded = "degraded"
	// CodeNotPersistent (409): backup of an in-memory database
	// (obstacles.ErrNotPersistent) — only durable databases can be copied.
	CodeNotPersistent = "not_persistent"
	// CodeInternal (500): anything else.
	CodeInternal = "internal"
)

type errorResponse struct {
	Error Error `json:"error"`
}

// Pt is a point on the wire: [x, y].
type Pt [2]float64

func (p Pt) Point() obstacles.Point { return obstacles.Pt(p[0], p[1]) }

func fromPoint(p obstacles.Point) Pt { return Pt{p.X, p.Y} }

// Dist is a distance on the wire. Finite values are JSON numbers;
// obstacles.Unreachable (+Inf, which JSON cannot express) is the string
// "Infinity".
type Dist float64

// Unreachable reports whether the distance is the +Inf sentinel.
func (d Dist) Unreachable() bool { return math.IsInf(float64(d), 1) }

func (d Dist) MarshalJSON() ([]byte, error) {
	if d.Unreachable() {
		return []byte(`"Infinity"`), nil
	}
	return json.Marshal(float64(d))
}

func (d *Dist) UnmarshalJSON(b []byte) error {
	if string(b) == `"Infinity"` {
		*d = Dist(math.Inf(1))
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*d = Dist(f)
	return nil
}

// Neighbor is one range / nearest-neighbor result.
type Neighbor struct {
	ID    int64   `json:"id"`
	Point Pt      `json:"point"`
	Dist  float64 `json:"dist"`
}

// Pair is one join / closest-pair result.
type Pair struct {
	ID1  int64   `json:"id1"`
	ID2  int64   `json:"id2"`
	Dist float64 `json:"dist"`
}

func toNeighbors(nbs []obstacles.Neighbor) []Neighbor {
	out := make([]Neighbor, len(nbs))
	for i, nb := range nbs {
		out[i] = Neighbor{ID: nb.ID, Point: fromPoint(nb.Point), Dist: nb.Distance}
	}
	return out
}

func toPairs(ps []obstacles.Pair) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{ID1: p.ID1, ID2: p.ID2, Dist: p.Distance}
	}
	return out
}

// RangeRequest: POST /v1/datasets/{dataset}/range.
type RangeRequest struct {
	Q      Pt      `json:"q"`
	Radius float64 `json:"radius"`
	Limit  int     `json:"limit,omitempty"`
}

// NeighborsResponse answers range and nearest-neighbor queries.
type NeighborsResponse struct {
	Neighbors []Neighbor `json:"neighbors"`
	Count     int        `json:"count"`
}

// NearestRequest: POST /v1/datasets/{dataset}/nearest.
type NearestRequest struct {
	Q Pt  `json:"q"`
	K int `json:"k"`
}

// JoinRequest: POST /v1/datasets/{dataset}/join — pairs within Dist of
// each other between {dataset} and With.
type JoinRequest struct {
	With  string  `json:"with"`
	Dist  float64 `json:"dist"`
	Limit int     `json:"limit,omitempty"`
}

// ClosestPairsRequest: POST /v1/datasets/{dataset}/closest-pairs.
type ClosestPairsRequest struct {
	With string `json:"with"`
	K    int    `json:"k"`
}

// PairsResponse answers join and closest-pair queries.
type PairsResponse struct {
	Pairs []Pair `json:"pairs"`
	Count int    `json:"count"`
}

// DistanceRequest: POST /v1/distance — the obstructed distance from A to B.
type DistanceRequest struct {
	A Pt `json:"a"`
	B Pt `json:"b"`
}

// DistanceResponse carries one obstructed distance ("Infinity" when B is
// unreachable from A).
type DistanceResponse struct {
	Dist Dist `json:"dist"`
}

// PathRequest: POST /v1/path — a shortest obstacle-avoiding route.
type PathRequest struct {
	A Pt `json:"a"`
	B Pt `json:"b"`
}

// PathResponse: the waypoints (A first, B last, bending only at obstacle
// corners) and total length; Path is empty and Dist "Infinity" when no
// route exists.
type PathResponse struct {
	Path []Pt `json:"path"`
	Dist Dist `json:"dist"`
}

// DistanceMatrixRequest: POST /v1/distance-matrix.
type DistanceMatrixRequest struct {
	Points []Pt `json:"points"`
}

// DistanceMatrixResponse: Matrix[i][j] = dO(Points[i], Points[j]).
type DistanceMatrixResponse struct {
	Matrix [][]Dist `json:"matrix"`
}

// ClusterRequest: POST /v1/datasets/{dataset}/cluster.
type ClusterRequest struct {
	// Algorithm is "dbscan" (default) or "kmedoids".
	Algorithm string `json:"algorithm,omitempty"`
	// Eps and MinPts parameterize DBSCAN (MinPts defaults to 4).
	Eps    float64 `json:"eps,omitempty"`
	MinPts int     `json:"minpts,omitempty"`
	// K and MaxIterations parameterize k-medoids.
	K             int `json:"k,omitempty"`
	MaxIterations int `json:"max_iterations,omitempty"`
}

// ClusterResponse mirrors obstacles.Clustering.
type ClusterResponse struct {
	Assignments []int   `json:"assignments"`
	NumClusters int     `json:"num_clusters"`
	Medoids     []int   `json:"medoids,omitempty"`
	Cost        float64 `json:"cost,omitempty"`
	NoiseCount  int     `json:"noise_count"`
}

// InsertPointsRequest: POST /v1/datasets/{dataset}/points.
type InsertPointsRequest struct {
	Points []Pt `json:"points"`
}

// InsertPointsResponse returns the ids assigned to the inserted points, in
// request order.
type InsertPointsResponse struct {
	IDs []int64 `json:"ids"`
}

// DeletePointsRequest: POST /v1/datasets/{dataset}/points/delete.
type DeletePointsRequest struct {
	IDs []int64 `json:"ids"`
}

// DeletePointsResponse reports how many points were removed (all of them:
// deletes are all-or-nothing).
type DeletePointsResponse struct {
	Deleted int `json:"deleted"`
}

// AddObstaclesRequest: POST /v1/obstacles. Polygons are vertex lists (at
// least three, non-collinear); Rects are [minx, miny, maxx, maxy]
// conveniences appended after the polygons.
type AddObstaclesRequest struct {
	Polygons [][]Pt       `json:"polygons,omitempty"`
	Rects    [][4]float64 `json:"rects,omitempty"`
}

// AddObstaclesResponse returns the assigned obstacle ids: polygons first
// (in request order), then rects.
type AddObstaclesResponse struct {
	IDs []int64 `json:"ids"`
}

// RemoveObstaclesRequest: POST /v1/obstacles/remove.
type RemoveObstaclesRequest struct {
	IDs []int64 `json:"ids"`
}

// RemoveObstaclesResponse reports how many obstacles were removed.
type RemoveObstaclesResponse struct {
	Removed int `json:"removed"`
}

// CreateDatasetRequest: PUT /v1/datasets/{dataset} — index a new named
// dataset. Entity i of Points gets id int64(i).
type CreateDatasetRequest struct {
	Points []Pt `json:"points"`
}

// CreateDatasetResponse acknowledges the build.
type CreateDatasetResponse struct {
	Dataset string `json:"dataset"`
	Size    int    `json:"size"`
}

// BackupRequest: POST /v1/admin/backup — write a consistent point-in-time
// copy of the database to Path (a filesystem path on the daemon's host).
// The copy pins the generation current at the request and never blocks
// concurrent queries or mutations. Long copies are subject to the request
// deadline like any verb; raise ?timeout= for large databases.
type BackupRequest struct {
	Path string `json:"path"`
}

// BackupResponse acknowledges the backup and names the generation
// (mutation count) the copy captured.
type BackupResponse struct {
	Path       string `json:"path"`
	Generation uint64 `json:"generation"`
}

// DatasetInfo describes one dataset in the namespace listing.
type DatasetInfo struct {
	Name string `json:"name"`
	Size int    `json:"size"`
}

// DatasetsResponse: GET /v1/datasets.
type DatasetsResponse struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// ScrubResponse: POST /v1/admin/scrub — the scrub pass's findings.
type ScrubResponse struct {
	obstacles.ScrubReport
	// Clean is the one-glance verdict: no corrupt pages, live or free.
	Clean bool `json:"clean"`
}

// HealthResponse: GET /healthz. Always 200 (liveness — the process is up and
// answering); GET /healthz?ready=1 is the readiness variant, returning 503
// with an error envelope while the database is degraded or the server is
// draining.
type HealthResponse struct {
	// Status is "ok", "degraded" (durable faults put the database in
	// read-only mode) or "draining" (shutdown in progress).
	Status    string `json:"status"`
	Datasets  int    `json:"datasets"`
	Obstacles int    `json:"obstacles"`
	Persist   bool   `json:"persistent"`
	// Recovery reports degraded-mode details and recovery-supervisor
	// progress; omitted while healthy.
	Recovery *obstacles.RecoveryStats `json:"recovery,omitempty"`
}
