// Package server is the HTTP/JSON face of an obstacles.Database: the obsd
// daemon. It serves every query verb (range, nearest, join, closest-pairs,
// distance, path, distance-matrix, cluster) and every mutation verb
// (insert/delete points, add/remove obstacles, create dataset) over
// multi-tenant dataset namespaces, with
//
//   - per-request deadlines: ?timeout= (a Go duration) is clamped to
//     Config.MaxTimeout and installed before admission, so it bounds the
//     wait for a slot as well as the query, whose context carries it into
//     the engine: an expired deadline aborts the traversal, not just the
//     response write;
//   - admission control: at most MaxInFlight requests execute at once,
//     MaxQueued more wait, and the rest are shed immediately with a typed
//     429 (overloaded) or, during shutdown, 503 (draining);
//   - graceful shutdown: Shutdown shuts the admission gate, lets every
//     in-flight request finish, and only then closes the Database, so the
//     durable store always sees a clean close;
//   - structured request logging: Config.RequestLogger, when set, receives
//     one slog record per request — route, dataset, status, duration and
//     trace id;
//   - end-to-end tracing: every request runs under a trace, continuing the
//     caller's W3C traceparent header when one is present, and returns its
//     trace id in the Obs-Trace-Id response header. Admission wait, engine
//     stages and commit stages are child spans;
//     completed traces land in the Database's flight recorder
//     (/debug/traces, /debug/traces/{id}) and in-flight ones are listed by
//     /debug/active.
//
// Administrative verbs live under /v1/admin: POST /v1/admin/backup writes a
// consistent point-in-time copy of a durable database to a fresh file while
// queries and mutations keep running (Database.Backup); POST /v1/admin/scrub
// cross-checks every tree against its table, verifies every page checksum
// online and quarantines corrupt free pages (Database.Scrub).
//
// The daemon's /metrics, /debug/vars, /debug/traces, /debug/active and
// /debug/pprof/ endpoints are the Database's own observability mux
// (DebugHandler) mounted on the API listener: engine series and obsd_*
// series share one registry and one scrape target.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	obstacles "repro"
	"repro/internal/telemetry"
)

// route is one row of the route table: everything the daemon knows about a
// verb. buildMux mounts each row, serverMetrics registers its per-route
// series under name, and the request pipeline uses name for the root span
// and the request log — so a verb is added, renamed or removed in one place.
type route struct {
	// name is the `route` label of the obsd_* series, the root span's name
	// and the request log's route field.
	name string
	// pattern is the ServeMux pattern; README's "Serving" table lists each.
	pattern string
	// ungated routes bypass the admission gate.
	ungated bool
	serve   func(*Server, http.ResponseWriter, *http.Request) error
}

var routes = []route{
	// Query verbs.
	{name: "range", pattern: "POST /v1/datasets/{dataset}/range", serve: verb(knownDataset, queryRange)},
	{name: "nearest", pattern: "POST /v1/datasets/{dataset}/nearest", serve: verb(knownDataset, queryNearest)},
	{name: "join", pattern: "POST /v1/datasets/{dataset}/join", serve: verb(knownDataset, queryJoin)},
	{name: "closest_pairs", pattern: "POST /v1/datasets/{dataset}/closest-pairs", serve: verb(knownDataset, queryClosestPairs)},
	{name: "cluster", pattern: "POST /v1/datasets/{dataset}/cluster", serve: verb(knownDataset, queryCluster)},
	{name: "distance", pattern: "POST /v1/distance", serve: verb(noDataset, queryDistance)},
	{name: "path", pattern: "POST /v1/path", serve: verb(noDataset, queryPath)},
	{name: "distance_matrix", pattern: "POST /v1/distance-matrix", serve: verb(noDataset, queryDistanceMatrix)},
	// Mutation verbs.
	{name: "insert_points", pattern: "POST /v1/datasets/{dataset}/points", serve: verb(knownDataset, insertPoints)},
	{name: "delete_points", pattern: "POST /v1/datasets/{dataset}/points/delete", serve: verb(knownDataset, deletePoints)},
	{name: "add_obstacles", pattern: "POST /v1/obstacles", serve: verb(noDataset, addObstacles)},
	{name: "remove_obstacles", pattern: "POST /v1/obstacles/remove", serve: verb(noDataset, removeObstacles)},
	{name: "create_dataset", pattern: "PUT /v1/datasets/{dataset}", serve: verb(newDataset, createDataset)},
	// Admin reads bypass the gate: health and listings must answer even
	// when the gate is saturated or draining.
	{name: "datasets", pattern: "GET /v1/datasets", ungated: true, serve: verb(noDataset, listDatasets)},
	{name: "health", pattern: "GET /healthz", ungated: true, serve: verb(noDataset, health)},
	// Admin verbs. Backup and scrub are gated: each holds an admission slot
	// while it runs, so MaxInFlight bounds admin passes and queries together.
	{name: "backup", pattern: "POST /v1/admin/backup", serve: verb(noDataset, backup)},
	{name: "scrub", pattern: "POST /v1/admin/scrub", serve: verb(noDataset, scrub)},
}

// maxBodyBytes caps request bodies; distance-matrix and dataset-creation
// payloads are the largest legitimate requests.
const maxBodyBytes = 64 << 20

// Config tunes a Server. The zero value gives sensible production defaults
// (applied by New).
type Config struct {
	// MaxInFlight is the number of requests allowed to execute
	// concurrently. Default 64.
	MaxInFlight int
	// MaxQueued is the number of requests allowed to wait for a slot when
	// all MaxInFlight are busy; arrivals beyond that are shed with 429.
	// Default 4*MaxInFlight.
	MaxQueued int
	// DefaultTimeout is the deadline applied to requests that carry no
	// ?timeout= parameter. Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps the ?timeout= parameter. Default 5m.
	MaxTimeout time.Duration
	// RequestLogger, when non-nil, receives one structured record per
	// request: route, dataset ("" for routes without one), HTTP status,
	// wall-clock duration (queueing included) and trace id. Records are
	// Info below status 500 and Warn at or above it. Nil disables request
	// logging.
	RequestLogger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4 * c.MaxInFlight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	return c
}

// testHookAdmitted, when set, runs after a request clears admission and
// before its handler executes. Tests use it to hold requests in flight at a
// known point.
var testHookAdmitted func(route string)

// Server serves a Database over HTTP. Build one with New, mount it (it is
// an http.Handler) or Start it on its own listener, and retire it with
// Shutdown. One Server per Database: the telemetry registration is
// permanent.
type Server struct {
	db  *obstacles.Database
	cfg Config
	mux *http.ServeMux

	gate *gate
	met  *serverMetrics

	httpMu sync.Mutex
	httpLn net.Listener
	httpS  *http.Server

	shutdownOnce sync.Once
	shutdownErr  error
}

// New builds a Server for db. The Database handle is borrowed until
// Shutdown, which closes it.
func New(db *obstacles.Database, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:   db,
		cfg:  cfg,
		gate: newGate(cfg.MaxInFlight, cfg.MaxQueued),
	}
	s.met = newServerMetrics(db, s.gate)
	s.mux = s.buildMux()
	return s
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.Handle(rt.pattern, s.handle(rt))
	}
	// Observability: the Database's own debug mux, mounted on this
	// listener — one registry for engine and daemon series.
	dh := s.db.DebugHandler()
	mux.Handle("/metrics", dh)
	mux.Handle("/debug/", dh)
	return mux
}

// ServeHTTP makes the Server mountable (httptest, embedding).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Start binds addr and serves in the background. With "host:0" the bound
// address is available from Addr.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen on %s: %w", addr, err)
	}
	hs := &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	s.httpMu.Lock()
	s.httpLn, s.httpS = ln, hs
	s.httpMu.Unlock()
	go hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.gate.draining.Load() }

// Shutdown retires the server gracefully: the admission gate shuts (new
// requests get 503 draining), every in-flight request runs to completion,
// the listener closes, and only then — with the engine provably idle — the
// Database closes, flushing the durable state. ctx bounds the drain; on
// expiry the Database is closed anyway (in-flight requests then fail with
// ErrDatabaseClosed rather than holding shutdown hostage forever).
// Idempotent: later calls return the first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.gate.startDrain()
		drainErr := s.gate.awaitIdle(ctx)
		s.httpMu.Lock()
		hs := s.httpS
		s.httpMu.Unlock()
		var lnErr error
		if hs != nil {
			// The gate is already idle, so this only unwinds the listener
			// and idle keep-alive connections.
			lnErr = hs.Shutdown(ctx)
		}
		s.shutdownErr = errors.Join(drainErr, lnErr, s.db.Close())
	})
	return s.shutdownErr
}

// httpError carries an explicit status + wire code out of a handler.
type httpError struct {
	status int
	code   string
	msg    string
	// retryAfter, when set, goes out as the Retry-After header.
	retryAfter string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, code: CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

func unknownDataset(name string) error {
	return &httpError{status: http.StatusNotFound, code: CodeUnknownDataset, msg: fmt.Sprintf("unknown dataset %q", name)}
}

// logRequest emits the one-per-request structured record, if a
// RequestLogger is configured.
func (s *Server) logRequest(r *http.Request, route string, status int, d time.Duration, tr *telemetry.Trace) {
	lg := s.cfg.RequestLogger
	if lg == nil {
		return
	}
	level := slog.LevelInfo
	if status >= 500 {
		level = slog.LevelWarn
	}
	lg.LogAttrs(r.Context(), level, "request",
		slog.String("route", route),
		slog.String("dataset", r.PathValue("dataset")),
		slog.Int("status", status),
		slog.Duration("duration", d),
		slog.String("trace_id", tr.ID().String()))
}

// traceFor starts the request's trace: continuing the caller's W3C
// traceparent header when one is present and valid, fresh otherwise (a
// malformed header degrades to a fresh trace rather than failing the
// request).
func traceFor(r *http.Request) *telemetry.Trace {
	if h := r.Header.Get("traceparent"); h != "" {
		if tid, sid, _, err := telemetry.ParseTraceparent(h); err == nil {
			return telemetry.NewTraceFrom(tid, sid)
		}
	}
	return telemetry.NewTrace()
}

// handle wraps a route with the request pipeline: telemetry, tracing,
// deadline, admission (unless ungated), error encoding, and request logging.
func (s *Server) handle(rt route) http.Handler {
	route := rt.name
	rec := s.db.TraceRecorder()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := traceFor(r)
		root := tr.Root(route)
		// The trace id goes out on every response — success or failure —
		// so callers can always cross-reference /debug/traces.
		w.Header().Set("Obs-Trace-Id", tr.ID().String())
		rec.StartActive(tr)
		finish := func(status int) {
			root.SetAttr("status", status)
			root.End()
			rec.EndActive(tr)
			// 5xx and client-abandoned requests are error-tier: those are
			// the traces worth keeping unconditionally.
			rec.Record(tr, status >= 500 || status == 499)
			s.logRequest(r, route, status, time.Since(start), tr)
		}
		fail := func(err error) {
			finish(s.writeErr(w, route, err))
		}

		// Deadline: ?timeout= (clamped), else the server default. It is
		// installed before admission, so it bounds the wait for a slot as
		// well as the query; the derived context rides r so every handler's
		// r.Context() carries it into the engine.
		timeout := s.cfg.DefaultTimeout
		if v := r.URL.Query().Get("timeout"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				fail(badRequest("invalid timeout %q", v))
				return
			}
			timeout = d
		}
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		ctx = telemetry.ContextWithSpan(ctx, root)

		if !rt.ungated {
			admit := root.StartChild("admission-wait")
			err := s.gate.acquire(ctx)
			admit.End()
			if err != nil {
				fail(err)
				return
			}
			defer s.gate.release()
		}
		s.met.requests[route].Inc()
		if testHookAdmitted != nil {
			testHookAdmitted(route)
		}

		qStart := time.Now()
		err := rt.serve(s, w, r.WithContext(ctx))
		s.met.seconds[route].ObserveDuration(time.Since(qStart))
		if err != nil {
			fail(err)
			return
		}
		finish(http.StatusOK)
	})
}

// writeErr maps an error to its HTTP status + wire code, encodes the
// envelope, and returns the status written.
func (s *Server) writeErr(w http.ResponseWriter, route string, err error) int {
	status, code := http.StatusInternalServerError, CodeInternal
	var he *httpError
	var de *obstacles.DegradedError
	switch {
	case errors.As(err, &he):
		status, code = he.status, he.code
		if he.retryAfter != "" {
			w.Header().Set("Retry-After", he.retryAfter)
		}
	case errors.Is(err, errOverloaded):
		status, code = http.StatusTooManyRequests, CodeOverloaded
		w.Header().Set("Retry-After", "1")
		s.met.rejectedOverload.Inc()
	case errors.Is(err, errDraining):
		status, code = http.StatusServiceUnavailable, CodeDraining
		w.Header().Set("Retry-After", "1")
		s.met.rejectedDraining.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		status, code = 499, CodeCanceled // nginx's client-closed-request
	case errors.Is(err, obstacles.ErrInvalidPolygon):
		status, code = http.StatusBadRequest, CodeInvalidPolygon
	case errors.Is(err, obstacles.ErrInvalidArgument):
		status, code = http.StatusBadRequest, CodeInvalidArgument
	case errors.Is(err, obstacles.ErrUnknownDataset):
		// Past the adapter's own check: the dataset was dropped, or raced,
		// between it and the engine's lookup.
		status, code = http.StatusNotFound, CodeUnknownDataset
	case errors.Is(err, obstacles.ErrNotFound):
		status, code = http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, obstacles.ErrDatasetExists):
		status, code = http.StatusConflict, CodeDatasetExists
	case errors.As(err, &de):
		// Degraded mode: reads still work, so only mutations land here. The
		// Retry-After is honest — the supervisor's next scheduled attempt.
		status, code = http.StatusServiceUnavailable, CodeDegraded
		w.Header().Set("Retry-After", retryAfter(de.Recovery.NextRetry))
		s.met.rejectedDegraded.Inc()
	case errors.Is(err, obstacles.ErrDatabaseClosed):
		status, code = http.StatusServiceUnavailable, CodeDraining
	case errors.Is(err, obstacles.ErrNotPersistent):
		status, code = http.StatusConflict, CodeNotPersistent
	}
	s.met.errors[route].Inc()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error{Code: code, Message: err.Error()}})
	return status
}

// decode reads a strict JSON body: unknown fields and trailing garbage are
// rejected so client typos fail loudly instead of silently defaulting.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

func encode(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	return json.NewEncoder(w).Encode(v)
}

// datasetRule says what a route's {dataset} path element must name.
type datasetRule int

const (
	noDataset    datasetRule = iota // the pattern has no {dataset}
	knownDataset                    // an existing dataset (404 otherwise)
	newDataset                      // the dataset the request creates
)

// noBody is the request type of verbs that take no JSON body.
type noBody struct{}

// verb adapts one typed verb to a route: resolve the {dataset} path element
// as rule says, decode the strict JSON body into Req (unless it is noBody),
// run, and encode the answer.
func verb[Req, Resp any](rule datasetRule, run func(s *Server, r *http.Request, dataset string, req *Req) (Resp, error)) func(*Server, http.ResponseWriter, *http.Request) error {
	_, bodiless := any((*Req)(nil)).(*noBody)
	return func(s *Server, w http.ResponseWriter, r *http.Request) error {
		var name string
		if rule != noDataset {
			if name = r.PathValue("dataset"); name == "" {
				return badRequest("empty dataset name")
			}
			if rule == knownDataset && !s.db.HasDataset(name) {
				return unknownDataset(name)
			}
		}
		var req Req
		if !bodiless {
			if err := decode(r, &req); err != nil {
				return err
			}
		}
		resp, err := run(s, r, name, &req)
		if err != nil {
			return err
		}
		return encode(w, resp)
	}
}

func limitOpt(limit int) []obstacles.QueryOption {
	if limit > 0 {
		return []obstacles.QueryOption{obstacles.WithLimit(limit)}
	}
	return nil
}

func toPoints(wire []Pt) []obstacles.Point {
	pts := make([]obstacles.Point, len(wire))
	for i, p := range wire {
		pts[i] = p.Point()
	}
	return pts
}

func queryRange(s *Server, r *http.Request, dataset string, req *RangeRequest) (*NeighborsResponse, error) {
	if req.Radius < 0 {
		return nil, badRequest("negative radius %g", req.Radius)
	}
	nbs, err := s.db.Range(r.Context(), dataset, req.Q.Point(), req.Radius, limitOpt(req.Limit)...)
	return &NeighborsResponse{Neighbors: toNeighbors(nbs), Count: len(nbs)}, err
}

func queryNearest(s *Server, r *http.Request, dataset string, req *NearestRequest) (*NeighborsResponse, error) {
	if req.K < 1 {
		return nil, badRequest("k must be >= 1, got %d", req.K)
	}
	nbs, err := s.db.NearestNeighbors(r.Context(), dataset, req.Q.Point(), req.K)
	return &NeighborsResponse{Neighbors: toNeighbors(nbs), Count: len(nbs)}, err
}

func queryJoin(s *Server, r *http.Request, dataset string, req *JoinRequest) (*PairsResponse, error) {
	if !s.db.HasDataset(req.With) {
		return nil, unknownDataset(req.With)
	}
	if req.Dist < 0 {
		return nil, badRequest("negative join distance %g", req.Dist)
	}
	pairs, err := s.db.DistanceJoin(r.Context(), dataset, req.With, req.Dist, limitOpt(req.Limit)...)
	return &PairsResponse{Pairs: toPairs(pairs), Count: len(pairs)}, err
}

func queryClosestPairs(s *Server, r *http.Request, dataset string, req *ClosestPairsRequest) (*PairsResponse, error) {
	if !s.db.HasDataset(req.With) {
		return nil, unknownDataset(req.With)
	}
	if req.K < 1 {
		return nil, badRequest("k must be >= 1, got %d", req.K)
	}
	pairs, err := s.db.ClosestPairs(r.Context(), dataset, req.With, req.K)
	return &PairsResponse{Pairs: toPairs(pairs), Count: len(pairs)}, err
}

func queryCluster(s *Server, r *http.Request, dataset string, req *ClusterRequest) (*ClusterResponse, error) {
	copts := obstacles.ClusterOptions{
		Eps: req.Eps, MinPts: req.MinPts,
		K: req.K, MaxIterations: req.MaxIterations,
	}
	switch strings.ToLower(req.Algorithm) {
	case "", "dbscan":
		copts.Algorithm = obstacles.DBSCAN
	case "kmedoids", "k-medoids":
		copts.Algorithm = obstacles.KMedoids
	default:
		return nil, badRequest("unknown clustering algorithm %q", req.Algorithm)
	}
	cl, err := s.db.Cluster(r.Context(), dataset, copts)
	if err != nil {
		return nil, err
	}
	return &ClusterResponse{
		Assignments: cl.Assignments, NumClusters: cl.NumClusters,
		Medoids: cl.Medoids, Cost: cl.Cost, NoiseCount: cl.NoiseCount,
	}, nil
}

func queryDistance(s *Server, r *http.Request, _ string, req *DistanceRequest) (*DistanceResponse, error) {
	d, err := s.db.ObstructedDistance(r.Context(), req.A.Point(), req.B.Point())
	return &DistanceResponse{Dist: Dist(d)}, err
}

func queryPath(s *Server, r *http.Request, _ string, req *PathRequest) (*PathResponse, error) {
	path, d, err := s.db.ObstructedPath(r.Context(), req.A.Point(), req.B.Point())
	wp := make([]Pt, len(path))
	for i, p := range path {
		wp[i] = fromPoint(p)
	}
	return &PathResponse{Path: wp, Dist: Dist(d)}, err
}

func queryDistanceMatrix(s *Server, r *http.Request, _ string, req *DistanceMatrixRequest) (*DistanceMatrixResponse, error) {
	if len(req.Points) == 0 {
		return nil, badRequest("empty point list")
	}
	m, err := s.db.DistanceMatrix(r.Context(), toPoints(req.Points))
	wm := make([][]Dist, len(m))
	for i, row := range m {
		wm[i] = make([]Dist, len(row))
		for j, d := range row {
			wm[i][j] = Dist(d)
		}
	}
	return &DistanceMatrixResponse{Matrix: wm}, err
}

func insertPoints(s *Server, r *http.Request, dataset string, req *InsertPointsRequest) (*InsertPointsResponse, error) {
	if len(req.Points) == 0 {
		return nil, badRequest("empty point list")
	}
	ids, err := s.db.InsertPointsContext(r.Context(), dataset, toPoints(req.Points)...)
	return &InsertPointsResponse{IDs: ids}, err
}

func deletePoints(s *Server, r *http.Request, dataset string, req *DeletePointsRequest) (*DeletePointsResponse, error) {
	if len(req.IDs) == 0 {
		return nil, badRequest("empty id list")
	}
	err := s.db.DeletePointsContext(r.Context(), dataset, req.IDs...)
	return &DeletePointsResponse{Deleted: len(req.IDs)}, err
}

func addObstacles(s *Server, r *http.Request, _ string, req *AddObstaclesRequest) (*AddObstaclesResponse, error) {
	if len(req.Polygons)+len(req.Rects) == 0 {
		return nil, badRequest("no obstacles in request")
	}
	polys := make([]obstacles.Polygon, 0, len(req.Polygons)+len(req.Rects))
	for i, vs := range req.Polygons {
		pg, err := obstacles.NewPolygon(toPoints(vs))
		if err != nil {
			return nil, &httpError{status: http.StatusBadRequest, code: CodeInvalidPolygon,
				msg: fmt.Sprintf("polygon %d: %v", i, err)}
		}
		polys = append(polys, pg)
	}
	for _, rc := range req.Rects {
		polys = append(polys, obstacles.RectPolygon(obstacles.R(rc[0], rc[1], rc[2], rc[3])))
	}
	ids, err := s.db.AddObstaclesContext(r.Context(), polys...)
	return &AddObstaclesResponse{IDs: ids}, err
}

func removeObstacles(s *Server, r *http.Request, _ string, req *RemoveObstaclesRequest) (*RemoveObstaclesResponse, error) {
	if len(req.IDs) == 0 {
		return nil, badRequest("empty id list")
	}
	err := s.db.RemoveObstaclesContext(r.Context(), req.IDs...)
	return &RemoveObstaclesResponse{Removed: len(req.IDs)}, err
}

func createDataset(s *Server, r *http.Request, dataset string, req *CreateDatasetRequest) (*CreateDatasetResponse, error) {
	if s.db.HasDataset(dataset) {
		return nil, &httpError{status: http.StatusConflict, code: CodeDatasetExists,
			msg: fmt.Sprintf("dataset %q already exists", dataset)}
	}
	err := s.db.AddDatasetContext(r.Context(), dataset, toPoints(req.Points))
	return &CreateDatasetResponse{Dataset: dataset, Size: len(req.Points)}, err
}

func backup(s *Server, r *http.Request, _ string, req *BackupRequest) (*BackupResponse, error) {
	if req.Path == "" {
		return nil, badRequest("empty backup path")
	}
	// Pin explicitly (rather than calling db.Backup) so the response can
	// name the generation the copy captured.
	snap := s.db.Snapshot()
	defer snap.Close()
	err := snap.Backup(r.Context(), req.Path)
	return &BackupResponse{Path: req.Path, Generation: snap.Generation()}, err
}

func scrub(s *Server, r *http.Request, _ string, _ *noBody) (*ScrubResponse, error) {
	rep, err := s.db.Scrub(r.Context())
	return &ScrubResponse{ScrubReport: rep, Clean: rep.Clean()}, err
}

func listDatasets(s *Server, _ *http.Request, _ string, _ *noBody) (*DatasetsResponse, error) {
	names := s.db.Datasets()
	infos := make([]DatasetInfo, 0, len(names))
	for _, name := range names {
		n, err := s.db.DatasetLen(name)
		if err != nil {
			continue // raced with a concurrent drop
		}
		infos = append(infos, DatasetInfo{Name: name, Size: n})
	}
	return &DatasetsResponse{Datasets: infos}, nil
}

// retryAfter renders a Retry-After header value from the recovery
// supervisor's next scheduled attempt; "1" when none is scheduled (manual
// recovery, or the attempt is imminent).
func retryAfter(next time.Time) string {
	if d := time.Until(next); d >= time.Second {
		return strconv.Itoa(int(math.Ceil(d.Seconds())))
	}
	return "1"
}

func health(s *Server, r *http.Request, _ string, _ *noBody) (*HealthResponse, error) {
	status := "ok"
	var rs *obstacles.RecoveryStats
	if s.db.Degraded() {
		status = "degraded"
		v := s.db.RecoveryStats()
		rs = &v
	}
	if s.Draining() {
		// Draining wins the label: the process is going away regardless of
		// the database's state.
		status = "draining"
	}
	// Readiness variant: a degraded or draining daemon should be rotated out
	// of load balancing even though the liveness answer stays 200.
	if v := r.URL.Query().Get("ready"); v != "" && v != "0" && status != "ok" {
		he := &httpError{status: http.StatusServiceUnavailable, code: CodeDraining, msg: "not ready: " + status}
		if status == "degraded" {
			he.code = CodeDegraded
		}
		if rs != nil {
			he.retryAfter = retryAfter(rs.NextRetry)
		}
		return nil, he
	}
	return &HealthResponse{
		Status:    status,
		Datasets:  len(s.db.Datasets()),
		Obstacles: s.db.NumObstacles(),
		Persist:   s.db.Persistent(),
		Recovery:  rs,
	}, nil
}
