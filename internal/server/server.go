// Package server is the HTTP/JSON face of an obstacles.Database: the obsd
// daemon. It serves every query verb (range, nearest, join, closest-pairs,
// distance, path, distance-matrix, cluster) and every mutation verb
// (insert/delete points, add/remove obstacles, create dataset) over
// multi-tenant dataset namespaces, with
//
//   - per-request deadlines: ?timeout= (a Go duration) is clamped to
//     Config.MaxTimeout and propagated into the query's context, so an
//     expired deadline aborts the traversal inside the engine, not just the
//     response write;
//   - admission control: at most MaxInFlight requests execute at once,
//     MaxQueued more wait, and the rest are shed immediately with a typed
//     429 (overloaded) or, during shutdown, 503 (draining);
//   - request coalescing: concurrent same-region distance queries are
//     answered in batches by an elected leader over one shared visibility
//     graph (see coalesce.go);
//   - graceful shutdown: Shutdown shuts the admission gate, lets every
//     in-flight request finish, and only then closes the Database, so the
//     durable store always sees a clean close;
//   - structured request logging: Config.RequestLogger, when set, receives
//     one slog record per request — route, dataset, status, duration, trace
//     id, and whether the answer rode a coalesced batch;
//   - end-to-end tracing: every request runs under a trace, continuing the
//     caller's W3C traceparent header when one is present, and returns its
//     trace id in the Obs-Trace-Id response header. Admission wait,
//     coalesce parking, engine stages and commit stages are child spans;
//     completed traces land in the Database's flight recorder
//     (/debug/traces, /debug/traces/{id}) and in-flight ones are listed by
//     /debug/active.
//
// Administrative verbs live under /v1/admin: POST /v1/admin/backup writes a
// consistent point-in-time copy of a durable database to a fresh file while
// queries and mutations keep running (Database.Backup); POST /v1/admin/scrub
// verifies every page checksum online and quarantines corrupt free pages
// (Database.Scrub).
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

// Route labels: one per verb, used in paths' handlers and telemetry.
const (
	routeRange           = "range"
	routeNearest         = "nearest"
	routeJoin            = "join"
	routeClosestPairs    = "closest_pairs"
	routeCluster         = "cluster"
	routeDistance        = "distance"
	routePath            = "path"
	routeDistanceMatrix  = "distance_matrix"
	routeInsertPoints    = "insert_points"
	routeDeletePoints    = "delete_points"
	routeAddObstacles    = "add_obstacles"
	routeRemoveObstacles = "remove_obstacles"
	routeCreateDataset   = "create_dataset"
	routeDatasets        = "datasets"
	routeHealth          = "health"
	routeBackup          = "backup"
	routeScrub           = "scrub"
)

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
	// CoalesceCell is the side length of the coalescer's region grid:
	// concurrent distance queries whose sources share a cell are batched.
	// Default 512 (the graph cache's expansion scale).
	CoalesceCell float64
	// CoalesceMaxBatch caps how many parked requests one leader answers.
	// Default 16.
	CoalesceMaxBatch int
	// DisableCoalesce turns request coalescing off; every request computes
	// independently. The coalesced path stays byte-compatible, so this is
	// a performance knob, not a semantics one.
	DisableCoalesce bool
	// RequestLogger, when non-nil, receives one structured record per
	// request: route, dataset ("" for routes without one), HTTP status,
	// wall-clock duration (queueing included), and whether the answer rode
	// a coalesced batch another request led. Records are Info below status
	// 500 and Warn at or above it. Nil disables request logging.
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
	if c.CoalesceCell <= 0 {
		c.CoalesceCell = 512
	}
	if c.CoalesceMaxBatch <= 0 {
		c.CoalesceMaxBatch = 16
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
	co   *coalescer
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
	if !cfg.DisableCoalesce {
		s.co = newCoalescer(db, cfg.CoalesceCell, cfg.CoalesceMaxBatch, s.met)
	}
	s.mux = s.buildMux()
	return s
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	// Query verbs.
	mux.Handle("POST /v1/datasets/{dataset}/range", s.handle(routeRange, true, s.handleRange))
	mux.Handle("POST /v1/datasets/{dataset}/nearest", s.handle(routeNearest, true, s.handleNearest))
	mux.Handle("POST /v1/datasets/{dataset}/join", s.handle(routeJoin, true, s.handleJoin))
	mux.Handle("POST /v1/datasets/{dataset}/closest-pairs", s.handle(routeClosestPairs, true, s.handleClosestPairs))
	mux.Handle("POST /v1/datasets/{dataset}/cluster", s.handle(routeCluster, true, s.handleCluster))
	mux.Handle("POST /v1/distance", s.handle(routeDistance, true, s.handleDistance))
	mux.Handle("POST /v1/path", s.handle(routePath, true, s.handlePath))
	mux.Handle("POST /v1/distance-matrix", s.handle(routeDistanceMatrix, true, s.handleDistanceMatrix))
	// Mutation verbs.
	mux.Handle("POST /v1/datasets/{dataset}/points", s.handle(routeInsertPoints, true, s.handleInsertPoints))
	mux.Handle("POST /v1/datasets/{dataset}/points/delete", s.handle(routeDeletePoints, true, s.handleDeletePoints))
	mux.Handle("POST /v1/obstacles", s.handle(routeAddObstacles, true, s.handleAddObstacles))
	mux.Handle("POST /v1/obstacles/remove", s.handle(routeRemoveObstacles, true, s.handleRemoveObstacles))
	mux.Handle("PUT /v1/datasets/{dataset}", s.handle(routeCreateDataset, true, s.handleCreateDataset))
	// Admin verbs. Backup and scrub are gated: each holds an admission slot
	// while it runs, so MaxInFlight bounds admin passes and queries together.
	mux.Handle("POST /v1/admin/backup", s.handle(routeBackup, true, s.handleBackup))
	mux.Handle("POST /v1/admin/scrub", s.handle(routeScrub, true, s.handleScrub))
	// Admin reads bypass the gate: health and listings must answer even
	// when the gate is saturated or draining.
	mux.Handle("GET /v1/datasets", s.handle(routeDatasets, false, s.handleDatasets))
	mux.Handle("GET /healthz", s.handle(routeHealth, false, s.handleHealth))
	// Observability: the Database's own debug mux, mounted on this
	// listener — same registry, same routes as Options.DebugAddr.
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
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{http.StatusBadRequest, CodeBadRequest, fmt.Sprintf(format, args...)}
}

func unknownDataset(name string) error {
	return &httpError{http.StatusNotFound, CodeUnknownDataset, fmt.Sprintf("unknown dataset %q", name)}
}

// reqInfo rides the request context so handlers can annotate the request
// log record the pipeline emits after they return.
type reqInfo struct {
	coalesced bool
	// trace is the request's trace, stamped into the request log record.
	trace *telemetry.Trace
}

type reqInfoKey struct{}

// markCoalesced records, for the request log, that this response was
// answered by a coalesced batch another request led.
func markCoalesced(ctx context.Context) {
	if ri, ok := ctx.Value(reqInfoKey{}).(*reqInfo); ok {
		ri.coalesced = true
	}
}

// logRequest emits the one-per-request structured record, if a
// RequestLogger is configured.
func (s *Server) logRequest(r *http.Request, route string, status int, d time.Duration, ri *reqInfo) {
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
		slog.Bool("coalesced", ri.coalesced),
		slog.String("trace_id", ri.trace.ID().String()))
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

// handle wraps a verb handler with the request pipeline: telemetry, tracing,
// admission (when gated), deadline propagation, error encoding, and request
// logging.
func (s *Server) handle(route string, gated bool, fn func(w http.ResponseWriter, r *http.Request) error) http.Handler {
	rec := s.db.TraceRecorder()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := traceFor(r)
		root := tr.Root(route)
		// The trace id goes out on every response — success or failure —
		// so callers can always cross-reference /debug/traces.
		w.Header().Set("Obs-Trace-Id", tr.ID().String())
		rec.StartActive(tr)
		ri := &reqInfo{trace: tr}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))
		finish := func(status int) {
			root.SetAttr("status", status)
			root.End()
			rec.EndActive(tr)
			// 5xx and client-abandoned requests are error-tier: those are
			// the traces worth keeping unconditionally.
			rec.Record(tr, status >= 500 || status == 499)
			s.logRequest(r, route, status, time.Since(start), ri)
		}
		fail := func(err error) {
			finish(s.writeErr(w, route, err))
		}
		if gated {
			admit := root.StartChild("admission-wait")
			err := s.gate.acquire(r.Context())
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

		// Deadline: ?timeout= (clamped), else the server default. The
		// derived context rides r so every handler's r.Context() carries it
		// into the engine.
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

		qStart := time.Now()
		err := fn(w, r.WithContext(ctx))
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
	case errors.As(err, &de):
		// Degraded mode: reads still work, so only mutations land here. The
		// Retry-After is honest — the supervisor's next scheduled attempt.
		status, code = http.StatusServiceUnavailable, CodeDegraded
		w.Header().Set("Retry-After", retryAfter(de.Recovery.NextRetry))
		s.met.rejectedDegraded.Inc()
	case errors.Is(err, obstacles.ErrNeedsReopen):
		status, code = http.StatusServiceUnavailable, CodeNeedsReopen
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

// dataset resolves the {dataset} path element, mapping absence to a 404.
func (s *Server) dataset(r *http.Request) (string, error) {
	name := r.PathValue("dataset")
	if name == "" {
		return "", badRequest("empty dataset name")
	}
	if !s.db.HasDataset(name) {
		return "", unknownDataset(name)
	}
	return name, nil
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) error {
	name, err := s.dataset(r)
	if err != nil {
		return err
	}
	var req RangeRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if req.Radius < 0 {
		return badRequest("negative radius %g", req.Radius)
	}
	var opts []obstacles.QueryOption
	if req.Limit > 0 {
		opts = append(opts, obstacles.WithLimit(req.Limit))
	}
	nbs, err := s.db.Range(r.Context(), name, req.Q.Point(), req.Radius, opts...)
	if err != nil {
		return err
	}
	return encode(w, NeighborsResponse{Neighbors: toNeighbors(nbs), Count: len(nbs)})
}

func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) error {
	name, err := s.dataset(r)
	if err != nil {
		return err
	}
	var req NearestRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if req.K < 1 {
		return badRequest("k must be >= 1, got %d", req.K)
	}
	var nbs []obstacles.Neighbor
	if s.co != nil {
		var rode bool
		nbs, rode, err = s.co.Nearest(r.Context(), name, req.Q.Point(), req.K)
		if rode {
			markCoalesced(r.Context())
		}
	} else {
		nbs, err = s.db.NearestNeighbors(r.Context(), name, req.Q.Point(), req.K)
	}
	if err != nil {
		return err
	}
	return encode(w, NeighborsResponse{Neighbors: toNeighbors(nbs), Count: len(nbs)})
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) error {
	name, err := s.dataset(r)
	if err != nil {
		return err
	}
	var req JoinRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if !s.db.HasDataset(req.With) {
		return unknownDataset(req.With)
	}
	if req.Dist < 0 {
		return badRequest("negative join distance %g", req.Dist)
	}
	var opts []obstacles.QueryOption
	if req.Limit > 0 {
		opts = append(opts, obstacles.WithLimit(req.Limit))
	}
	pairs, err := s.db.DistanceJoin(r.Context(), name, req.With, req.Dist, opts...)
	if err != nil {
		return err
	}
	return encode(w, PairsResponse{Pairs: toPairs(pairs), Count: len(pairs)})
}

func (s *Server) handleClosestPairs(w http.ResponseWriter, r *http.Request) error {
	name, err := s.dataset(r)
	if err != nil {
		return err
	}
	var req ClosestPairsRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if !s.db.HasDataset(req.With) {
		return unknownDataset(req.With)
	}
	if req.K < 1 {
		return badRequest("k must be >= 1, got %d", req.K)
	}
	pairs, err := s.db.ClosestPairs(r.Context(), name, req.With, req.K)
	if err != nil {
		return err
	}
	return encode(w, PairsResponse{Pairs: toPairs(pairs), Count: len(pairs)})
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) error {
	name, err := s.dataset(r)
	if err != nil {
		return err
	}
	var req ClusterRequest
	if err := decode(r, &req); err != nil {
		return err
	}
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
		return badRequest("unknown clustering algorithm %q", req.Algorithm)
	}
	cl, err := s.db.Cluster(r.Context(), name, copts)
	if err != nil {
		return err
	}
	return encode(w, ClusterResponse{
		Assignments: cl.Assignments, NumClusters: cl.NumClusters,
		Medoids: cl.Medoids, Cost: cl.Cost, NoiseCount: cl.NoiseCount,
	})
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) error {
	var req DistanceRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	var (
		d    float64
		rode bool
		err  error
	)
	if s.co != nil {
		d, rode, err = s.co.Distance(r.Context(), req.A.Point(), req.B.Point())
		if rode {
			markCoalesced(r.Context())
		}
	} else {
		d, err = s.db.ObstructedDistance(r.Context(), req.A.Point(), req.B.Point())
	}
	if err != nil {
		return err
	}
	return encode(w, DistanceResponse{Dist: Dist(d), Coalesced: rode})
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) error {
	var req PathRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	path, d, err := s.db.ObstructedPath(r.Context(), req.A.Point(), req.B.Point())
	if err != nil {
		return err
	}
	wp := make([]Pt, len(path))
	for i, p := range path {
		wp[i] = fromPoint(p)
	}
	return encode(w, PathResponse{Path: wp, Dist: Dist(d)})
}

func (s *Server) handleDistanceMatrix(w http.ResponseWriter, r *http.Request) error {
	var req DistanceMatrixRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if len(req.Points) == 0 {
		return badRequest("empty point list")
	}
	pts := make([]obstacles.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = p.Point()
	}
	m, err := s.db.DistanceMatrix(r.Context(), pts)
	if err != nil {
		return err
	}
	wm := make([][]Dist, len(m))
	for i, row := range m {
		wm[i] = make([]Dist, len(row))
		for j, d := range row {
			wm[i][j] = Dist(d)
		}
	}
	return encode(w, DistanceMatrixResponse{Matrix: wm})
}

func (s *Server) handleInsertPoints(w http.ResponseWriter, r *http.Request) error {
	name, err := s.dataset(r)
	if err != nil {
		return err
	}
	var req InsertPointsRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if len(req.Points) == 0 {
		return badRequest("empty point list")
	}
	pts := make([]obstacles.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = p.Point()
	}
	ids, err := s.db.InsertPointsContext(r.Context(), name, pts...)
	if err != nil {
		return err
	}
	return encode(w, InsertPointsResponse{IDs: ids})
}

func (s *Server) handleDeletePoints(w http.ResponseWriter, r *http.Request) error {
	name, err := s.dataset(r)
	if err != nil {
		return err
	}
	var req DeletePointsRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if len(req.IDs) == 0 {
		return badRequest("empty id list")
	}
	if err := s.db.DeletePointsContext(r.Context(), name, req.IDs...); err != nil {
		if strings.Contains(err.Error(), "no entity") {
			return badRequest("%v", err)
		}
		return err
	}
	return encode(w, DeletePointsResponse{Deleted: len(req.IDs)})
}

func (s *Server) handleAddObstacles(w http.ResponseWriter, r *http.Request) error {
	var req AddObstaclesRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if len(req.Polygons)+len(req.Rects) == 0 {
		return badRequest("no obstacles in request")
	}
	polys := make([]obstacles.Polygon, 0, len(req.Polygons)+len(req.Rects))
	for i, vs := range req.Polygons {
		pts := make([]obstacles.Point, len(vs))
		for j, v := range vs {
			pts[j] = v.Point()
		}
		pg, err := obstacles.NewPolygon(pts)
		if err != nil {
			return &httpError{http.StatusBadRequest, CodeInvalidPolygon,
				fmt.Sprintf("polygon %d: %v", i, err)}
		}
		polys = append(polys, pg)
	}
	for _, rc := range req.Rects {
		polys = append(polys, obstacles.RectPolygon(obstacles.R(rc[0], rc[1], rc[2], rc[3])))
	}
	ids, err := s.db.AddObstaclesContext(r.Context(), polys...)
	if err != nil {
		return err
	}
	return encode(w, AddObstaclesResponse{IDs: ids})
}

func (s *Server) handleRemoveObstacles(w http.ResponseWriter, r *http.Request) error {
	var req RemoveObstaclesRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if len(req.IDs) == 0 {
		return badRequest("empty id list")
	}
	if err := s.db.RemoveObstaclesContext(r.Context(), req.IDs...); err != nil {
		if strings.Contains(err.Error(), "no obstacle") {
			return badRequest("%v", err)
		}
		return err
	}
	return encode(w, RemoveObstaclesResponse{Removed: len(req.IDs)})
}

func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("dataset")
	if name == "" {
		return badRequest("empty dataset name")
	}
	var req CreateDatasetRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if s.db.HasDataset(name) {
		return &httpError{http.StatusConflict, CodeDatasetExists,
			fmt.Sprintf("dataset %q already exists", name)}
	}
	pts := make([]obstacles.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = p.Point()
	}
	if err := s.db.AddDatasetContext(r.Context(), name, pts); err != nil {
		if strings.Contains(err.Error(), "already exists") {
			return &httpError{http.StatusConflict, CodeDatasetExists, err.Error()}
		}
		return err
	}
	return encode(w, CreateDatasetResponse{Dataset: name, Size: len(pts)})
}

func (s *Server) handleBackup(w http.ResponseWriter, r *http.Request) error {
	var req BackupRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if req.Path == "" {
		return badRequest("empty backup path")
	}
	// Pin explicitly (rather than calling db.Backup) so the response can
	// name the generation the copy captured.
	snap := s.db.Snapshot()
	defer snap.Close()
	if err := snap.Backup(r.Context(), req.Path); err != nil {
		return err
	}
	return encode(w, BackupResponse{Path: req.Path, Generation: snap.Generation()})
}

func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) error {
	rep, err := s.db.Scrub(r.Context())
	if err != nil {
		return err
	}
	return encode(w, ScrubResponse{ScrubReport: rep, Clean: rep.Clean()})
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) error {
	names := s.db.Datasets()
	infos := make([]DatasetInfo, 0, len(names))
	for _, name := range names {
		n, err := s.db.DatasetLen(name)
		if err != nil {
			continue // raced with a concurrent drop
		}
		infos = append(infos, DatasetInfo{Name: name, Size: n})
	}
	return encode(w, DatasetsResponse{Datasets: infos})
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

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) error {
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
		if rs != nil {
			w.Header().Set("Retry-After", retryAfter(rs.NextRetry))
		}
		code := CodeDraining
		if status == "degraded" {
			code = CodeDegraded
		}
		return &httpError{http.StatusServiceUnavailable, code, "not ready: " + status}
	}
	return encode(w, HealthResponse{
		Status:    status,
		Datasets:  len(s.db.Datasets()),
		Obstacles: s.db.NumObstacles(),
		Persist:   s.db.Persistent(),
		Recovery:  rs,
	})
}
