// Command obsd serves an obstacles database over HTTP/JSON: every query
// verb (range, nearest, join, closest-pairs, distance, path,
// distance-matrix, cluster) and every mutation verb (insert/delete points,
// add/remove obstacles, create dataset) on multi-tenant dataset
// namespaces, with per-request deadlines, admission control, and graceful
// drain on SIGINT/SIGTERM.
//
// Usage:
//
//	obsd -db city.obs -addr localhost:8080
//	obsd -obstacles 1000 -entities 2000 -seed 1 -addr localhost:8080
//
// With -db the daemon opens a durable file (created with obsctl create)
// and every mutation commits through its WAL; SIGTERM drains in-flight
// requests and closes the file cleanly. Without -db it serves a generated
// in-memory street world — handy for benchmarks and demos.
//
// The API listener also exposes the database's observability endpoints —
// /metrics (Prometheus text, engine obstacles_* series, Go runtime go_*
// series and daemon obsd_* series in one registry), /debug/vars,
// /debug/traces (flight recorder), /debug/active (in-flight requests),
// /debug/pprof/ — so one scrape target covers the whole process. GET
// /healthz reports "ok" or "draining"; GET /v1/datasets lists the
// namespaces. Both bypass admission control, so they answer even when the
// daemon is saturated.
//
// Tracing: every request runs under a trace and every response carries its
// id in the Obs-Trace-Id header. A caller sending a W3C traceparent header
// continues its own trace through the daemon. Failed and slow requests are
// always retained by the flight recorder; normal requests are sampled at
// -trace-sample. GET /debug/traces lists retained traces (filter with
// ?verb=, ?min_dur=, cap with ?n=), /debug/traces/{id} returns one full
// span tree, /debug/active shows what the daemon is doing right now.
//
// Request deadlines: clients append ?timeout=750ms (any Go duration) to a
// verb URL; the deadline is clamped to -max-timeout, bounds the wait for an
// admission slot and is propagated into the engine, and an expired deadline
// returns the structured error {"error":{"code":"deadline_exceeded",...}}
// with status 504.
//
// Overload: at most -max-in-flight requests execute at once and
// -max-queued more wait; beyond that the daemon sheds load immediately
// with {"error":{"code":"overloaded",...}}, status 429, and a Retry-After
// header. During shutdown new requests get code "draining" and 503.
//
// Distances: /v1/distance builds no visibility graph for a pair in plain
// sight or one a detour round the few obstacles in its way decides, and a
// small one of its own for the rest; requests share none.
//
// Request logging: -log-requests emits one structured JSON line to stderr
// per request — route, dataset, status, duration and trace id.
//
// Backup: POST /v1/admin/backup with {"path": "copy.obs"} writes a
// consistent point-in-time copy of a durable database to a fresh file
// while the daemon keeps serving; the copy pins a snapshot, so queries and
// mutations never block on it.
//
// Failure handling: when a durable commit fails (full disk, dying device),
// the database degrades to read-only instead of crashing — queries keep
// answering from the last published generation while mutations return 503
// with code "degraded" and a Retry-After header. With -auto-recover a
// supervisor retries recovery in place (capped exponential backoff from
// -recover-backoff), replaying the WAL and resuming the write path without
// a restart; GET /healthz reports "degraded" with recovery progress, and
// GET /healthz?ready=1 turns 503 so load balancers rotate the daemon out.
// POST /v1/admin/scrub cross-checks the trees against their tables and
// verifies every page checksum online. -chaos installs
// programmable faults (e.g. "wal-sync:after=20:count=1") for drills.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	obstacles "repro"
	"repro/internal/dataset"
	"repro/internal/pagefile"
	"repro/internal/server"
)

func main() {
	var (
		dbPath = flag.String("db", "", "durable database file (obsctl create); empty serves a generated in-memory world")
		addr   = flag.String("addr", "localhost:8080", "listen address (host:0 picks a free port)")

		nObst = flag.Int("obstacles", 1000, "generated obstacle count (in-memory mode)")
		nEnts = flag.Int("entities", 2000, "generated entity count (in-memory mode)")
		seed  = flag.Int64("seed", 1, "generator seed (in-memory mode)")
		name  = flag.String("dataset", "P", "dataset name for generated entities (in-memory mode)")

		maxInFlight = flag.Int("max-in-flight", 64, "concurrently executing requests before arrivals queue")
		maxQueued   = flag.Int("max-queued", 0, "queued requests before arrivals are shed with 429 (0 = 4x max-in-flight)")
		defTimeout  = flag.Duration("default-timeout", 30*time.Second, "deadline for requests without ?timeout=")
		maxTimeout  = flag.Duration("max-timeout", 5*time.Minute, "upper clamp on ?timeout=")

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		logRequests  = flag.Bool("log-requests", false, "log one structured JSON line per request to stderr")
		traceSample  = flag.Float64("trace-sample", 0.1, "probability a normal request's trace is retained (errors and slow always are)")

		autoRecover    = flag.Bool("auto-recover", false, "retry in-place recovery automatically after a durable fault degrades the database")
		recoverBackoff = flag.Duration("recover-backoff", 0, "initial recovery retry backoff (0 = default 500ms; doubles per failure, capped at 60 times itself)")
		chaosSpec      = flag.String("chaos", "", `inject I/O faults for resilience drills, e.g. "wal-sync:after=20:count=1"`)
	)
	flag.Parse()
	var reqLog *slog.Logger
	if *logRequests {
		reqLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	opts := obstacles.Options{
		TraceSampleRate: *traceSample, AutoRecover: *autoRecover, RecoverBackoff: *recoverBackoff,
	}
	if *chaosSpec != "" {
		rules, err := pagefile.ParseFaultSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obsd: -chaos:", err)
			os.Exit(1)
		}
		opts.Chaos = pagefile.NewInjector(rules...)
		log.Printf("chaos: %d fault rule(s) installed from %q", len(rules), *chaosSpec)
	}
	if err := run(*dbPath, *addr, *nObst, *nEnts, *seed, *name,
		server.Config{
			MaxInFlight: *maxInFlight, MaxQueued: *maxQueued,
			DefaultTimeout: *defTimeout, MaxTimeout: *maxTimeout,
			RequestLogger: reqLog,
		}, opts, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "obsd:", err)
		os.Exit(1)
	}
}

func run(dbPath, addr string, nObst, nEnts int, seed int64, name string,
	cfg server.Config, opts obstacles.Options, drainTimeout time.Duration) error {
	var (
		db  *obstacles.Database
		err error
	)
	if dbPath != "" {
		db, err = obstacles.Open(dbPath, opts)
		if err != nil {
			return err
		}
		log.Printf("opened %s: %d obstacles, datasets %v", dbPath, db.NumObstacles(), db.Datasets())
	} else {
		world := dataset.Generate(dataset.DefaultConfig(seed, nObst))
		db, err = obstacles.NewDatabaseFromRects(world.Rects, opts)
		if err != nil {
			return err
		}
		if err := db.AddDataset(name, world.Entities(world.EntityRand(1), nEnts)); err != nil {
			db.Close()
			return err
		}
		log.Printf("generated world seed %d: %d obstacles, %d entities in dataset %q",
			seed, nObst, nEnts, name)
	}

	srv := server.New(db, cfg)
	if err := srv.Start(addr); err != nil {
		db.Close()
		return err
	}
	log.Printf("serving on http://%s (metrics at /metrics, health at /healthz)", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("%s: draining (max %s)", got, drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("drained and closed")
	return nil
}
