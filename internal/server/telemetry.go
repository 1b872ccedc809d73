package server

import (
	obstacles "repro"
	"repro/internal/telemetry"
)

// serverMetrics is the daemon's instrument set, registered into the
// Database's own telemetry registry (db.TelemetryRegistry()) so the obsd_*
// series appear on the same /metrics page as the engine's obstacles_*
// series — one registry, one scrape. Because registration is permanent and
// the registry rejects duplicate names, at most one Server may be built per
// Database handle.
type serverMetrics struct {
	requests map[string]*telemetry.Counter   // admitted requests, by route
	errors   map[string]*telemetry.Counter   // error responses, by route
	seconds  map[string]*telemetry.Histogram // wall time, by route

	rejectedOverload *telemetry.Counter // 429s: admission queue full
	rejectedDraining *telemetry.Counter // 503s: shutdown in progress
	rejectedDegraded *telemetry.Counter // 503s: degraded (read-only) mode
}

func newServerMetrics(db *obstacles.Database, g *gate) *serverMetrics {
	reg := db.TelemetryRegistry()
	m := &serverMetrics{
		requests: make(map[string]*telemetry.Counter, len(routes)),
		errors:   make(map[string]*telemetry.Counter, len(routes)),
		seconds:  make(map[string]*telemetry.Histogram, len(routes)),
	}
	// Every route's series is declared up front from the route table: the
	// registry wants instruments declared once, and a fixed set keeps the
	// label space bounded.
	for _, rt := range routes {
		route := rt.name
		m.requests[route] = reg.Counter("obsd_requests_total",
			"Requests admitted, by route.", telemetry.L("route", route))
		m.errors[route] = reg.Counter("obsd_request_errors_total",
			"Error responses, by route.", telemetry.L("route", route))
		m.seconds[route] = reg.Histogram("obsd_request_seconds",
			"Request wall time in seconds, by route.", telemetry.LatencyBuckets,
			telemetry.L("route", route))
	}
	m.rejectedOverload = reg.Counter("obsd_rejected_total",
		"Requests shed by admission control, by reason.", telemetry.L("reason", "overloaded"))
	m.rejectedDraining = reg.Counter("obsd_rejected_total",
		"Requests shed by admission control, by reason.", telemetry.L("reason", "draining"))
	m.rejectedDegraded = reg.Counter("obsd_rejected_total",
		"Requests shed by admission control, by reason.", telemetry.L("reason", "degraded"))
	reg.GaugeFunc("obsd_in_flight",
		"Requests currently executing inside the admission gate.",
		func() float64 { return float64(g.inFlight()) })
	return m
}
