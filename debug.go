package obstacles

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// DebugHandler returns the database's observability endpoint as a plain
// http.Handler: /metrics (Prometheus text, every process-lifetime count),
// /debug/vars (the durable backend's state and recovery status as JSON),
// the flight recorder under /debug/traces, /debug/traces/{id} and
// /debug/active, and /debug/pprof/*. Servers embedding a Database
// (cmd/obsd) mount it on their own listener, so one scrape target covers
// the process without a second registry or port.
func (db *Database) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", db.tel.reg.Handler())
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		writeDebugJSON(w, struct {
			Persist  PersistStats
			Recovery RecoveryStats
		}{db.PersistStats(), db.RecoveryStats()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", db.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", db.handleTraceByID)
	mux.HandleFunc("GET /debug/active", db.handleActiveTraces)
	return mux
}

// handleTraces serves GET /debug/traces: the flight recorder's retained
// traces as a JSON list, newest first. Query parameters: verb= filters on
// the root span name, min_dur= (a Go duration, e.g. 50ms) drops faster
// traces, n= caps the list (default 100).
func (db *Database) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var minDur time.Duration
	if v := q.Get("min_dur"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad min_dur %q: %v", v, err), http.StatusBadRequest)
			return
		}
		minDur = d
	}
	limit := 100
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, fmt.Sprintf("bad n %q", v), http.StatusBadRequest)
			return
		}
		limit = n
	}
	writeDebugJSON(w, db.tel.traces.Traces(q.Get("verb"), minDur, limit))
}

// handleTraceByID serves GET /debug/traces/{id}: one retained trace's full
// span tree.
func (db *Database) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	snap, ok := db.tel.traces.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "trace not found (evicted, sampled out, or never recorded)", http.StatusNotFound)
		return
	}
	writeDebugJSON(w, snap)
}

// handleActiveTraces serves GET /debug/active: in-flight traced requests,
// longest-running first, each with its elapsed time and currently-open span.
func (db *Database) handleActiveTraces(w http.ResponseWriter, r *http.Request) {
	writeDebugJSON(w, db.tel.traces.Active())
}

func writeDebugJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
