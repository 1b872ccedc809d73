package telemetry

import (
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// The flight recorder: a bounded in-memory store of completed traces with
// tiered retention, plus the registry of traces still in flight. Tiers keep
// the traces worth keeping from being displaced by bulk traffic:
//
//   - error traces (the request failed server-side) are always kept;
//   - slow traces (root duration at or over slowThreshold, 250 ms) are
//     always kept;
//   - normal traces are kept with the recorder's sample rate.
//
// Each tier is its own ring, so a flood of sampled normal traces can never
// evict an error or slow trace — only newer traces of the same tier do.

// Retention tiers, as reported in trace summaries.
const (
	TierError  = "error"
	TierSlow   = "slow"
	TierNormal = "normal"
)

// SpanSnapshot is one span of a completed (or snapshotted in-flight) trace,
// in tree form.
type SpanSnapshot struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartMicros is the span's start offset from the trace start.
	StartMicros int64 `json:"start_us"`
	// DurationMicros is the span's duration (elapsed-so-far for open spans).
	DurationMicros int64 `json:"duration_us"`
	// Open marks a span not yet ended when the snapshot was taken.
	Open     bool            `json:"open,omitempty"`
	Attrs    map[string]any  `json:"attrs,omitempty"`
	Links    []string        `json:"links,omitempty"`
	Children []*SpanSnapshot `json:"children,omitempty"`
}

// TraceSnapshot is a completed trace as stored by the recorder and served by
// /debug/traces/{id}: the span tree plus summary fields.
type TraceSnapshot struct {
	TraceID string `json:"trace_id"`
	// RemoteParent is the inbound W3C parent span id, when the trace
	// continued a caller's traceparent header.
	RemoteParent   string    `json:"remote_parent,omitempty"`
	Name           string    `json:"name"`
	Start          time.Time `json:"start"`
	DurationMicros int64     `json:"duration_us"`
	Error          bool      `json:"error,omitempty"`
	Tier           string    `json:"tier,omitempty"`
	NumSpans       int       `json:"num_spans"`
	// Spans is the span forest: the root span plus any span whose parent is
	// remote or unknown, children nested in creation order.
	Spans []*SpanSnapshot `json:"spans"`
}

// Snapshot captures the trace's span tree. Safe to call while the trace is
// still being written to; open spans are marked and carry their elapsed time
// so far.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TraceSnapshot{
		TraceID:  t.id.String(),
		Start:    t.start,
		NumSpans: len(t.spans),
	}
	if !t.remoteParent.IsZero() {
		snap.RemoteParent = t.remoteParent.String()
	}
	if t.root != nil {
		snap.Name = t.root.name
		if t.root.ended {
			snap.DurationMicros = t.root.duration.Microseconds()
		} else {
			snap.DurationMicros = time.Since(t.start).Microseconds()
		}
	} else {
		snap.DurationMicros = time.Since(t.start).Microseconds()
	}
	nodes := make(map[SpanID]*SpanSnapshot, len(t.spans))
	for _, sp := range t.spans {
		n := &SpanSnapshot{
			SpanID:      sp.id.String(),
			Name:        sp.name,
			StartMicros: sp.start.Sub(t.start).Microseconds(),
		}
		if !sp.parent.IsZero() {
			n.ParentID = sp.parent.String()
		}
		if sp.ended {
			n.DurationMicros = sp.duration.Microseconds()
		} else {
			n.DurationMicros = time.Since(sp.start).Microseconds()
			n.Open = true
		}
		if len(sp.attrs) > 0 {
			n.Attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		for _, l := range sp.links {
			n.Links = append(n.Links, l.String())
		}
		nodes[sp.id] = n
	}
	for _, sp := range t.spans {
		n := nodes[sp.id]
		if parent, ok := nodes[sp.parent]; ok && sp.parent != sp.id {
			parent.Children = append(parent.Children, n)
		} else {
			snap.Spans = append(snap.Spans, n)
		}
	}
	return snap
}

// TraceSummary is one row of the /debug/traces listing.
type TraceSummary struct {
	TraceID        string    `json:"trace_id"`
	Name           string    `json:"name"`
	Start          time.Time `json:"start"`
	DurationMicros int64     `json:"duration_us"`
	Tier           string    `json:"tier"`
	Error          bool      `json:"error,omitempty"`
	NumSpans       int       `json:"num_spans"`
}

// ActiveTrace is one in-flight request as listed by /debug/active.
type ActiveTrace struct {
	TraceID       string    `json:"trace_id"`
	Name          string    `json:"name"`
	Start         time.Time `json:"start"`
	ElapsedMicros int64     `json:"elapsed_us"`
	// OpenSpan is the most recently opened span still running — what the
	// request is doing right now.
	OpenSpan string `json:"open_span,omitempty"`
}

// The retention policy: a trace whose root ran at least slowThreshold is
// slow-tier, and each tier keeps its newest traces in a ring of fixed
// capacity.
const (
	slowThreshold  = 250 * time.Millisecond
	errorCapacity  = 64
	slowCapacity   = 64
	normalCapacity = 128
)

// RecorderStats counts the recorder's retention decisions since creation.
type RecorderStats struct {
	// Errors, Slow and Sampled count retained traces by tier; SampledOut
	// counts normal-tier traces dropped by the sampling coin flip.
	Errors, Slow, Sampled, SampledOut uint64
}

// Recorder is the flight recorder. Safe for concurrent use.
type Recorder struct {
	// sampleRate is the probability, in [0, 1], a normal-tier trace is
	// retained; error and slow traces always are.
	sampleRate float64
	slowAfter  time.Duration // slowThreshold; tests lower it

	mu      sync.Mutex
	errors  ring
	slow    ring
	normal  ring
	active  map[TraceID]*Trace
	stats   RecorderStats
	sampler func() float64 // rand.Float64, injectable by tests
}

// NewRecorder builds a flight recorder that retains normal-tier traces with
// probability sampleRate (0: only errors and slow traces are kept).
func NewRecorder(sampleRate float64) *Recorder {
	return &Recorder{
		sampleRate: sampleRate,
		slowAfter:  slowThreshold,
		errors:     ring{buf: make([]TraceSnapshot, 0, errorCapacity)},
		slow:       ring{buf: make([]TraceSnapshot, 0, slowCapacity)},
		normal:     ring{buf: make([]TraceSnapshot, 0, normalCapacity)},
		active:     make(map[TraceID]*Trace),
		sampler:    rand.Float64,
	}
}

// StartActive registers an in-flight trace for /debug/active.
func (r *Recorder) StartActive(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.active[t.ID()] = t
	r.mu.Unlock()
}

// EndActive removes a trace from the in-flight registry. Idempotent.
func (r *Recorder) EndActive(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	delete(r.active, t.ID())
	r.mu.Unlock()
}

// Record files a completed trace under its retention tier: error traces and
// slow traces always, normal traces with probability sampleRate. The
// snapshot is taken before any recorder lock, so instrumented paths never
// serialize behind a scrape.
func (r *Recorder) Record(t *Trace, isErr bool) {
	if r == nil || t == nil {
		return
	}
	dur := t.Duration()
	tier := TierNormal
	switch {
	case isErr:
		tier = TierError
	case dur >= r.slowAfter:
		tier = TierSlow
	default:
		// Flip the sampling coin before paying for the snapshot.
		r.mu.Lock()
		keep := r.sampler() < r.sampleRate
		if !keep {
			r.stats.SampledOut++
		}
		r.mu.Unlock()
		if !keep {
			return
		}
	}
	snap := t.Snapshot()
	snap.Error = isErr
	snap.Tier = tier
	r.mu.Lock()
	switch tier {
	case TierError:
		r.errors.add(snap)
		r.stats.Errors++
	case TierSlow:
		r.slow.add(snap)
		r.stats.Slow++
	default:
		r.normal.add(snap)
		r.stats.Sampled++
	}
	r.mu.Unlock()
}

// Stats returns the recorder's retention counters.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Traces lists retained traces, newest first. verb filters on the root span
// name ("" matches all); minDur drops traces shorter than it; limit caps the
// result (<= 0 means no cap).
func (r *Recorder) Traces(verb string, minDur time.Duration, limit int) []TraceSummary {
	r.mu.Lock()
	var out []TraceSummary
	for _, ring := range []*ring{&r.errors, &r.slow, &r.normal} {
		for _, snap := range ring.buf {
			if verb != "" && snap.Name != verb {
				continue
			}
			if snap.DurationMicros < minDur.Microseconds() {
				continue
			}
			out = append(out, TraceSummary{
				TraceID:        snap.TraceID,
				Name:           snap.Name,
				Start:          snap.Start,
				DurationMicros: snap.DurationMicros,
				Tier:           snap.Tier,
				Error:          snap.Error,
				NumSpans:       snap.NumSpans,
			})
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Get returns a retained trace's full span tree by hex trace id.
func (r *Recorder) Get(id string) (TraceSnapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ring := range []*ring{&r.errors, &r.slow, &r.normal} {
		for i := len(ring.buf) - 1; i >= 0; i-- {
			if ring.buf[i].TraceID == id {
				return ring.buf[i], true
			}
		}
	}
	return TraceSnapshot{}, false
}

// Active lists in-flight traces, longest-running first.
func (r *Recorder) Active() []ActiveTrace {
	r.mu.Lock()
	out := make([]ActiveTrace, 0, len(r.active))
	for _, t := range r.active {
		at := ActiveTrace{
			TraceID:       t.ID().String(),
			Name:          t.RootName(),
			Start:         t.Start(),
			ElapsedMicros: time.Since(t.Start()).Microseconds(),
		}
		if name, _, ok := t.OpenSpan(); ok {
			at.OpenSpan = name
		}
		out = append(out, at)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// ring is a bounded insertion-ordered buffer: when full, the oldest entry is
// evicted. Capacity is buf's cap, fixed at construction.
type ring struct {
	buf []TraceSnapshot
}

func (r *ring) add(s TraceSnapshot) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
		return
	}
	copy(r.buf, r.buf[1:])
	r.buf[len(r.buf)-1] = s
}
