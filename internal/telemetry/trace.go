package telemetry

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"
)

// The tracing model: a Trace is one request's (or one query's) tree of
// Spans, identified by a 128-bit TraceID; each Span is one timed stage with
// a 64-bit SpanID, a parent pointer, key-value attributes, and links to
// other traces (a group-commit rider links the committer's). Traces cross
// process boundaries through the W3C `traceparent` header (see
// traceparent.go) and context boundaries through ContextWithSpan.
//
// All methods on *Trace and *Span are nil-safe: un-instrumented code paths
// carry a nil span and pay one branch per call, which is what keeps tracing
// free when disabled.

// TraceID is a 128-bit trace identifier (W3C Trace Context trace-id).
type TraceID [16]byte

// SpanID is a 64-bit span identifier (W3C Trace Context parent-id).
type SpanID [8]byte

// NewTraceID returns a random non-zero trace id.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		u, v := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(u >> (8 * i))
			id[8+i] = byte(v >> (8 * i))
		}
	}
	return id
}

// NewSpanID returns a random non-zero span id.
func NewSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		u := rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(u >> (8 * i))
		}
	}
	return id
}

// IsZero reports whether the id is all-zero (invalid per W3C).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the id is all-zero (invalid per W3C).
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the id as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses 32 lowercase hex digits into a TraceID.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 || !isLowerHex(s) {
		return id, fmt.Errorf("telemetry: invalid trace id %q", s)
	}
	hex.Decode(id[:], []byte(s))
	return id, nil
}

// ParseSpanID parses 16 lowercase hex digits into a SpanID.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 16 || !isLowerHex(s) {
		return id, fmt.Errorf("telemetry: invalid span id %q", s)
	}
	hex.Decode(id[:], []byte(s))
	return id, nil
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// Attr is one key-value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// Trace is one request's span tree. One mutex guards the whole tree: spans
// are created and ended from the request's own goroutine almost always, but
// the flight recorder snapshots in-flight traces from scrape goroutines and
// batch leaders stamp spans across tickets, so every access synchronizes
// here. The zero value is not usable; build with NewTrace or NewTraceFrom.
type Trace struct {
	id TraceID
	// remoteParent is the inbound parent span id when the trace continued a
	// W3C traceparent header; zero for traces born in this process.
	remoteParent SpanID
	start        time.Time

	mu    sync.Mutex
	spans []*Span // creation order
	root  *Span
}

// NewTrace starts a trace with a fresh id.
func NewTrace() *Trace {
	return &Trace{id: NewTraceID(), start: time.Now()}
}

// NewTraceFrom starts a trace continuing a remote caller's trace id, with
// the caller's span as the (remote) parent of this trace's root span. A zero
// id falls back to a fresh one.
func NewTraceFrom(id TraceID, parent SpanID) *Trace {
	if id.IsZero() {
		id = NewTraceID()
	}
	return &Trace{id: id, remoteParent: parent, start: time.Now()}
}

// ID returns the trace id (zero for a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Start returns when the trace began (the zero time for a nil trace).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// RemoteParent returns the inbound parent span id (zero unless the trace
// continued a traceparent header).
func (t *Trace) RemoteParent() SpanID {
	if t == nil {
		return SpanID{}
	}
	return t.remoteParent
}

// Root opens the trace's root span. Its parent is the remote caller's span
// when the trace continued a traceparent header, else none.
func (t *Trace) Root(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{t: t, id: NewSpanID(), parent: t.remoteParent, name: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	if t.root == nil {
		t.root = sp
	}
	t.mu.Unlock()
	return sp
}

// RootName returns the root span's name ("" before Root is called).
func (t *Trace) RootName() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		return ""
	}
	return t.root.name
}

// Duration returns the root span's duration once it has ended, else the
// elapsed time since the trace began.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root != nil && t.root.ended {
		return t.root.duration
	}
	return time.Since(t.start)
}

// OpenSpan returns the most recently opened span that has not ended — the
// "what is this request doing right now" probe behind /debug/active.
func (t *Trace) OpenSpan() (name string, start time.Time, ok bool) {
	if t == nil {
		return "", time.Time{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if !t.spans[i].ended {
			return t.spans[i].name, t.spans[i].start, true
		}
	}
	return "", time.Time{}, false
}

// Span is one timed stage of a trace: a name, a parent, a start and
// duration, attributes, and links to other traces. Spans are created through
// Trace.Root and Span.StartChild and closed with End; all methods are
// nil-safe.
type Span struct {
	t      *Trace
	id     SpanID
	parent SpanID

	// The fields below are guarded by t.mu.
	name     string
	start    time.Time
	duration time.Duration
	ended    bool
	attrs    []Attr
	links    []TraceID
}

// Trace returns the trace the span belongs to (nil for a nil span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.t
}

// ID returns the span id (zero for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.name
}

// StartChild opens a child span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{t: s.t, id: NewSpanID(), parent: s.id, name: name, start: time.Now()}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, child)
	s.t.mu.Unlock()
	return child
}

// StartSpan opens a child span and returns the function that ends it — the
// defer-friendly form:
//
//	defer sp.StartSpan("graph-build")()
func (s *Span) StartSpan(name string) func() {
	if s == nil {
		return func() {}
	}
	child := s.StartChild(name)
	return child.End
}

// ChildDur records an already-completed child span with an explicit start
// and duration — for stages timed by code that cannot hold a live span (the
// WAL fsync hook, the stage timer under the update lock).
func (s *Span) ChildDur(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	child := &Span{t: s.t, id: NewSpanID(), parent: s.id, name: name, start: start, duration: d, ended: true}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, child)
	s.t.mu.Unlock()
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if !s.ended {
		s.ended = true
		s.duration = time.Since(s.start)
	}
	s.t.mu.Unlock()
}

// SetAttr annotates the span with a key-value pair. A repeated key appends;
// readers keep the last value.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// AddLink records a causal reference to another trace — the span's work was
// performed by (or shared with) that trace, as when a group-commit rider's
// fsync ran under the committer's trace.
func (s *Span) AddLink(id TraceID) {
	if s == nil || id.IsZero() {
		return
	}
	s.t.mu.Lock()
	s.links = append(s.links, id)
	s.t.mu.Unlock()
}

// String renders the trace as one line of `name@offset+dur` entries relative
// to the trace start — compact enough for a structured log field. Open spans
// render with their elapsed time so far.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for i, sp := range t.spans {
		if i > 0 {
			b.WriteString(" ")
		}
		d := sp.duration
		if !sp.ended {
			d = time.Since(sp.start)
		}
		fmt.Fprintf(&b, "%s@%s+%s", sp.name,
			sp.start.Sub(t.start).Round(time.Microsecond),
			d.Round(time.Microsecond))
	}
	return b.String()
}

// spanCtxKey carries the current span through a context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sp as the current span; child
// work started under the returned context parents its spans there. A nil sp
// returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the current span carried by ctx (nil when none).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}
