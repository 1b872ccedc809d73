// Package telemetry is the engine's measurement substrate: a registry of
// named counters, read-at-scrape gauges and fixed-bucket histograms whose
// update paths are
// lock-free (single atomic adds, a CAS loop for histogram sums), plus a
// lightweight span tracer for query lifecycles.
//
// The package deliberately implements a small subset of the Prometheus data
// model — enough to instrument hot paths without a dependency and to expose
// everything in the text exposition format any scraper parses. Metrics are
// created through a Registry, which enforces unique (name, label-set) pairs
// and consistent types per metric family; WritePrometheus renders the whole
// registry.
//
// Updates (Counter.Add, Histogram.Observe) never take a lock and
// never allocate; the registry's mutex guards registration and iteration
// only, so scraping never stalls queries and queries never stall each other
// on metrics.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if n != 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets are defined by their
// inclusive upper bounds (ascending); observations above the last bound land
// in an implicit +Inf bucket. Observe is lock-free: one atomic add on the
// bucket and a CAS loop folding the value into the sum.
type Histogram struct {
	bounds []float64 // immutable after construction
	counts []atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits of the running sum
}

// newHistogram builds a histogram with the given ascending upper bounds.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search over the immutable bounds; bounds are inclusive upper
	// limits, matching the Prometheus "le" semantics.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Snapshot captures a consistent-enough view of the histogram for reporting.
// Concurrent observations may tear the (count, sum, buckets) triple by a few
// in-flight updates; each individual field is exact at the instant it was
// read.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the inclusive bucket upper bounds; Counts has one more
	// entry, the implicit +Inf overflow bucket. Counts are per-bucket, not
	// cumulative.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// LatencyBuckets is the default latency histogram layout, in seconds:
// roughly logarithmic from 10µs (a warm in-memory point query) to 10s (a
// pathological matrix job), 20 buckets plus +Inf.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// SizeBuckets is the default layout for small-count distributions (commit
// batch sizes): powers of two from 1 to 256.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Label is one name="value" pair attached to a metric.
type Label struct {
	Key, Value string
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one registered (name, label-set) time series.
type series struct {
	labels []Label
	// exactly one of the following is set, matching the family type
	counter     *Counter
	counterFunc func() uint64
	gaugeFunc   func() float64
	histogram   *Histogram
}

// family groups every series sharing a metric name; all carry the same type
// and help string.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry holds metric families and renders them. Registration is
// typically done once at startup; the registry mutex is never on an update
// path.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// register adds a series, enforcing the Prometheus data-model rules:
// metric and label names must be well-formed, a name maps to exactly one
// type and help string, and no (name, label-set) pair may appear twice.
// Violations panic: they are programmer errors in instrumentation code,
// caught by the first test that touches the registry.
func (r *Registry) register(name, help, typ string, labels []Label, s *series) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %s", l.Key, name))
		}
	}
	s.labels = append([]Label(nil), labels...)
	sort.Slice(s.labels, func(i, j int) bool { return s.labels[i].Key < s.labels[j].Key })
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s and %s", name, f.typ, typ))
	}
	key := labelKey(s.labels)
	for _, prev := range f.series {
		if labelKey(prev.labels) == key {
			panic(fmt.Sprintf("telemetry: duplicate series %s%s", name, key))
		}
	}
	f.series = append(f.series, s)
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	out := "{"
	for i, l := range labels {
		if i > 0 {
			out += ","
		}
		out += l.Key + "=" + fmt.Sprintf("%q", l.Value)
	}
	return out + "}"
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, typeCounter, labels, &series{counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for counters an existing subsystem already maintains (cache hits,
// recovery attempts) that would be wasteful to double-count.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, typeCounter, labels, &series{counterFunc: fn})
}

// GaugeFunc registers a gauge read from fn at scrape time (WAL size, file
// pages, anything whose source of truth lives elsewhere).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, typeGauge, labels, &series{gaugeFunc: fn})
}

// Histogram registers and returns a new histogram series with the given
// ascending bucket upper bounds (LatencyBuckets and SizeBuckets are the
// stock layouts).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, typeHistogram, labels, &series{histogram: h})
	return h
}
