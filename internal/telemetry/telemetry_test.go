package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter reads %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	c.Add(0)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

// TestGauge: a gauge is read from its function at each scrape, so a change
// at the source shows on the next scrape without an update call.
func TestGauge(t *testing.T) {
	r := NewRegistry()
	depth := -3.0
	r.GaugeFunc("depth", "queue depth", func() float64 { return depth })
	for _, want := range []string{"depth -3\n", "depth 7\n"} {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), want) {
			t.Fatalf("scrape missing %q:\n%s", want, b.String())
		}
		depth = 7
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	// One observation per region: <=1, (1,10], (10,100], >100 (+Inf).
	for _, v := range []float64{0.5, 1, 5, 50, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1} // bound 1 is inclusive, so 0.5 and 1 share bucket 0
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if got := s.Sum; math.Abs(got-1056.5) > 1e-9 {
		t.Fatalf("sum = %g, want 1056.5", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	h.ObserveDuration(30 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-0.03) > 1e-9 {
		t.Fatalf("sum = %g, want 0.03", s.Sum)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v did not panic", bounds)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

func TestRegistryRules(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}

	r := NewRegistry()
	r.Counter("good_total", "h", L("verb", "range"))
	// Same name, different labels: fine.
	r.Counter("good_total", "h", L("verb", "nn"))

	mustPanic("invalid metric name", func() { r.Counter("bad name", "h") })
	mustPanic("invalid label name", func() { r.Counter("ok_total", "h", L("bad key", "v")) })
	mustPanic("duplicate series", func() { r.Counter("good_total", "h", L("verb", "range")) })
	mustPanic("type mismatch", func() { r.GaugeFunc("good_total", "h", func() float64 { return 0 }) })
	// Label order must not defeat duplicate detection.
	r.Counter("pairs_total", "h", L("a", "1"), L("b", "2"))
	mustPanic("reordered duplicate", func() { r.Counter("pairs_total", "h", L("b", "2"), L("a", "1")) })
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", L("verb", "nn"))
	c.Add(3)
	r.GaugeFunc("depth", "queue depth", func() float64 { return -2 })
	r.GaugeFunc("wal_bytes", "wal size", func() float64 { return 4096 })
	r.CounterFunc("hits_total", "cache hits", func() uint64 { return 9 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP reqs_total requests\n",
		"# TYPE reqs_total counter\n",
		"reqs_total{verb=\"nn\"} 3\n",
		"# TYPE depth gauge\n",
		"depth -2\n",
		"wal_bytes 4096\n",
		"hits_total 9\n",
		"# TYPE lat_seconds histogram\n",
		"lat_seconds_bucket{le=\"0.1\"} 1\n",
		"lat_seconds_bucket{le=\"1\"} 2\n",
		"lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"lat_seconds_sum 5.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
}

func TestTrace(t *testing.T) {
	var nilTrace *Trace
	// Every method must be a no-op on nil, not a crash.
	if nilTrace.Root("x") != nil {
		t.Fatal("nil trace should yield nil spans")
	}
	nilTrace.Root("x").StartSpan("y")()
	if nilTrace.String() != "" || !nilTrace.Start().IsZero() {
		t.Fatal("nil trace should be inert")
	}

	tr := NewTrace()
	root := tr.Root("query")
	root.ChildDur("first", tr.Start(), time.Millisecond)
	root.ChildDur("second", tr.Start().Add(time.Millisecond), 2*time.Millisecond)
	root.End()
	s := tr.String()
	if !strings.Contains(s, "first@0s+1ms") || !strings.Contains(s, "second@1ms+2ms") {
		t.Fatalf("trace string = %q", s)
	}
}

// TestConcurrentUpdates hammers one counter and one histogram from many
// goroutines and asserts no update is lost — the lock-free hot paths must be
// exactly as accurate as a mutex would be. Run under -race in CI.
func TestConcurrentUpdates(t *testing.T) {
	const (
		goroutines = 16
		perG       = 5000
	)
	r := NewRegistry()
	c := r.Counter("stress_total", "")
	h := r.Histogram("stress_seconds", "", LatencyBuckets)

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				// Spread observations across buckets, deterministically.
				h.Observe(float64((seed*perG+j)%1000) * 1e-5)
			}
		}(i)
	}
	// Concurrent scrapes must not disturb writers (or trip -race).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	const total = goroutines * perG
	if got := c.Value(); got != total {
		t.Errorf("counter lost updates: %d != %d", got, total)
	}
	s := h.Snapshot()
	if s.Count != total {
		t.Errorf("histogram lost observations: %d != %d", s.Count, total)
	}
	var bucketSum uint64
	for _, n := range s.Counts {
		bucketSum += n
	}
	if bucketSum != total {
		t.Errorf("bucket counts lost observations: %d != %d", bucketSum, total)
	}
	// The CAS loop must fold in every observation: the sum is exactly the
	// deterministic per-goroutine series summed goroutines times.
	want := 0.0
	for i := 0; i < goroutines; i++ {
		for j := 0; j < perG; j++ {
			want += float64((i*perG+j)%1000) * 1e-5
		}
	}
	if math.Abs(s.Sum-want) > 1e-6*want {
		t.Errorf("histogram sum drifted: %g != %g", s.Sum, want)
	}
}
