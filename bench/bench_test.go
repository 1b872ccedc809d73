package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/server"
)

// smallWorld is the smoke tests' world: |O| = 100, |P| = 200, |Q| = 50.
func smallWorld() *world { return newWorld(100, 200, 50) }

// TestSmokeEndToEnd replays 50 requests of every workload through an
// in-process server.Server with the benchmark's own two-client runner and
// checks every answer against a fresh in-process Database.
func TestSmokeEndToEnd(t *testing.T) {
	w := smallWorld()
	for _, spec := range workloads {
		t.Run(spec.Name, func(t *testing.T) {
			list, err := generate(w, spec.Name, defaultSeed, 50)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			template := filepath.Join(dir, "template.obs")
			if spec.Durable {
				if err := createStore(template, w); err != nil {
					t.Fatal(err)
				}
			}
			db, err := openDB(&env{w: w}, &spec, dir, template, "w")
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(db, server.Config{})
			ts := httptest.NewServer(srv)
			defer func() {
				ts.Close()
				if err := srv.Shutdown(context.Background()); err != nil {
					t.Error(err)
				}
			}()
			r := newRunner(ts.URL, w, list)
			defer r.close()
			first, second := r.pass(), r.pass()
			for _, p := range []passResult{first, second} {
				for i, op := range p.Ops {
					if op.Err != "" {
						t.Fatalf("entry %d (%s): %s", i, list[i].Verb, op.Err)
					}
				}
			}
			oracle, err := newDatabase(w)
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()
			x := &dbExec{db: oracle, ids: make([]int64, len(list))}
			for i, q := range list {
				want, err := x.exec(i, q)
				if err != nil {
					t.Fatalf("oracle entry %d (%s): %v", i, q.Verb, err)
				}
				if !first.Ops[i].Ans.same(want) || !second.Ops[i].Ans.same(want) {
					t.Errorf("entry %d (%s): served %+v then %+v, in-process %+v",
						i, q.Verb, first.Ops[i].Ans, second.Ops[i].Ans, want)
				}
			}
		})
	}
}

// TestSmokeTraced runs the whole traced replay (every layer, the probes and
// the micro-probes) on 50 requests of every workload and checks that it
// produces exactly the traced metrics, with the layers agreeing on every
// answer, and that two runs give identical counts.
func TestSmokeTraced(t *testing.T) {
	counts := []string{
		"core.candidates_per_op", "core.false_hit_ratio", "core.dist_computations_per_op",
		"core.graph_builds_per_op", "core.graph_cache_hit_ratio", "core.graph_cache_invalidations",
		"core.graph_nodes_max", "visgraph.vertices_per_build", "visgraph.edges_per_build",
		"visgraph.settled_per_op", "visgraph.expansions_per_op", "rtree.logical_reads_per_op",
		"rtree.cow_copies_per_insert", "pagefile.physical_reads_per_op", "pagefile.buffer_hit_ratio",
		"obstacles.wal_bytes_per_commit", "wal.bytes_per_tx",
	}
	for _, spec := range workloads {
		t.Run(spec.Name, func(t *testing.T) {
			small := spec
			small.Requests, small.Prefix = 50, 50
			var runs [2]*tracedResult
			for i := range runs {
				e := &env{ctx: context.Background(), tmp: t.TempDir(), w: smallWorld(), seed: defaultSeed}
				out := t.TempDir()
				res, err := runTraced(e, &small, out)
				if err != nil {
					t.Fatal(err)
				}
				if res.Count.Failed != 0 {
					t.Fatalf("%d failures: %v", res.Count.Failed, res.Failures)
				}
				b, err := os.ReadFile(filepath.Join(out, "trace-"+spec.Name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var file struct{ Spans []span }
				if err := json.Unmarshal(b, &file); err != nil || len(file.Spans) == 0 {
					t.Fatalf("trace file: %d spans, err %v", len(file.Spans), err)
				}
				runs[i] = res
			}
			for name, v := range runs[0].Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s = %v", name, v)
				}
				if findMetric(name) == nil {
					t.Errorf("traced run produced %s, which spec.go does not list", name)
				}
			}
			for _, name := range counts {
				if a, b := runs[0].Metrics[name], runs[1].Metrics[name]; a != b {
					t.Errorf("%s differs between two traced runs: %v, %v", name, a, b)
				}
			}
			if spec.Durable && runs[0].Metrics["wal.bytes_per_tx"] == 0 {
				t.Error("wal.bytes_per_tx is 0 on the durable workload")
			}
		})
	}
}

func findMetric(name string) *metricSpec {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// TestBenchmarkJSON pins BENCHMARK.json to the lists the harness prints from,
// and both to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	// 4 + 22 runs per workload, each of run_seconds plus set-up, checks and
	// the durability tail, must fit the driver's 3420 s with both builds.
	if runs := 4 + 22*len(doc.Workloads); float64(runs)*(float64(doc.RunSeconds)+12) > 3420-240 {
		t.Errorf("%d runs of %d s do not fit the driver's budget", runs, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		check("workload", w.Name)
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q, spec.go says %q", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, m := range got {
			check(kind, m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s metric %d is %+v, spec.go says %+v", kind, i, m, want[i])
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != want[i].Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound %v, spec.go says %v", m.Name, m.Bound, want[i].Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 || len(doc.Workloads) > 8 {
		t.Error("too many metrics or workloads")
	}
	if s := findMetric("setup_s"); s == nil || s.Unit != "s" || s.Better != "lower" || s.Bound != 0.25 {
		t.Errorf("setup_s = %+v", s)
	}

	// What a run prints is exactly what is listed.
	rep := &report{Metrics: map[string]metricValue{}}
	rep.take(endToEnd, map[string]float64{})
	rep.take(perLayer, map[string]float64{})
	if len(rep.Metrics) != len(endToEnd)+len(perLayer) {
		t.Errorf("a full report has %d metrics, the lists %d", len(rep.Metrics), len(endToEnd)+len(perLayer))
	}
}

func TestPercentile(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("one sample: %v", got)
	}
	if got := percentile([]float64{1, 2, 3}, 50); got != 2 {
		t.Errorf("three samples, p50: %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples: %v", got)
	}
}

// TestQuartiles checks against values of Python's
// statistics.quantiles(values, n=4), the judge of the benchmark's spread.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestWholePassAccounting(t *testing.T) {
	// 6 s passes, 20 s target: three passes (18 s) are nearer than four.
	if enoughPasses(12, 2, 20) {
		t.Error("stopped at 12 s of 20")
	}
	if !enoughPasses(18, 3, 20) {
		t.Error("did not stop at 18 s of 20 with 6 s passes")
	}
	// A pass longer than the target still completes: one whole pass.
	if !enoughPasses(30, 1, 20) {
		t.Error("did not stop after one over-long pass")
	}

	list := []request{{Verb: vRange}, {Verb: vInsert}, {Verb: vRange}, {Verb: vDelete}}
	ms := func(v float64) int64 { return int64(v * 1e6) }
	// Three passes; the middle one is disturbed and loses a request.
	passes := []passResult{
		{Wall: 2 * time.Second, Ops: []opResult{{Ns: ms(1)}, {Ns: ms(10)}, {Ns: ms(3)}, {Ns: ms(20)}}},
		{Wall: 4 * time.Second, Ops: []opResult{{Ns: ms(9)}, {Ns: ms(90)}, {Err: "boom"}, {Ns: ms(99)}}},
		{Wall: 1 * time.Second, Ops: []opResult{{Ns: ms(2)}, {Ns: ms(11)}, {Ns: ms(4)}, {Ns: ms(21)}}},
	}
	res := &e2eResult{Metrics: map[string]float64{}, Setups: []float64{3, 1, 2}}
	for i := range passes {
		res.Wall += passes[i].Wall.Seconds()
		res.Measured.add(&passes[i])
	}
	clientMetrics(res, list, passes)
	m := res.Metrics
	if res.Measured.Attempted != 12 || res.Measured.Failed != 1 {
		t.Errorf("measured = %+v", res.Measured)
	}
	// Every metric is the median over passes of the pass's own value.
	for name, want := range map[string]float64{
		"setup_s":             2,
		"ops_per_s":           2, // of 4/2, 3/4 and 4/1 successes per second
		"read_p50_ms":         2, // of 1, 9 and 2; the failed read has no latency
		"read_p99_ms":         4, // of 3, 9 and 4
		"write_p50_ms":        11,
		"write_p99_ms":        21,
		"client.range_p50_ms": 2,
		"client.attempted":    12,
		"client.failed":       1,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	rec := &recorder{t0: time.Now()}
	at := func(ms int) time.Time { return rec.t0.Add(time.Duration(ms) * time.Millisecond) }
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	transport := rec.add("transport", 0, -1, at(0), d(10))
	srv := rec.add("server", 0, transport, at(1), d(7))
	db := rec.add("obstacles", 0, srv, at(20), d(5))
	core := rec.add("core", 0, db, at(30), d(4))
	rec.add("rtree", 0, core, at(40), d(1))
	rec.add("visgraph", 0, core, at(41), d(2))
	other := rec.add("transport", 1, -1, at(50), d(3))
	self := selfTimes(rec.spans)
	for id, want := range map[int]time.Duration{
		transport: d(3), srv: d(2), db: d(1), core: d(1), other: d(3),
	} {
		if got := time.Duration(self[id]); got != want {
			t.Errorf("span %d (%s): self %v, want %v", id, rec.spans[id].Name, got, want)
		}
	}
	var none *recorder
	if id := none.add("x", 0, -1, at(0), d(1)); id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
}

func TestGenerate(t *testing.T) {
	w := smallWorld()
	for _, spec := range workloads {
		a, err := generate(w, spec.Name, 7, 400)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, spec.Name, 7, 400)
		c, _ := generate(w, spec.Name, 8, 400)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two lists", spec.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: two seeds gave the same list", spec.Name)
		}
		if len(a) < 400 {
			t.Errorf("%s: %d requests", spec.Name, len(a))
		}
	}

	mix, _ := generate(w, "paper_mix", 7, 400)
	var n [numVerbs]int
	for _, q := range mix {
		n[q.Verb]++
	}
	if n[vRange] != 160 || n[vNearest] != 160 || n[vDistance] != 64 || n[vJoin] != 8 || n[vClosest] != 8 {
		t.Errorf("paper_mix composition: %v", n)
	}

	churn, _ := generate(w, "churn_durable", 7, 400)
	live := map[int]bool{}
	for i, q := range churn {
		switch q.Verb {
		case vInsert, vAddObstacle:
			live[i] = true
			strip := i % numClients
			if (strip == 0) != (q.A.X < w.Universe()/2) {
				t.Errorf("entry %d: client %d works at x = %v", i, strip, q.A.X)
			}
		case vDelete, vRemoveObstacle:
			if !live[q.Ref] || q.Ref%numClients != i%numClients {
				t.Errorf("entry %d undoes entry %d, which is not a live entry of the same client", i, q.Ref)
			}
			delete(live, q.Ref)
		}
	}
	if len(live) != 0 {
		t.Errorf("churn_durable leaves %d objects behind after a pass", len(live))
	}
}

func TestAnswerTolerance(t *testing.T) {
	a := answer{3, 1000}
	if !a.same(answer{3, 1000.0005}) || a.same(answer{3, 1000.01}) || a.same(answer{4, 1000}) {
		t.Error("answer.same is not a 1e-6 relative comparison on equal counts")
	}
}
