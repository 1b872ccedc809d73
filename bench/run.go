package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// env is what every run of one invocation shares.
type env struct {
	ctx  context.Context
	bin  string // the built obsd
	tmp  string // scratch directory inside the checkout, removed on exit
	w    *world
	seed int64
	// update is -update-golden: the golden files are being re-recorded, so
	// they are not checked.
	update bool
}

// phaseCount is the failure accounting of one phase of a run.
type phaseCount struct{ Attempted, Failed int }

func (p *phaseCount) add(r *passResult) {
	p.Attempted += len(r.Ops)
	p.Failed += r.failed()
}

// e2eResult is one workload run against a real obsd child.
type e2eResult struct {
	Spec     *workloadSpec
	Setups   []float64 // seconds, one per set-up repetition
	Warm     phaseCount
	Measured phaseCount
	Passes   int
	Wall     float64 // seconds, summed over whole passes
	Failures []string
	Notes    []string
	Metrics  map[string]float64
}

func (r *e2eResult) fail(p *phaseCount, format string, args ...any) {
	p.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// setupReps is how many times a run sets obsd up; setup_s is the median.
const setupReps = 3

// defaultSeed is the seed the golden files were recorded with.
const defaultSeed = 42

// runE2E runs one workload end to end: sets obsd up setupReps times (the last
// one stays), replays the list in whole passes for about `seconds`, checks
// every answer, and on the durable workload ends with the kill-restart check.
func runE2E(e *env, spec *workloadSpec, seconds float64) (*e2eResult, error) {
	res := &e2eResult{Spec: spec, Metrics: map[string]float64{}}
	list, err := generate(e.w, spec.Name, e.seed, spec.Requests)
	if err != nil {
		return nil, err
	}
	// Warm-up is its own fixed list of 5 % of a pass, from the next seed.
	warm, err := generate(e.w, spec.Name, e.seed+1, max(spec.Requests/20, 2*numClients))
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(e.tmp, spec.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var template, dbPath string
	if spec.Durable {
		template = filepath.Join(dir, "template.obs")
		if err := createStore(template, e.w); err != nil {
			return nil, fmt.Errorf("creating durable store: %w", err)
		}
		dbPath = filepath.Join(dir, "w.obs")
	}

	var d *obsd
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.kill()
			d = nil
		}
		if spec.Durable {
			if err := copyStore(template, dbPath); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if d, err = startObsd(e.ctx, e.bin, dbPath); err != nil {
			return nil, err
		}
		if _, err := waitHealthy(d.base); err != nil {
			return nil, fmt.Errorf("%w\n%s", err, d.output())
		}
		if err := loadQ(d.base, e.w); err != nil {
			return nil, err
		}
		wr := newRunner(d.base, e.w, warm)
		p := wr.pass()
		wr.close()
		res.Setups = append(res.Setups, time.Since(start).Seconds())
		res.Warm.add(&p)
		noteFailures(res, "warm-up", warm, &p)
	}

	r := newRunner(d.base, e.w, list)
	defer r.close()
	before, err := scrape(d.base)
	if err != nil {
		return nil, err
	}
	cpu0, _ := procStats(d.pid())
	var passes []passResult
	for {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		p := r.pass()
		passes = append(passes, p)
		res.Wall += p.Wall.Seconds()
		res.Measured.add(&p)
		noteFailures(res, fmt.Sprintf("pass %d", len(passes)), list, &p)
		if enoughPasses(res.Wall, len(passes), seconds) {
			break
		}
	}
	res.Passes = len(passes)
	after, err := scrape(d.base)
	if err != nil {
		return nil, err
	}
	cpu1, rss := procStats(d.pid())

	checkAnswers(e, res, list, passes)
	clientMetrics(res, list, passes)
	serverMetrics(res, before, after, cpu1-cpu0, rss)
	if spec.Durable {
		if d, err = durabilityCheck(e, res, d, dbPath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// enoughPasses is the whole-pass rule: metrics are computed over whole replays
// of the list only, so that both sides of a comparison see identical inputs
// however fast they are, and as many passes run as come nearest to the target.
// After n passes that took wall seconds, stop when half another pass would
// reach it.
func enoughPasses(wall float64, n int, seconds float64) bool {
	return wall+wall/float64(n)/2 >= seconds
}

// noteFailures records the first few failed operations of a pass for the
// report (the counts are already in the phase).
func noteFailures(res *e2eResult, phase string, list []request, p *passResult) {
	for i := range p.Ops {
		if p.Ops[i].Err != "" && len(res.Failures) < 20 {
			res.Failures = append(res.Failures,
				fmt.Sprintf("%s: entry %d (%s): %s", phase, i, list[i].Verb, p.Ops[i].Err))
		}
	}
}

// copyStore copies a closed database file and its (possibly absent) WAL.
func copyStore(from, to string) error {
	for _, suffix := range []string{"", ".wal"} {
		b, err := os.ReadFile(from + suffix)
		if os.IsNotExist(err) && suffix != "" {
			os.Remove(to + suffix)
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(to+suffix, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// clientMetrics derives everything timed at the client. Each whole pass gives
// its own throughput and latency percentiles (of successful requests; a failed
// one has no latency and counts only as failed); the run reports the median
// over passes. Passes replay identical inputs, so they are repeated measurements
// of one quantity, and their median shrugs off a burst of noise from the shared
// sandbox that pooling all samples would let into the result.
func clientMetrics(res *e2eResult, list []request, passes []passResult) {
	perPass := map[string][]float64{}
	ok, bytes := 0, 0
	for _, p := range passes {
		var byVerb [numVerbs][]float64
		var reads, writes []float64
		okPass := 0
		for i := range p.Ops {
			op := &p.Ops[i]
			if op.Err != "" {
				continue
			}
			okPass++
			bytes += op.Bytes
			ms := float64(op.Ns) / 1e6
			v := list[i].Verb
			byVerb[v] = append(byVerb[v], ms)
			if v.isWrite() {
				writes = append(writes, ms)
			} else {
				reads = append(reads, ms)
			}
		}
		ok += okPass
		add := func(name string, p float64, vs ...[]float64) {
			var all []float64
			for _, v := range vs {
				all = append(all, v...)
			}
			sort.Float64s(all)
			perPass[name] = append(perPass[name], percentile(all, p))
		}
		perPass["ops_per_s"] = append(perPass["ops_per_s"], ratio(float64(okPass), p.Wall.Seconds()))
		add("read_p50_ms", 50, reads)
		add("read_p99_ms", 99, reads)
		add("write_p50_ms", 50, writes)
		add("write_p99_ms", 99, writes)
		add("client.range_p50_ms", 50, byVerb[vRange])
		add("client.nearest_p50_ms", 50, byVerb[vNearest])
		add("client.distance_p50_ms", 50, byVerb[vDistance])
		add("client.path_p50_ms", 50, byVerb[vPath])
		add("client.join_p50_ms", 50, byVerb[vJoin])
		add("client.closest_p50_ms", 50, byVerb[vClosest])
		add("client.insert_p50_ms", 50, byVerb[vInsert])
		add("client.delete_p50_ms", 50, byVerb[vDelete])
		add("client.obstacle_p50_ms", 50, byVerb[vAddObstacle], byVerb[vRemoveObstacle])
	}
	m := res.Metrics
	for name, vs := range perPass {
		m[name] = median(vs)
	}
	m["setup_s"] = median(res.Setups)
	m["client.attempted"] = float64(res.Measured.Attempted)
	m["client.failed"] = float64(res.Measured.Failed)
	m["server.response_bytes_per_op"] = ratio(float64(bytes), float64(ok))
}

// serverMetrics derives the per-layer numbers obsd reports about itself over
// the measured passes: /metrics deltas and /proc.
func serverMetrics(res *e2eResult, before, after map[string]float64, cpuSeconds, rssMB float64) {
	m := res.Metrics
	d := func(name string) float64 { return after[name] - before[name] }
	ops := float64(res.Measured.Attempted - res.Measured.Failed)
	m["process.cpu_ms_per_op"] = ratio(cpuSeconds*1000, ops)
	m["process.rss_peak_mb"] = rssMB
	m["process.gc_pause_ms"] = d("go_gc_pause_ns_total") / 1e6
	m["process.gc_cycles"] = d("go_gc_cycles_total")
	m["server.coalesce_hit_ratio"] = ratio(d("obsd_coalesce_hits_total"), ops)
	m["server.coalesce_batch_avg"] = ratio(d("obsd_coalesce_batch_size_sum"), d("obsd_coalesce_batch_size_count"))
	m["server.rejected"] = d("obsd_rejected_total")
	m["obstacles.fsyncs_per_commit"] = ratio(d("obstacles_wal_fsyncs_total"), d("obstacles_commits_total"))
	m["obstacles.checkpoints"] = d("obstacles_checkpoints_total")
	m["obstacles.checkpoint_ms"] = ratio(d("obstacles_checkpoint_seconds_sum")*1000, d("obstacles_checkpoint_seconds_count"))
	m["obstacles.cow_copies_per_mutation"] = ratio(d("obstacles_cow_page_copies_total"), d("obstacles_mutations_total"))
}
