// Command bench is the repository's one benchmark: four named workloads
// driven end to end against a real obsd child over loopback HTTP, plus an
// in-process traced replay that attributes time and work to each layer.
// BENCHMARK.json at the repository root is its contract; README.md in this
// directory explains every workload and metric.
//
//	go run -C bench repro/bench                       all workloads, every metric
//	go run -C bench repro/bench -workload paper_mix   one workload
//	go run -C bench repro/bench -repeat 5             spread of every end-to-end metric
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1, both without -trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", defaultSeed, "request-list seed; the world is always seed 1")
		seconds  = flag.Float64("seconds", 20, "measured time per run; whole passes nearest to it are replayed")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (short end-to-end run plus the traced in-process replay); default both")
		repeat   = flag.Int("repeat", 0, "run every selected workload N times in alternating order and report each end-to-end metric's median, quartiles and spread; exit 1 when a spread exceeds its bound")
		out      = flag.String("out", "", "directory for trace-<workload>.json (default: a scratch directory removed on exit)")
		update   = flag.Bool("update-golden", false, "rewrite golden/<workload>.json from this run's answers (default seed only)")
		classes  = flag.Bool("update-classes", false, "rewrite golden/classes.json, the cost classes of the request pools (minutes), and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// SIGHUP and SIGPIPE too: a caller that goes away must not leave obsd or
	// the scratch directory behind.
	// One P for the harness: its two clients spend their time waiting, and a
	// second spinning P would take CPU from obsd on the 2-core sandbox
	// (measured: 5 % of distance_hot's throughput).
	runtime.GOMAXPROCS(1)
	if *classes {
		if err := writeClasses(newWorld(worldObstacles, sizeP, sizeQ)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		// A signal cancels ctx, which kills obsd and unwinds run; should run
		// not get there (a loop that does not watch ctx), give up anyway.
		<-ctx.Done()
		time.Sleep(10 * time.Second)
		os.Exit(1)
	}()
	code := run(ctx, options{*workload, *seed, *seconds, *trace, *repeat, *out, *update})
	stop()
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	out      string
	update   bool
}

// run is main without os.Exit, so deferred clean-up (the scratch directory,
// obsd children) always happens, on failure and on a signal alike.
func run(ctx context.Context, o options) int {
	selected := workloads
	if o.workload != "" {
		spec := findWorkload(o.workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workloadSpec{*spec}
	}
	correct, err := runSelected(ctx, selected, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// runSelected builds obsd, runs the selected workloads as the options ask and
// prints the reports. It reports whether every run was correct (and, with
// -repeat, every spread within its bound).
func runSelected(ctx context.Context, selected []workloadSpec, o options) (bool, error) {
	root, err := repoRoot()
	if err != nil {
		return false, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	if o.out == "" {
		o.out = tmp
	} else if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	bin, err := buildObsd(ctx, root)
	if err != nil {
		return false, err
	}
	w, err := benchWorld()
	if err != nil {
		return false, err
	}
	e := &env{ctx: ctx, bin: bin, tmp: tmp, seed: o.seed, update: o.update, w: w}
	info := environment(root)
	fmt.Printf("bench: %s\n", mustJSON(info))

	if o.repeat > 0 {
		return runRepeat(e, selected, o)
	}
	summary := map[string]*report{}
	correct := true
	for i := range selected {
		rep, err := runWorkload(e, &selected[i], o)
		if err != nil {
			return false, fmt.Errorf("%s: %w", selected[i].Name, err)
		}
		rep.print(os.Stdout)
		summary[rep.Workload] = rep
		correct = correct && rep.Correct
	}
	// The last line: the driver's contract for one workload, the whole
	// ledger otherwise. This change defines the benchmark and claims no gain.
	if o.workload != "" {
		fmt.Println(string(mustJSON(summary[o.workload].result())))
	} else {
		fmt.Println(string(mustJSON(struct {
			Env       map[string]any     `json:"env"`
			Workloads map[string]*report `json:"workloads"`
			Claim     *string            `json:"claim"`
		}{info, summary, nil})))
	}
	return correct, nil
}

// environment records where the numbers were taken.
func environment(root string) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"obsd_gomaxprocs": obsdGOMAXPROCS,
		"go":              runtime.Version(),
		"commit":          commit,
		"clients":         numClients,
		"loop":            "closed",
	}
}

// metricValue is one printed number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload prints.
type report struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Passes   int                    `json:"passes"`
	Warm     phaseCount             `json:"warm_up"`
	Measured phaseCount             `json:"measured"`
	Correct  bool                   `json:"correct"`
	Failures []string               `json:"failures,omitempty"`
	Notes    []string               `json:"notes,omitempty"`
	Metrics  map[string]metricValue `json:"metrics"`
}

// take copies the listed metrics out of a run's values; a listed metric the
// run did not produce is reported as 0 (a layer the workload does not touch).
func (r *report) take(specs []metricSpec, values map[string]float64) {
	for _, s := range specs {
		r.Metrics[s.Name] = metricValue{values[s.Name], s.Unit}
	}
}

func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "workload %s seed %d: %d whole passes\n", r.Workload, r.Seed, r.Passes)
	fmt.Fprintf(w, "  warm-up:  attempted %d succeeded %d failed %d\n",
		r.Warm.Attempted, r.Warm.Attempted-r.Warm.Failed, r.Warm.Failed)
	fmt.Fprintf(w, "  measured: attempted %d succeeded %d failed %d\n",
		r.Measured.Attempted, r.Measured.Attempted-r.Measured.Failed, r.Measured.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range list {
			if v, ok := r.Metrics[s.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.6g %s\n", s.Name, v.Value, v.Unit)
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// result is the driver's last-line object.
func (r *report) result() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Warm.Attempted + r.Measured.Attempted, r.Warm.Failed + r.Measured.Failed, r.Metrics}
}

// runWorkload makes one run of one workload as -trace asks.
func runWorkload(e *env, spec *workloadSpec, o options) (*report, error) {
	seconds := o.seconds
	if o.trace == 1 {
		// The traced replay takes the other half of the run's time.
		seconds /= 2
	}
	res, err := runE2E(e, spec, seconds)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: spec.Name, Seed: e.seed, Passes: res.Passes,
		Warm: res.Warm, Measured: res.Measured, Failures: res.Failures, Notes: res.Notes,
		Metrics: map[string]metricValue{},
	}
	if o.trace != 1 {
		rep.take(endToEnd, res.Metrics)
	}
	if o.trace != 0 {
		tr, err := runTraced(e, spec, o.out)
		if err != nil {
			return nil, err
		}
		for k, v := range tr.Metrics {
			res.Metrics[k] = v
		}
		rep.Measured.Attempted += tr.Count.Attempted
		rep.Measured.Failed += tr.Count.Failed
		rep.Failures = append(rep.Failures, tr.Failures...)
		rep.Notes = append(rep.Notes, tr.Notes...)
		rep.take(perLayer, res.Metrics)
	}
	rep.Correct = rep.Warm.Failed+rep.Measured.Failed == 0
	if o.update {
		if err := writeGolden(e, spec); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runRepeat runs the selected workloads N times, reversing the order on every
// other round, and judges each end-to-end metric's spread (interquartile range
// over median) against its bound.
func runRepeat(e *env, selected []workloadSpec, o options) (bool, error) {
	o.trace = 0
	values := map[string]map[string][]float64{} // workload -> metric -> runs
	for round := 0; round < o.repeat; round++ {
		for k := range selected {
			spec := &selected[k]
			if round%2 == 1 {
				spec = &selected[len(selected)-1-k]
			}
			rep, err := runWorkload(e, spec, o)
			if err != nil {
				return false, fmt.Errorf("%s: %w", spec.Name, err)
			}
			if !rep.Correct {
				rep.print(os.Stdout)
				return false, nil
			}
			if values[spec.Name] == nil {
				values[spec.Name] = map[string][]float64{}
			}
			for _, s := range endToEnd {
				values[spec.Name][s.Name] = append(values[spec.Name][s.Name], rep.Metrics[s.Name].Value)
			}
			fmt.Printf("round %d %s: %s\n", round+1, spec.Name, mustJSON(rep.Metrics))
		}
	}
	steady := true
	for _, spec := range selected {
		for _, s := range endToEnd {
			vs := values[spec.Name][s.Name]
			q1, q3 := quartiles(vs)
			sp := spread(vs)
			verdict := "ok"
			if s.Name == "setup_s" {
				// As the driver judges it: a set-up of 0.1 s is too short to
				// be steady; its bound applies to medians, not to the spread.
				verdict = "not judged"
			} else if sp > s.Bound {
				verdict = "SPREAD EXCEEDS BOUND"
				steady = false
			}
			fmt.Printf("%-14s %-12s median %12.6g %-4s q1 %12.6g q3 %12.6g spread %.4f bound %.2f %s\n",
				spec.Name, s.Name, median(vs), s.Unit, q1, q3, sp, s.Bound, verdict)
		}
	}
	fmt.Println(`{"claim": null}`)
	return steady, nil
}

// writeGolden re-records a workload's golden file from the in-process
// Database, which checkAnswers has just shown the served answers to agree with
// on a sample.
func writeGolden(e *env, spec *workloadSpec) error {
	if e.seed != defaultSeed {
		return fmt.Errorf("-update-golden needs -seed %d", defaultSeed)
	}
	list, err := generate(e.w, spec.Name, e.seed, spec.Requests)
	if err != nil {
		return err
	}
	db, err := newDatabase(e.w)
	if err != nil {
		return err
	}
	defer db.Close()
	x := &dbExec{db: db, ids: make([]int64, len(list))}
	n := min(len(list), goldenEntries)
	g := golden{Seed: e.seed, Requests: len(list), Count: make([]int, n), Sum: make([]float64, n)}
	for i, q := range list[:n] {
		a, err := x.exec(i, q)
		if err != nil {
			return fmt.Errorf("entry %d (%s): %w", i, q.Verb, err)
		}
		g.Count[i], g.Sum[i] = a.Count, a.Sum
	}
	b, err := json.Marshal(g)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("golden", spec.Name+".json"), append(b, '\n'), 0o644)
}
