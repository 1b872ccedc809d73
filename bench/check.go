package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/geom"
	"repro/internal/server"
)

// golden is the committed answer file of one workload at defaultSeed: for each
// of the first len(Count) list entries, the result count and the returned
// distance or the sum of returned distances. It pins the answers of this
// repository's history; the oracle sample below pins served == in-process on
// every seed.
type golden struct {
	Seed     int64     `json:"seed"`
	Requests int       `json:"requests"`
	Count    []int     `json:"count"`
	Sum      []float64 `json:"sum"`
}

// goldenEntries caps how many list entries a golden file covers, to keep the
// committed files small; distance_hot's list is longer.
const goldenEntries = 2000

//go:embed golden/*.json
var goldenFS embed.FS

func loadGolden(name string) (*golden, error) {
	b, err := goldenFS.ReadFile("golden/" + name + ".json")
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", name, err)
	}
	return &g, nil
}

// oracleEvery is the sampling stride of the oracle check: 2 % of list entries.
const oracleEvery = 50

// checkAnswers compares the served answers of every whole pass with (1) the
// golden file, at the default seed; (2) the in-process Database on the
// identically generated world, for a 2 % sample, on every seed; and (3) the
// first pass, since replaying the same list must give the same answers. Every
// mismatch counts as a failed operation of the measured phase.
func checkAnswers(e *env, res *e2eResult, list []request, passes []passResult) {
	type reference struct {
		name string
		want map[int]answer // by list index
	}
	var refs []reference
	if e.seed == defaultSeed && !e.update {
		g, err := loadGolden(res.Spec.Name)
		switch {
		case err != nil:
			res.fail(&res.Measured, "golden: %v", err)
		case g.Seed != e.seed || g.Requests != len(list):
			res.fail(&res.Measured, "golden: recorded for seed %d and %d requests, run has seed %d and %d",
				g.Seed, g.Requests, e.seed, len(list))
		default:
			want := make(map[int]answer, len(g.Count))
			for i := range g.Count {
				want[i] = answer{g.Count[i], g.Sum[i]}
			}
			refs = append(refs, reference{"golden", want})
		}
	}
	oracle, err := oracleAnswers(e, list)
	if err != nil {
		res.fail(&res.Measured, "oracle: %v", err)
	}
	refs = append(refs, reference{"oracle", oracle})
	for pi, p := range passes {
		for i := range p.Ops {
			op := &p.Ops[i]
			if op.Err != "" {
				continue
			}
			for _, ref := range refs {
				if w, ok := ref.want[i]; ok && !op.Ans.same(w) {
					res.fail(&res.Measured, "pass %d entry %d (%s): served %+v, %s says %+v",
						pi+1, i, list[i].Verb, op.Ans, ref.name, w)
				}
			}
			if first := &passes[0].Ops[i]; first.Err == "" && !op.Ans.same(first.Ans) {
				res.fail(&res.Measured, "pass %d entry %d (%s): served %+v, pass 1 served %+v",
					pi+1, i, list[i].Verb, op.Ans, first.Ans)
			}
		}
	}
}

// oracleAnswers replays the list on an in-process Database and returns its
// answers for every oracleEvery-th entry. Writes are all applied, so sampled
// reads see the state the served ones saw (clients work in disjoint strips,
// see genChurn, so list order stands for any interleaving).
func oracleAnswers(e *env, list []request) (map[int]answer, error) {
	db, err := newDatabase(e.w)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	x := &dbExec{db: db, ids: make([]int64, len(list))}
	out := make(map[int]answer)
	offset := int(e.seed % oracleEvery)
	for i, q := range list {
		sampled := i%oracleEvery == offset
		if !sampled && !q.Verb.isWrite() {
			continue
		}
		a, err := x.exec(i, q)
		if err != nil {
			return out, fmt.Errorf("entry %d (%s): %w", i, q.Verb, err)
		}
		if sampled {
			out[i] = a
		}
	}
	return out, nil
}

// tailOps is how many operations the durability check runs, unmeasured, before
// it kills obsd: enough to leave points and obstacles of both clients live.
const tailOps = 1000

// durabilityCheck runs a tail of the workload without its closing deletes,
// SIGKILLs obsd, restarts it on the same file and verifies that exactly the
// acknowledged state is there: obstacle and dataset counts, inserted points
// present, deleted points gone. The restart is timed as obstacles.reopen_ms.
//
// A process kill leaves the OS page cache intact, so this proves "acknowledged
// implies written and replayed", not "acknowledged implies fsynced"; the chaos
// harness in the repository's own tests owns real fault points.
func durabilityCheck(e *env, res *e2eResult, d *obsd, dbPath string) (*obsd, error) {
	full, err := generate(e.w, res.Spec.Name, e.seed+2, 2*tailOps)
	if err != nil {
		return d, err
	}
	tail := full[:tailOps]
	r := newRunner(d.base, e.w, tail)
	p := r.pass()
	r.close()
	var count phaseCount
	count.add(&p)
	noteFailures(res, "durability tail", tail, &p)

	// What obsd acknowledged: live and deleted points, live obstacles.
	live := map[int]geom.Point{}
	var deleted []geom.Point
	var squares []geom.Rect
	obstacles := map[int]geom.Rect{}
	for i, q := range tail {
		if p.Ops[i].Err != "" {
			continue
		}
		switch q.Verb {
		case vInsert:
			live[i] = q.A
		case vDelete:
			deleted = append(deleted, live[q.Ref])
			delete(live, q.Ref)
		case vAddObstacle:
			obstacles[i] = obstacleRect(q)
		case vRemoveObstacle:
			delete(obstacles, q.Ref)
		}
	}
	for _, r := range obstacles {
		squares = append(squares, r)
	}

	d.kill()
	start := time.Now()
	d, err = startObsd(e.ctx, e.bin, dbPath)
	if err != nil {
		return nil, fmt.Errorf("restart after kill: %w", err)
	}
	h, err := waitHealthy(d.base)
	if err != nil {
		return d, fmt.Errorf("restart after kill: %w\n%s", err, d.output())
	}
	res.Metrics["obstacles.reopen_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6

	if want := len(e.w.Rects) + len(obstacles); h.Obstacles != want {
		res.fail(&count, "after kill: %d obstacles, acknowledged state has %d", h.Obstacles, want)
	}
	var ds server.DatasetsResponse
	if err := callJSON("GET", d.base+"/v1/datasets", nil, &ds); err != nil {
		res.fail(&count, "after kill: %v", err)
	}
	sizes := map[string]int{}
	for _, info := range ds.Datasets {
		sizes[info.Name] = info.Size
	}
	if want := len(e.w.P) + len(live); sizes["P"] != want {
		res.fail(&count, "after kill: dataset P has %d points, acknowledged state has %d", sizes["P"], want)
	}
	if sizes["Q"] != len(e.w.Q) {
		res.fail(&count, "after kill: dataset Q has %d points, want %d", sizes["Q"], len(e.w.Q))
	}
	// Presence probes: a range of radius 1 around the point. A point strictly
	// inside a live added obstacle is unreachable by definition, so skip it.
	reachable := func(p geom.Point) bool {
		for _, s := range squares {
			if s.ContainsStrict(p) {
				return false
			}
		}
		return true
	}
	probes := 0
	probe := func(p geom.Point, wantPresent bool) {
		if !reachable(p) {
			return
		}
		probes++
		count.Attempted++
		var nr server.NeighborsResponse
		err := callJSON("POST", d.base+"/v1/datasets/P/range", server.RangeRequest{Q: pt(p), Radius: 1}, &nr)
		if err != nil {
			res.fail(&count, "after kill: probe %v: %v", p, err)
			return
		}
		present := false
		for _, nb := range nr.Neighbors {
			if nb.Point.Point() == p {
				present = true
			}
		}
		if present != wantPresent {
			res.fail(&count, "after kill: point %v present=%v, acknowledged state says %v", p, present, wantPresent)
		}
	}
	// About 50 points of each kind, evenly over the tail and so over both
	// clients.
	var inserted []geom.Point
	for i := range tail {
		if p, ok := live[i]; ok {
			inserted = append(inserted, p)
		}
	}
	for i := 0; i < len(inserted); i += max(len(inserted)/50, 1) {
		probe(inserted[i], true)
	}
	for i := 0; i < len(deleted); i += max(len(deleted)/50, 1) {
		probe(deleted[i], false)
	}

	var fileBytes int64
	for _, suffix := range []string{"", ".wal"} {
		if st, err := os.Stat(dbPath + suffix); err == nil {
			fileBytes += st.Size()
		}
	}
	// User data: 16 bytes a point, four 16-byte corners an obstacle.
	userBytes := 16*(sizes["P"]+sizes["Q"]) + 64*h.Obstacles
	res.Metrics["obstacles.file_bytes_per_user_byte"] = ratio(float64(fileBytes), float64(userBytes))

	res.Measured.Attempted += count.Attempted
	res.Measured.Failed += count.Failed
	res.Notes = append(res.Notes, fmt.Sprintf(
		"durability: %d more operations, SIGKILL, restart in %.1f ms, counts and %d point probes checked; a process kill leaves the OS cache intact",
		len(tail), res.Metrics["obstacles.reopen_ms"], probes))
	return d, nil
}
