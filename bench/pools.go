package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/geom"
)

// Three kinds of request are too uneven to be drawn independently: an
// obstructed 8-NN query at a street-correlated point takes 23 ms on average
// at the seed commit with a standard deviation of 61 ms, and obstructed
// distances and 800-1600 unit paths have the same kind of tail (a 2 ms
// median, 600 ms now and then). The Fig 8 enlargement now and then pulls a large part of
// the map into the graph, and nothing cheap to compute about the query
// (distance to the 8th neighbour, street density around it) predicts when:
// 400 independent draws give passes whose total cost differs by +-13 % from
// seed to seed, more than any bound this benchmark sets.
//
// So these requests come from a pool: a fixed population generated from the
// world seed, several times what a pass needs, each member with a committed cost
// class (golden/classes.json: the member's time on the in-process engine when
// the file was recorded, in bins a factor 1.25 wide). A request-list seed draws
// a stratified sample: from every class its share of the pass, which members
// being up to the seed. Passes of different seeds then hold different queries
// of the same cost profile. The classes describe the seed commit; after an
// optimisation they are still a fixed partition of a fixed population, which
// is all the sampling needs.

// classWidth is the ratio between the bounds of a cost class.
const classWidth = 1.25

type pool struct {
	name string
	reqs []request
}

const (
	nearestPoolSize  = 6000
	distancePoolSize = 2400
	routePoolSize    = 3200
)

// nearestPool: k=8 nearest-neighbour queries at street-correlated points, the
// paper's ONN workload.
func nearestPool(w *world) pool {
	rng := rand.New(rand.NewSource(worldSeed<<8 + 1))
	reqs := make([]request, nearestPoolSize)
	for i, q := range w.Queries(rng, len(reqs)) {
		reqs[i] = request{Verb: vNearest, A: q, K: 8}
	}
	return pool{"nearest", reqs}
}

// distancePool: obstructed distances from a street-correlated point a to a
// point b within +-300 of it, re-drawn while it falls outside the universe or
// inside an obstacle.
func distancePool(w *world) pool {
	rng := rand.New(rand.NewSource(worldSeed<<8 + 3))
	reqs := make([]request, distancePoolSize)
	for i, a := range w.Queries(rng, len(reqs)) {
		b := a
		for b == a || !w.free(b) {
			b = geom.Pt(a.X+(rng.Float64()*2-1)*300, a.Y+(rng.Float64()*2-1)*300)
		}
		reqs[i] = request{Verb: vDistance, A: a, B: b}
	}
	return pool{"distance", reqs}
}

// routePool: paths from a uniform point to one 800-1600 units away in a
// random direction, re-drawn while it falls outside the universe or inside an
// obstacle.
func routePool(w *world) pool {
	rng := rand.New(rand.NewSource(worldSeed<<8 + 2))
	reqs := make([]request, routePoolSize)
	for i, a := range w.UniformPoints(rng, len(reqs)) {
		b := a
		for b == a || !w.free(b) {
			l, th := 800+800*rng.Float64(), rng.Float64()*2*math.Pi
			b = geom.Pt(a.X+l*math.Cos(th), a.Y+l*math.Sin(th))
		}
		reqs[i] = request{Verb: vPath, A: a, B: b}
	}
	return pool{"route", reqs}
}

// sample draws n distinct members. With classes (one per member) the draw is
// stratified: class c contributes its share n*|c|/|pool| of the sample,
// rounded by largest remainder, and rng chooses which members. Without classes
// (a world other than the benchmark's, as in tests) it is a plain draw.
func (p pool) sample(rng *rand.Rand, n int, classes []int) []request {
	n = min(n, len(p.reqs))
	out := make([]request, 0, n)
	if len(classes) != len(p.reqs) {
		for _, i := range rng.Perm(len(p.reqs))[:n] {
			out = append(out, p.reqs[i])
		}
		return out
	}
	members := map[int][]int{}
	for i, c := range classes {
		members[c] = append(members[c], i)
	}
	keys := make([]int, 0, len(members))
	for c := range members {
		keys = append(keys, c)
	}
	sort.Ints(keys)
	quota := make(map[int]int, len(keys))
	given := 0
	for _, c := range keys {
		quota[c] = n * len(members[c]) / len(p.reqs)
		given += quota[c]
	}
	// Largest remainders first; ties to the cheaper class.
	byRemainder := append([]int(nil), keys...)
	sort.SliceStable(byRemainder, func(a, b int) bool {
		ra := n * len(members[byRemainder[a]]) % len(p.reqs)
		rb := n * len(members[byRemainder[b]]) % len(p.reqs)
		return ra > rb
	})
	for _, c := range byRemainder[:n-given] {
		quota[c]++
	}
	for _, c := range keys {
		m := members[c]
		for _, j := range rng.Perm(len(m))[:quota[c]] {
			out = append(out, p.reqs[m[j]])
		}
	}
	return out
}

// loadClasses reads the committed cost classes, by pool name.
func loadClasses() (map[string][]int, error) {
	b, err := goldenFS.ReadFile("golden/classes.json")
	if err != nil {
		return nil, err
	}
	var classes map[string][]int
	if err := json.Unmarshal(b, &classes); err != nil {
		return nil, fmt.Errorf("golden/classes.json: %w", err)
	}
	return classes, nil
}

// writeClasses re-records golden/classes.json: every pool member is run once
// on a fresh in-process engine and classed by its time. It takes a few
// minutes and is needed only when the pools or the world change; the golden
// files depend on it and must be re-recorded afterwards.
func writeClasses(w *world) error {
	classes := map[string][]int{}
	for _, p := range []pool{nearestPool(w), distancePool(w), routePool(w)} {
		x, err := newCoreExec(w, 1)
		if err != nil {
			return err
		}
		cs := make([]int, len(p.reqs))
		for i, q := range p.reqs {
			start := time.Now()
			if _, err := x.exec(0, q); err != nil {
				return fmt.Errorf("pool %s member %d: %w", p.name, i, err)
			}
			us := max(float64(time.Since(start).Microseconds()), 1)
			cs[i] = int(math.Floor(math.Log(us) / math.Log(classWidth)))
		}
		classes[p.name] = cs
	}
	b, err := json.Marshal(classes)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("golden", "classes.json"), append(b, '\n'), 0o644)
}
