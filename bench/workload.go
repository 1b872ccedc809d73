package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// The world every workload runs on: obsd's and `obsstore create`'s defaults
// (seed 1, |O| = 1000 street MBRs, dataset P of 2000 points) plus a second
// dataset Q of 500 points the harness loads itself. The world seed is fixed;
// only the request lists come from -seed.
const (
	worldSeed      = 1
	worldObstacles = 1000
	sizeP          = 2000
	sizeQ          = 500
)

type world struct {
	*dataset.World
	P, Q []geom.Point
	// classes are the committed cost classes of the request pools (pools.go);
	// nil for any world but the benchmark's own, whose pools are then sampled
	// without stratification.
	classes map[string][]int
}

func newWorld(obstacles, nP, nQ int) *world {
	w := dataset.Generate(dataset.DefaultConfig(worldSeed, obstacles))
	return &world{
		World: w,
		P:     w.Entities(w.EntityRand(1), nP),
		Q:     w.Entities(w.EntityRand(2), nQ),
	}
}

// benchWorld is the world of every benchmark run, with the pools' classes.
func benchWorld() (*world, error) {
	w := newWorld(worldObstacles, sizeP, sizeQ)
	var err error
	w.classes, err = loadClasses()
	return w, err
}

// free reports whether p is inside the universe and strictly inside no
// obstacle, so a query from it can reach something.
func (w *world) free(p geom.Point) bool {
	u := w.Universe()
	if p.X < 0 || p.Y < 0 || p.X > u || p.Y > u {
		return false
	}
	for _, r := range w.Rects {
		if r.ContainsStrict(p) {
			return false
		}
	}
	return true
}

type verb uint8

const (
	vRange verb = iota
	vNearest
	vDistance
	vPath
	vJoin
	vClosest
	vInsert
	vDelete
	vAddObstacle
	vRemoveObstacle
	numVerbs
)

var verbNames = [numVerbs]string{
	"range", "nearest", "distance", "path", "join", "closest",
	"insert", "delete", "add_obstacle", "remove_obstacle",
}

func (v verb) String() string { return verbNames[v] }

// isWrite reports whether the verb mutates the store.
func (v verb) isWrite() bool { return v >= vInsert }

// request is one generated operation. Which fields matter depends on the verb:
// A is the query point, path/distance source, inserted point, or the low
// corner of an added obstacle; B the path/distance target; R a range radius or
// join distance; K a neighbour or pair count; Ref, for delete and
// remove-obstacle, the list index of the insert or add it undoes (ids are only
// known at run time).
type request struct {
	Verb verb
	A, B geom.Point
	R    float64
	K    int
	Ref  int
}

const numClients = 2

// obstacleSide is the side of the square obstacles churn_durable adds.
const obstacleSide = 8

// generate builds the request list of one pass. Entry i belongs to client
// i mod numClients. The same (workload, seed, n) always gives the same list.
func generate(w *world, name string, seed int64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "paper_mix":
		return genPaperMix(w, rng, n), nil
	case "route_long":
		return genRouteLong(w, rng, n), nil
	case "distance_hot":
		return genDistanceHot(w, rng, n), nil
	case "churn_durable":
		return genChurn(w, rng, n), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// genPaperMix: 40 % range r=300, 40 % nearest k=8, 16 % distance with b within
// +-300 of a, 2 % join P x Q, 2 % closest pairs, at street-correlated points.
// The shares are exact counts, shuffled, the join and closest-pair parameters
// cycle, and the nearest and distance queries are stratified draws from their
// pools, so two seeds differ in which queries a pass holds and in their order, not in how
// many heavy requests it holds.
func genPaperMix(w *world, rng *rand.Rand, n int) []request {
	nJoin := max(n*2/100, 1)
	nClosest := max(n*2/100, 1)
	nDist := n * 16 / 100
	nRange := n * 40 / 100
	nNearest := n - nRange - nDist - nJoin - nClosest
	list := make([]request, 0, n)
	for _, q := range w.Queries(rng, nRange) {
		list = append(list, request{Verb: vRange, A: q, R: 300})
	}
	list = append(list, nearestPool(w).sample(rng, nNearest, w.classes["nearest"])...)
	list = append(list, distancePool(w).sample(rng, nDist, w.classes["distance"])...)
	for i := 0; i < nJoin; i++ {
		list = append(list, request{Verb: vJoin, R: []float64{25, 50, 75}[i%3]})
	}
	for i := 0; i < nClosest; i++ {
		list = append(list, request{Verb: vClosest, K: []int{4, 8, 16}[i%3]})
	}
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}

// genRouteLong: /v1/path over 800-1600 units, a stratified draw from the route
// pool, shuffled.
func genRouteLong(w *world, rng *rand.Rand, n int) []request {
	list := routePool(w).sample(rng, n, w.classes["route"])
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}

// coalesceCell is obsd's default -coalesce-cell: requests whose sources share a
// cell of this side share a coalescer bucket.
const coalesceCell = 512

// genDistanceHot: /v1/distance around 4 hot landmarks, each in its own
// coalescer cell: the source within +-16 of the landmark, the target within
// +-150. A landmark is a street-correlated point like every query point of the
// paper. Sources stay that close to it because the engine's graph cache keys an
// entry on its first source and lets it grow only fourfold: with sources
// spread over +-150 too, the 8-entry cache thrashes on 4 landmarks (13-20 % of
// requests build a graph) and how badly depends on the seed, an 8x swing in
// throughput between seeds. See README.md, "distance_hot".
func genDistanceHot(w *world, rng *rand.Rand, n int) []request {
	const sourceSpread, targetSpread = 16, 150
	var landmarks [4]geom.Point
	seen := map[[2]int]bool{}
	lrng := rand.New(rand.NewSource(worldSeed))
	for i := range landmarks {
		for {
			p := w.BoundaryPoint(lrng)
			cx, cy := math.Floor(p.X/coalesceCell), math.Floor(p.Y/coalesceCell)
			inCell := func(v, c float64) bool {
				return v-sourceSpread >= c*coalesceCell && v+sourceSpread < (c+1)*coalesceCell
			}
			if inCell(p.X, cx) && inCell(p.Y, cy) && !seen[[2]int{int(cx), int(cy)}] {
				seen[[2]int{int(cx), int(cy)}] = true
				landmarks[i] = p
				break
			}
		}
	}
	// near draws a free point around c; c itself lies on an obstacle boundary,
	// so it is free and the fallback after many rejections is always valid.
	near := func(c geom.Point, spread float64) geom.Point {
		for try := 0; try < 1000; try++ {
			p := geom.Pt(c.X+(rng.Float64()*2-1)*spread, c.Y+(rng.Float64()*2-1)*spread)
			if w.free(p) {
				return p
			}
		}
		return c
	}
	list := make([]request, n)
	for i := range list {
		c := landmarks[rng.Intn(len(landmarks))]
		a, b := near(c, sourceSpread), near(c, targetSpread)
		for b == a {
			b = near(c, targetSpread)
		}
		list[i] = request{Verb: vDistance, A: a, B: b}
	}
	return list
}

// genChurn: 35 % insert one point, 30 % delete one of this client's own
// earlier inserts (oldest first), 15 % add or remove an 8x8 obstacle (at most 4
// live per client), 20 % range r=150 at one of the client's live points. The
// last entries delete what is left, so every pass starts from the same store
// contents and gives the same answers. Client c works in its own vertical
// strip, 400 units from the other's, so no read can see the other client's
// writes and answers do not depend on how the two interleave.
func genChurn(w *world, rng *rand.Rand, n int) []request {
	type client struct {
		lo, hi    float64 // x range of the strip
		points    []int   // list indices of live inserts, oldest first
		obstacles []int   // list indices of live added obstacles
	}
	u := w.Universe()
	cs := [numClients]*client{{lo: 0, hi: u/2 - 200}, {lo: u/2 + 200, hi: u}}
	list := make([]request, 0, n+n/8)

	point := func(c *client) geom.Point {
		for {
			p := geom.Pt(c.lo+rng.Float64()*(c.hi-c.lo), rng.Float64()*u)
			if w.free(p) {
				return p
			}
		}
	}
	// square returns the low corner of an obstacle that touches no street and
	// none of the client's live obstacles, keeping obstacle interiors disjoint.
	square := func(c *client) geom.Point {
		for {
			p := geom.Pt(c.lo+rng.Float64()*(c.hi-c.lo-obstacleSide), rng.Float64()*(u-obstacleSide))
			r := geom.R(p.X, p.Y, p.X+obstacleSide, p.Y+obstacleSide)
			ok := true
			for _, s := range w.Rects {
				if s.Intersects(r) {
					ok = false
					break
				}
			}
			for _, i := range c.obstacles {
				a := list[i].A
				if geom.R(a.X, a.Y, a.X+obstacleSide, a.Y+obstacleSide).Intersects(r) {
					ok = false
				}
			}
			if ok {
				return p
			}
		}
	}
	insert := func(c *client) {
		c.points = append(c.points, len(list))
		list = append(list, request{Verb: vInsert, A: point(c)})
	}
	deleteOldest := func(c *client) {
		list = append(list, request{Verb: vDelete, Ref: c.points[0]})
		c.points = c.points[1:]
	}
	removeOldest := func(c *client) {
		list = append(list, request{Verb: vRemoveObstacle, Ref: c.obstacles[0]})
		c.obstacles = c.obstacles[1:]
	}
	for len(list) < n {
		c := cs[len(list)%numClients]
		switch x := rng.Float64(); {
		case x < 0.35 || len(c.points) == 0:
			insert(c)
		case x < 0.65:
			deleteOldest(c)
		case x < 0.80:
			if len(c.obstacles) == 0 || (len(c.obstacles) < 4 && rng.Intn(2) == 0) {
				corner := square(c)
				c.obstacles = append(c.obstacles, len(list))
				list = append(list, request{Verb: vAddObstacle, A: corner})
			} else {
				removeOldest(c)
			}
		default:
			q := list[c.points[rng.Intn(len(c.points))]].A
			list = append(list, request{Verb: vRange, A: q, R: 150})
		}
	}
	// Drain, still alternating clients; a client with nothing left re-inserts
	// and deletes so list position keeps meaning "client i mod 2".
	for len(cs[0].points)+len(cs[1].points)+len(cs[0].obstacles)+len(cs[1].obstacles) > 0 {
		c := cs[len(list)%numClients]
		switch {
		case len(c.obstacles) > 0:
			removeOldest(c)
		case len(c.points) > 0:
			deleteOldest(c)
		default:
			insert(c)
		}
	}
	return list
}
