package main

import (
	"context"
	"fmt"

	obstacles "repro"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// newDatabase builds the in-process twin of what obsd serves: the world's
// obstacles with datasets P and Q, in memory. It is the oracle the served
// answers are sampled against and the Database layer of the traced run.
func newDatabase(w *world) (*obstacles.Database, error) {
	db, err := obstacles.NewDatabaseFromRects(w.Rects, obstacles.DefaultOptions())
	if err != nil {
		return nil, err
	}
	err = db.AddDataset("P", w.P)
	if err == nil {
		err = db.AddDataset("Q", w.Q)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// createStore writes the durable file churn_durable serves, the way `obsstore
// create` does (obstacles and P; the harness PUTs Q over the wire like on the
// other workloads).
func createStore(path string, w *world) error {
	db, err := obstacles.Open(path, obstacles.Options{})
	if err != nil {
		return err
	}
	if _, err := db.AddObstacleRects(w.Rects...); err != nil {
		db.Close()
		return err
	}
	if err := db.AddDataset("P", w.P); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// sizeBuffer gives a tree the LRU buffer Database gives its trees: 10 % of its
// pages, the paper's setting.
func sizeBuffer(t *rtree.Tree) error {
	return t.PageFile().SetBufferPages(max((t.PageFile().NumPages()+9)/10, 1))
}

func obstacleRect(q request) geom.Rect {
	return geom.R(q.A.X, q.A.Y, q.A.X+obstacleSide, q.A.Y+obstacleSide)
}

// dbExec runs requests on an obstacles.Database the way obsd's handlers do
// (distance goes through ObstructedDistances, the call the coalescer makes).
type dbExec struct {
	db  *obstacles.Database
	ids []int64 // by list index, as in runner
	// stats, when non-nil, receives each query's WithStats counters.
	stats *obstacles.QueryStats
	// reach is the largest distance the most recent query returned.
	reach float64
}

func (e *dbExec) exec(i int, q request) (answer, error) {
	ctx := context.Background()
	var opts []obstacles.QueryOption
	if e.stats != nil {
		*e.stats = obstacles.QueryStats{}
		opts = append(opts, obstacles.WithStats(e.stats))
	}
	neighbours := func(nbs []obstacles.Neighbor, err error) (answer, error) {
		a := answer{Count: len(nbs)}
		for _, nb := range nbs {
			a.Sum += nb.Distance
			e.reach = max(e.reach, nb.Distance)
		}
		return a, err
	}
	pairs := func(ps []obstacles.Pair, err error) (answer, error) {
		a := answer{Count: len(ps)}
		for _, p := range ps {
			a.Sum += p.Distance
			e.reach = max(e.reach, p.Distance)
		}
		return a, err
	}
	e.reach = 0
	switch q.Verb {
	case vRange:
		return neighbours(e.db.Range(ctx, "P", q.A, q.R, opts...))
	case vNearest:
		return neighbours(e.db.NearestNeighbors(ctx, "P", q.A, q.K, opts...))
	case vDistance:
		ds, err := e.db.ObstructedDistances(ctx, q.A, []geom.Point{q.B}, opts...)
		if err != nil {
			return answer{}, err
		}
		e.reach = ds[0]
		return answer{Count: 1, Sum: ds[0]}, nil
	case vPath:
		path, d, err := e.db.ObstructedPath(ctx, q.A, q.B, opts...)
		e.reach = d
		return answer{Count: len(path), Sum: d}, err
	case vJoin:
		return pairs(e.db.DistanceJoin(ctx, "P", "Q", q.R, opts...))
	case vClosest:
		return pairs(e.db.ClosestPairs(ctx, "P", "Q", q.K, opts...))
	case vInsert:
		ids, err := e.db.InsertPoints("P", q.A)
		if err != nil {
			return answer{}, err
		}
		e.ids[i] = ids[0]
		return answer{Count: 1}, nil
	case vDelete:
		return answer{Count: 1}, e.db.DeletePoints("P", e.ids[q.Ref])
	case vAddObstacle:
		ids, err := e.db.AddObstacleRects(obstacleRect(q))
		if err != nil {
			return answer{}, err
		}
		e.ids[i] = ids[0]
		return answer{Count: 1}, nil
	case vRemoveObstacle:
		return answer{Count: 1}, e.db.RemoveObstacles(e.ids[q.Ref])
	}
	return answer{}, fmt.Errorf("dbExec: verb %d", q.Verb)
}

// coreExec runs requests on the benchmark's own core.Engine, ObstacleSet and
// PointSets: the engine layer with none of Database's pinning, options,
// metrics or commit path around it. Mutations are applied the way Database
// applies them so reads keep seeing the same data.
type coreExec struct {
	obst *core.ObstacleSet
	eng  *core.Engine
	p, q *core.PointSet
	ids  []int64
	// last holds the engine's counters for the most recent query.
	last core.Stats
}

func newCoreExec(w *world, n int) (*coreExec, error) {
	opts := rtree.Options{}
	obst, err := core.NewObstacleSet(opts, w.Polys, true)
	if err != nil {
		return nil, err
	}
	p, err := core.NewPointSet(opts, w.P, true)
	if err != nil {
		return nil, err
	}
	q, err := core.NewPointSet(opts, w.Q, true)
	if err != nil {
		return nil, err
	}
	for _, t := range []*rtree.Tree{obst.Tree(), p.Tree(), q.Tree()} {
		if err := sizeBuffer(t); err != nil {
			return nil, err
		}
	}
	eng := core.NewEngine(obst, core.DefaultEngineOptions())
	eng.EnableGraphCache(8) // Database's default GraphCacheSize
	return &coreExec{obst: obst, eng: eng, p: p, q: q, ids: make([]int64, n)}, nil
}

func (e *coreExec) exec(i int, q request) (answer, error) {
	sess := e.eng.NewSession(context.Background())
	results := func(rs []core.Result, st core.Stats, err error) (answer, error) {
		e.last = st
		a := answer{Count: len(rs)}
		for _, r := range rs {
			a.Sum += r.Dist
		}
		return a, err
	}
	pairs := func(ps []core.JoinPair, st core.Stats, err error) (answer, error) {
		e.last = st
		a := answer{Count: len(ps)}
		for _, p := range ps {
			a.Sum += p.Dist
		}
		return a, err
	}
	switch q.Verb {
	case vRange:
		return results(sess.Range(e.p, q.A, q.R))
	case vNearest:
		return results(sess.NearestNeighbors(e.p, q.A, q.K))
	case vDistance:
		ds, st, err := sess.BatchDistances(q.A, []geom.Point{q.B})
		e.last = st
		if err != nil {
			return answer{}, err
		}
		return answer{Count: 1, Sum: ds[0]}, nil
	case vPath:
		path, d, st, err := sess.ObstructedPath(q.A, q.B)
		e.last = st
		return answer{Count: len(path), Sum: d}, err
	case vJoin:
		return pairs(sess.DistanceJoin(e.p, e.q, q.R))
	case vClosest:
		return pairs(sess.ClosestPairs(e.p, e.q, q.K))
	case vInsert:
		ids, err := e.p.Insert([]geom.Point{q.A})
		if err != nil {
			return answer{}, err
		}
		e.ids[i] = ids[0]
		return answer{Count: 1}, nil
	case vDelete:
		return answer{Count: 1}, e.p.Delete(e.ids[q.Ref])
	case vAddObstacle:
		pg := geom.RectPolygon(obstacleRect(q))
		ids, err := e.obst.Add([]geom.Polygon{pg})
		if err != nil {
			return answer{}, err
		}
		e.ids[i] = ids[0]
		e.eng.InvalidateObstacleRegion(pg.Bounds())
		return answer{Count: 1}, nil
	case vRemoveObstacle:
		mbr, err := e.obst.Remove(e.ids[q.Ref])
		if err != nil {
			return answer{}, err
		}
		e.eng.InvalidateObstacleRegion(mbr)
		return answer{Count: 1}, nil
	}
	return answer{}, fmt.Errorf("coreExec: verb %d", q.Verb)
}
