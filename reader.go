package obstacles

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sort"
	"time"

	"repro/internal/core"
)

// reader is the one implementation of every read verb. Database and Snapshot
// both embed it, so the two handles expose the same verbs with the same
// signatures from the same code; they differ only in the lifetime of the pin
// on the generation a verb reads.
type reader struct {
	db *Database
	// acquire returns the generation a call reads and release gives it back
	// when the call is over — all a handle supplies. Database pins the
	// current generation for the one call; Snapshot hands out the generation
	// it holds until Close, and ErrSnapshotClosed after.
	acquire func() (*dbVersion, error)
	release func(*dbVersion)
}

// query is what run hands a verb body: the caller's options, the session
// reading the acquired generation, and the verb's datasets resolved at that
// generation, in argument order.
type query struct {
	cfg  queryConfig
	sess *core.Session
	sets [2]*core.PointSet
}

// run is the one entry and exit of every query verb: refuse invalid
// arguments (args, the verb's own check of them), apply the options,
// acquire a generation, resolve the datasets at it, open the session, run
// body, record, release. Everything past the session's opening goes through record
// (which also ends the verb's span), so a body cannot skip it whatever it
// returns; an invalid argument, an unknown dataset or a closed snapshot
// fails before a session exists and is neither counted nor traced.
func (r *reader) run(ctx context.Context, verb string, datasets []string, args error, opts []QueryOption, body func(query) (core.Stats, error)) error {
	if args != nil {
		return args
	}
	q := query{cfg: applyOptions(opts)}
	start := time.Now()
	return r.at(func(v *dbVersion) (err error) {
		for i, name := range datasets {
			if q.sets[i], err = v.dataset(name); err != nil {
				return err
			}
		}
		q.sess = r.db.newSessionAt(ctx, v, verb)
		st, err := body(q)
		r.db.record(verb, &q.cfg, q.sess, st, start, err)
		return err
	})
}

// queryArgs refuses a read verb's non-finite points and NaN radius or
// distance with ErrInvalidArgument: NaN fails every comparison, so such a
// query would answer NaN or nothing instead of an error. +Inf is a legal
// radius or distance (everything reachable).
func queryArgs(pts []Point, lengths ...float64) error {
	if err := validatePoints(pts); err != nil {
		return err
	}
	for _, l := range lengths {
		if math.IsNaN(l) {
			return fmt.Errorf("%w: radius or distance is NaN", ErrInvalidArgument)
		}
	}
	return nil
}

// at runs fn on the generation the handle reads, held for exactly the call.
func (r *reader) at(fn func(v *dbVersion) error) error {
	v, err := r.acquire()
	if err != nil {
		return err
	}
	defer r.release(v)
	return fn(v)
}

// Datasets returns the names of the datasets added so far, sorted (none on a
// closed Snapshot, the one failure at can report here).
func (r *reader) Datasets() (names []string) {
	_ = r.at(func(v *dbVersion) error {
		names = make([]string, 0, len(v.datasets))
		for n := range v.datasets {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil
	})
	return names
}

// DatasetLen returns the number of entities in a dataset; an unknown name is
// an error.
func (r *reader) DatasetLen(name string) (n int, err error) {
	err = r.at(func(v *dbVersion) error {
		ps, err := v.dataset(name)
		if err == nil {
			n = ps.Len()
		}
		return err
	})
	return n, err
}

// NumObstacles returns the live obstacle count (0 on a closed Snapshot).
func (r *reader) NumObstacles() (n int) {
	_ = r.at(func(v *dbVersion) error {
		n = v.obst.Len()
		return nil
	})
	return n
}

// Range returns all entities of the dataset within obstructed distance
// radius of q, sorted by distance (the OR algorithm of the paper). Like
// every query verb, it answers from one generation for its whole call — the
// one current when a Database call starts, the one a Snapshot holds — so
// concurrent mutations neither block it nor change its answer.
func (r *reader) Range(ctx context.Context, dataset string, q Point, radius float64, opts ...QueryOption) ([]Neighbor, error) {
	var out []Neighbor
	err := r.run(ctx, VerbRange, []string{dataset}, queryArgs([]Point{q}, radius), opts, func(qr query) (core.Stats, error) {
		res, st, err := qr.sess.Range(qr.sets[0], q, radius)
		out = qr.cfg.applyNeighborOpts(toNeighbors(res))
		return st, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NearestNeighbors returns the k entities of the dataset with the smallest
// obstructed distance from q, sorted by it (the ONN algorithm). With
// WithFilter, the k closest entities satisfying the predicate are the first
// k of the incremental Nearest stream instead.
func (r *reader) NearestNeighbors(ctx context.Context, dataset string, q Point, k int, opts ...QueryOption) ([]Neighbor, error) {
	var out []Neighbor
	err := r.run(ctx, VerbNearestNeighbors, []string{dataset}, queryArgs([]Point{q}), opts, func(qr query) (core.Stats, error) {
		if qr.cfg.limit >= 0 && qr.cfg.limit < k {
			k = qr.cfg.limit
		}
		if qr.cfg.filter == nil {
			res, st, err := qr.sess.NearestNeighbors(qr.sets[0], q, k)
			out = toNeighbors(res)
			return st, err
		}
		// The rank of the k-th qualifying entity is unknown, so take the
		// stream's first k (none from a blocked query point).
		return qr.nearest(q, max(k, 0), func(nb Neighbor) bool {
			out = append(out, nb)
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Nearest returns the entities of the dataset in ascending order of
// obstructed distance from q, without a predeclared k — the incremental ONN
// variant. The sequence yields (Neighbor, nil) per entity; on failure it
// yields a final (zero Neighbor, err) and stops. Useful for complex
// predicates ("closest restaurant that is open") where the qualifying rank
// is unknown in advance:
//
//	for nb, err := range db.Nearest(ctx, "restaurants", q) {
//		if err != nil { ... }
//		if open(nb.ID) { use(nb); break }
//	}
//
// WithFilter and WithLimit apply in-stream; WithStats is written when the
// loop ends (break included). Cancelling ctx ends the sequence with
// ctx.Err(). The stream reads one generation from start to end: mutations
// committing mid-stream neither disturb it nor appear in it — the sequence
// reports exactly the pre-mutation dataset and obstacle set. A Snapshot must
// stay open for the whole iteration.
func (r *reader) Nearest(ctx context.Context, dataset string, q Point, opts ...QueryOption) iter.Seq2[Neighbor, error] {
	return func(yield func(Neighbor, error) bool) {
		err := r.run(ctx, VerbNearestStream, []string{dataset}, queryArgs([]Point{q}), opts, func(qr query) (core.Stats, error) {
			return qr.nearest(q, qr.cfg.limit, func(nb Neighbor) bool { return yield(nb, nil) })
		})
		if err != nil {
			yield(Neighbor{}, err)
		}
	}
}

// nearest pulls the incremental ONN stream from q and hands emit each
// neighbor the caller's filter accepts, in ascending obstructed distance,
// until limit were taken (negative: no cap), emit declines, or the stream
// ends.
func (qr query) nearest(q Point, limit int, emit func(Neighbor) bool) (core.Stats, error) {
	it := qr.sess.NearestIterator(qr.sets[0], q)
	emitted, pulled := 0, 0
	for limit < 0 || emitted < limit {
		r, ok := it.Next()
		if !ok {
			break
		}
		pulled++
		nb := Neighbor{ID: r.ID, Point: r.Pt, Distance: r.Dist}
		if qr.cfg.filter != nil && !qr.cfg.filter(nb) {
			continue
		}
		if !emit(nb) {
			break
		}
		emitted++
	}
	st := it.Stats()
	st.Results = emitted
	// False hits are candidates the obstructed metric eliminated (retrieved
	// in Euclidean order but never surfaced in obstructed order); entities
	// the caller's filter rejected are true hits and must not count.
	st.FalseHits = st.Candidates - pulled
	return st, it.Err()
}

// DistanceJoin returns all pairs (s, t) from the two datasets within
// obstructed distance dist of each other, sorted by distance (the ODJ
// algorithm). A dataset joined with itself pairs distinct entities only and
// lists each pair in both orientations, (i, j) and (j, i); WithStats counts
// such a pair once.
func (r *reader) DistanceJoin(ctx context.Context, dataset1, dataset2 string, dist float64, opts ...QueryOption) ([]Pair, error) {
	var out []Pair
	err := r.run(ctx, VerbDistanceJoin, []string{dataset1, dataset2}, queryArgs(nil, dist), opts, func(qr query) (core.Stats, error) {
		res, st, err := qr.sess.DistanceJoin(qr.sets[0], qr.sets[1], dist)
		out = qr.cfg.applyPairOpts(toPairs(res))
		return st, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ClosestPairs returns the k pairs from the two datasets with the smallest
// obstructed distance, sorted by it (the OCP algorithm). With
// WithPairFilter, the k closest qualifying pairs are the first k of the
// incremental Closest stream instead. A dataset paired with itself pairs
// distinct entities, in both orientations, as DistanceJoin does.
func (r *reader) ClosestPairs(ctx context.Context, dataset1, dataset2 string, k int, opts ...QueryOption) ([]Pair, error) {
	var out []Pair
	err := r.run(ctx, VerbClosestPairs, []string{dataset1, dataset2}, nil, opts, func(qr query) (core.Stats, error) {
		if qr.cfg.limit >= 0 && qr.cfg.limit < k {
			k = qr.cfg.limit
		}
		if qr.cfg.pairFilter == nil {
			res, st, err := qr.sess.ClosestPairs(qr.sets[0], qr.sets[1], k)
			out = toPairs(res)
			return st, err
		}
		return qr.closest(max(k, 0), func(p Pair) bool {
			out = append(out, p)
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Closest returns pairs from the two datasets in ascending order of
// obstructed distance, without a predeclared k — the iOCP algorithm (Fig 12
// of the paper). The sequence yields (Pair, nil) per pair; on failure it
// yields a final (zero Pair, err) and stops. Useful for browsing pairs or
// for constrained closest-pair queries ("closest city/factory pair where
// the city has over 1M residents"). WithPairFilter and WithLimit apply
// in-stream; WithStats is written when the loop ends. Cancelling ctx ends
// the sequence with ctx.Err(). Like Nearest, the stream reads one generation
// from start to end, so mutations committing mid-stream never disturb it.
// A dataset paired with itself pairs distinct entities, as in ClosestPairs.
func (r *reader) Closest(ctx context.Context, dataset1, dataset2 string, opts ...QueryOption) iter.Seq2[Pair, error] {
	return func(yield func(Pair, error) bool) {
		err := r.run(ctx, VerbClosestStream, []string{dataset1, dataset2}, nil, opts, func(qr query) (core.Stats, error) {
			return qr.closest(qr.cfg.limit, func(p Pair) bool { return yield(p, nil) })
		})
		if err != nil {
			yield(Pair{}, err)
		}
	}
}

// closest is nearest for the incremental closest-pair stream of the query's
// two datasets.
func (qr query) closest(limit int, emit func(Pair) bool) (core.Stats, error) {
	it, err := qr.sess.ClosestPairIterator(qr.sets[0], qr.sets[1])
	if err != nil {
		return core.Stats{}, err
	}
	emitted, pulled := 0, 0
	for limit < 0 || emitted < limit {
		jp, ok := it.Next()
		if !ok {
			break
		}
		pulled++
		p := Pair{ID1: jp.SID, ID2: jp.TID, Distance: jp.Dist}
		if qr.cfg.pairFilter != nil && !qr.cfg.pairFilter(p) {
			continue
		}
		if !emit(p) {
			break
		}
		emitted++
	}
	st := it.Stats()
	st.Results = emitted
	// As in nearest: filter-rejected pairs are true hits, not false hits;
	// only candidates eliminated by obstructed distance count.
	st.FalseHits = st.Candidates - pulled
	return st, it.Err()
}

// ObstructedDistance returns the length of the shortest obstacle-avoiding
// path from a to b (Unreachable when none exists).
func (r *reader) ObstructedDistance(ctx context.Context, a, b Point, opts ...QueryOption) (d float64, err error) {
	err = r.run(ctx, VerbObstructedDistance, nil, queryArgs([]Point{a, b}), opts, func(qr query) (st core.Stats, err error) {
		d, st, err = qr.sess.ObstructedDistance(a, b)
		return st, err
	})
	return d, err
}

// ObstructedPath returns a shortest obstacle-avoiding route from a to b as
// a sequence of waypoints (a first, b last, bending only at obstacle
// corners) and its total length. The path is nil and the length Unreachable
// when no route exists.
func (r *reader) ObstructedPath(ctx context.Context, a, b Point, opts ...QueryOption) (path []Point, d float64, err error) {
	err = r.run(ctx, VerbObstructedPath, nil, queryArgs([]Point{a, b}), opts, func(qr query) (st core.Stats, err error) {
		path, d, st, err = qr.sess.ObstructedPath(a, b)
		return st, err
	})
	return path, d, err
}

// ObstructedDistances returns the obstructed distance from q to every
// target, Unreachable for targets no obstacle-avoiding path can reach. One
// shared visibility graph serves the whole batch (one Dijkstra expansion
// per range-enlargement round), which is substantially cheaper than calling
// ObstructedDistance once per target.
func (r *reader) ObstructedDistances(ctx context.Context, q Point, targets []Point, opts ...QueryOption) (d []float64, err error) {
	err = r.run(ctx, VerbBatchDistances, nil, queryArgs(append([]Point{q}, targets...)), opts, func(qr query) (st core.Stats, err error) {
		d, st, err = qr.sess.BatchDistances(q, targets)
		return st, err
	})
	return d, err
}

// DistanceMatrix returns the full symmetric obstructed-distance matrix of
// pts (Unreachable off-diagonal entries for sealed-off pairs, zero on the
// diagonal — by definition, even for a point strictly inside an obstacle,
// where the pair APIs report Unreachable).
func (r *reader) DistanceMatrix(ctx context.Context, pts []Point, opts ...QueryOption) (m [][]float64, err error) {
	err = r.run(ctx, VerbDistanceMatrix, nil, queryArgs(pts), opts, func(qr query) (st core.Stats, err error) {
		m, st, err = qr.sess.DistanceMatrix(pts)
		return st, err
	})
	return m, err
}

// Cluster groups the entities of a dataset by obstructed distance: entities
// on opposite sides of an obstacle wall cluster apart even when they are
// Euclidean-close. DBSCAN reads every ε-neighborhood from one obstacle
// distance self-join of the dataset (DistanceJoin(dataset, dataset, Eps):
// each Euclidean-close pair refined once, an entity with no Euclidean
// neighbour never touching the obstacles); k-medoids reads the
// DistanceMatrix (one graph, one search per row), not per-pair distances.
// Clustering jobs can run long; cancel ctx to abort one mid-flight with
// ctx.Err().
func (r *reader) Cluster(ctx context.Context, dataset string, copts ClusterOptions, opts ...QueryOption) (*Clustering, error) {
	var (
		out    *Clustering
		jobErr error
	)
	err := r.run(ctx, VerbCluster, []string{dataset}, copts.validate(), opts, func(qr query) (st core.Stats, _ error) {
		out, st, jobErr = qr.cluster(copts)
		return st, jobErr
	})
	if jobErr != nil {
		return nil, fmt.Errorf("obstacles: clustering %q: %w", dataset, jobErr)
	}
	return out, err
}

// InsideObstacle reports whether p lies strictly inside an obstacle. Such
// points can reach nothing: queries from them return no results and their
// distances are Unreachable.
func (r *reader) InsideObstacle(p Point) (inside bool, err error) {
	if err := queryArgs([]Point{p}); err != nil {
		return false, err
	}
	err = r.at(func(v *dbVersion) (err error) {
		inside, err = r.db.engine.NewSessionAt(context.Background(), v.obst).InsideObstacle(p)
		return err
	})
	return inside, err
}

func toNeighbors(rs []core.Result) []Neighbor {
	out := make([]Neighbor, len(rs))
	for i, r := range rs {
		out[i] = Neighbor{ID: r.ID, Point: r.Pt, Distance: r.Dist}
	}
	return out
}

func toPairs(ps []core.JoinPair) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{ID1: p.SID, ID2: p.TID, Distance: p.Dist}
	}
	return out
}
