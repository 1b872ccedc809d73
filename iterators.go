package obstacles

import (
	"context"
	"iter"
	"time"

	"repro/internal/core"
)

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
// ctx.Err(). The stream pins the generation current when it starts:
// mutations committing mid-stream neither disturb it nor appear in it — the
// sequence reports exactly the pre-mutation dataset and obstacle set.
func (db *Database) Nearest(ctx context.Context, dataset string, q Point, opts ...QueryOption) iter.Seq2[Neighbor, error] {
	return func(yield func(Neighbor, error) bool) {
		v := db.pin()
		defer db.unpin(v)
		db.nearestAt(v, ctx, dataset, q, opts...)(yield)
	}
}

// nearestAt is the stream body over an already-pinned version; the caller
// owns the pin for the duration of the iteration.
func (db *Database) nearestAt(v *dbVersion, ctx context.Context, dataset string, q Point, opts ...QueryOption) iter.Seq2[Neighbor, error] {
	return func(yield func(Neighbor, error) bool) {
		cfg := applyOptions(opts)
		start := time.Now()
		ps, err := v.dataset(dataset)
		if err != nil {
			yield(Neighbor{}, err)
			return
		}
		sess := db.newSessionAt(ctx, v, VerbNearestStream)
		it := sess.NearestIterator(ps, q)
		emitted, pulled := 0, 0
		defer func() {
			st := it.Stats()
			st.Results = emitted
			// False hits are candidates the obstructed metric eliminated
			// (retrieved in Euclidean order but never surfaced in obstructed
			// order) — not entities the caller's filter rejected.
			st.FalseHits = st.Candidates - pulled
			db.record(VerbNearestStream, &cfg, sess, st, start, it.Err())
		}()
		for cfg.limit < 0 || emitted < cfg.limit {
			r, ok := it.Next()
			if !ok {
				if err := it.Err(); err != nil {
					yield(Neighbor{}, err)
				}
				return
			}
			pulled++
			nb := Neighbor{ID: r.ID, Point: r.Pt, Distance: r.Dist}
			if cfg.filter != nil && !cfg.filter(nb) {
				continue
			}
			if !yield(nb, nil) {
				return
			}
			emitted++
		}
	}
}

// Closest returns pairs from the two datasets in ascending order of
// obstructed distance, without a predeclared k — the iOCP algorithm (Fig 12
// of the paper). The sequence yields (Pair, nil) per pair; on failure it
// yields a final (zero Pair, err) and stops. Useful for browsing pairs or
// for constrained closest-pair queries ("closest city/factory pair where
// the city has over 1M residents"). WithPairFilter and WithLimit apply
// in-stream; WithStats is written when the loop ends. Cancelling ctx ends
// the sequence with ctx.Err(). Like Nearest, the stream pins its starting
// generation, so mutations committing mid-stream never disturb it.
func (db *Database) Closest(ctx context.Context, dataset1, dataset2 string, opts ...QueryOption) iter.Seq2[Pair, error] {
	return func(yield func(Pair, error) bool) {
		v := db.pin()
		defer db.unpin(v)
		db.closestAt(v, ctx, dataset1, dataset2, opts...)(yield)
	}
}

// closestAt is the stream body over an already-pinned version; the caller
// owns the pin for the duration of the iteration.
func (db *Database) closestAt(v *dbVersion, ctx context.Context, dataset1, dataset2 string, opts ...QueryOption) iter.Seq2[Pair, error] {
	return func(yield func(Pair, error) bool) {
		cfg := applyOptions(opts)
		start := time.Now()
		s, err := v.dataset(dataset1)
		if err != nil {
			yield(Pair{}, err)
			return
		}
		t, err := v.dataset(dataset2)
		if err != nil {
			yield(Pair{}, err)
			return
		}
		sess := db.newSessionAt(ctx, v, VerbClosestStream)
		it, err := sess.ClosestPairIterator(s, t)
		if err != nil {
			db.record(VerbClosestStream, &cfg, sess, core.Stats{}, start, err)
			yield(Pair{}, err)
			return
		}
		emitted, pulled := 0, 0
		defer func() {
			st := it.Stats()
			st.Results = emitted
			st.FalseHits = st.Candidates - pulled
			db.record(VerbClosestStream, &cfg, sess, st, start, it.Err())
		}()
		for cfg.limit < 0 || emitted < cfg.limit {
			jp, ok := it.Next()
			if !ok {
				if err := it.Err(); err != nil {
					yield(Pair{}, err)
				}
				return
			}
			pulled++
			p := Pair{ID1: jp.SID, ID2: jp.TID, Distance: jp.Dist}
			if cfg.pairFilter != nil && !cfg.pairFilter(p) {
				continue
			}
			if !yield(p, nil) {
				return
			}
			emitted++
		}
	}
}
