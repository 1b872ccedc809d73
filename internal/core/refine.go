package core

import (
	"cmp"
	"container/heap"
	"errors"
	"math"
	"slices"
)

// errSourceBuried is what a stream's eval reports when its source lies
// strictly inside an obstacle and so reaches no candidate at all.
var errSourceBuried = errors.New("core: source strictly inside an obstacle")

// This file holds the two refinement skeletons the paper's nearest-neighbour
// and closest-pair algorithms share: Fig 9 (ONN) and Fig 11 (OCP) are one
// top-k loop over two candidate streams, and incremental ONN is Fig 12 (iOCP)
// with a different stream. Both rest on the Euclidean lower bound dE <= dO.
//
// One stated deviation from Figs 9 and 11: the paper measures every
// candidate's obstructed distance, while here only the k seeds are measured.
// A candidate past them is only asked whether its distance is below the
// running k-th one (dEmax), which is all the loop uses it for, and it is
// refined just far enough to answer that (field.certify with a bound).
// Results, their order and the false hits are the paper's; the graph work and
// obstacle page reads of the candidates that lose are not.

// ranked is what the skeletons need of a result type: its obstructed distance
// and the ids that break ties, so result order never depends on evaluation
// order.
type ranked interface {
	rank() (dist float64, id1, id2 int64)
}

func (r Result) rank() (float64, int64, int64)   { return r.Dist, r.ID, 0 }
func (p JoinPair) rank() (float64, int64, int64) { return p.Dist, p.SID, p.TID }

func distOf[R ranked](r R) float64 {
	d, _, _ := r.rank()
	return d
}

func compareRanked[R ranked](a, b R) int {
	ad, a1, a2 := a.rank()
	bd, b1, b2 := b.rank()
	return cmp.Or(cmp.Compare(ad, bd), cmp.Compare(a1, b1), cmp.Compare(a2, b2))
}

// sortRanked orders results by obstructed distance, ties by id.
func sortRanked[R ranked](rs []R) { slices.SortFunc(rs, compareRanked[R]) }

// rankHeap is a min-heap of results in sortRanked order.
type rankHeap[R ranked] []R

func (h rankHeap[R]) Len() int           { return len(h) }
func (h rankHeap[R]) Less(i, j int) bool { return compareRanked(h[i], h[j]) < 0 }
func (h rankHeap[R]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *rankHeap[R]) Push(x any)        { *h = append(*h, x.(R)) }
func (h *rankHeap[R]) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// candidates is a stream of candidates C in ascending Euclidean distance
// (rtree's incremental nearest-neighbour [HS99] and closest-pair [HS98,
// CMTV00] iterators) with the step that refines one into a result R by its
// obstructed distance. eval measures the distance exactly when it is below
// bound, and may report +Inf for any distance that is not. close hands back
// what the stream holds — the iterator's scratch, the fields eval measured on
// — once no more candidates will be drawn or evaluated.
type candidates[C any, R ranked] struct {
	src interface {
		Next() (C, bool)
		Err() error
	}
	dE    func(C) float64
	eval  func(c C, bound float64) (R, error)
	close func()
}

// topK returns the k candidates with the smallest obstructed distance, sorted
// by it (Figs 9 and 11): the first k of the Euclidean stream seed the result,
// and retrieval continues while the next Euclidean distance does not exceed
// the k-th obstructed distance (dEmax), which only shrinks as better
// candidates replace the k-th. The seeds are measured exactly; a later
// candidate is evaluated against dEmax, and kept only below it, so the +Inf
// of one that is not never reaches the result. begin sees the seeds before
// any is evaluated.
func topK[C any, R ranked](s *Session, st *Stats, k int, c candidates[C, R], begin func(seed []C) error) ([]R, error) {
	defer c.close()
	var seed []C
	for len(seed) < k {
		cand, ok := c.src.Next()
		if !ok {
			break
		}
		seed = append(seed, cand)
	}
	if err := c.src.Err(); err != nil {
		return nil, err
	}
	st.Candidates = len(seed)
	if len(seed) == 0 {
		return nil, nil
	}
	if err := begin(seed); err != nil {
		return nil, err
	}
	out := make([]R, 0, k)
	for _, cand := range seed {
		r, err := c.eval(cand, math.Inf(1))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sortRanked(out)
	dEmax := distOf(out[len(out)-1])
	// Retrieve further Euclidean candidates while they can possibly beat the
	// current k-th obstructed distance.
	for {
		if err := s.err(); err != nil {
			return nil, err
		}
		cand, ok := c.src.Next()
		if !ok {
			if err := c.src.Err(); err != nil {
				return nil, err
			}
			break
		}
		if c.dE(cand) > dEmax {
			break
		}
		st.Candidates++
		r, err := c.eval(cand, dEmax)
		if err != nil {
			return nil, err
		}
		if distOf(r) < dEmax {
			out[len(out)-1] = r
			sortRanked(out)
			dEmax = distOf(out[len(out)-1])
		}
	}
	st.Results = len(out)
	return out, nil
}

// emitter reports the candidates of a stream in ascending obstructed distance
// without a predeclared k (iOCP, Fig 12, and the incremental ONN the paper
// derives from it in Section 6): a refined candidate is buffered, and can be
// emitted as soon as its obstructed distance is no larger than the Euclidean
// distance of the last candidate retrieved, since every future candidate has
// dO >= dE. It inherits its session's context: once that is canceled, Next
// stops and Err reports ctx.Err(). An eval that returns errSourceBuried ends
// the stream with nothing more and no error.
type emitter[C any, R ranked] struct {
	candidates[C, R]
	s       *Session
	srcDone bool
	last    float64 // Euclidean distance of the last retrieved candidate
	ready   rankHeap[R]
	err     error
	stats   Stats
	snap    workSnap
}

// Next returns the next result by obstructed distance. ok is false when the
// stream is exhausted or an error occurred (check Err).
func (it *emitter[C, R]) Next() (R, bool) {
	for it.err == nil {
		if err := it.s.err(); err != nil {
			it.fail(err)
			break
		}
		if len(it.ready) > 0 && (it.srcDone || distOf(it.ready[0]) <= it.last) {
			return heap.Pop(&it.ready).(R), true
		}
		if it.srcDone {
			break
		}
		cand, ok := it.src.Next()
		if !ok {
			if err := it.src.Err(); err != nil {
				it.fail(err)
				break
			}
			it.srcDone = true
			it.close()
			it.finish()
			continue
		}
		it.last = it.dE(cand)
		it.stats.Candidates++
		r, err := it.eval(cand, math.Inf(1))
		if err == errSourceBuried {
			it.ready, it.srcDone = nil, true
			it.close()
			it.finish()
			continue
		}
		if err != nil {
			it.fail(err)
			break
		}
		heap.Push(&it.ready, r)
	}
	var none R
	return none, false
}

func (it *emitter[C, R]) fail(err error) {
	it.err = err
	it.close()
	it.finish()
}

// finish folds the iterator's work into its stats; idempotent (delta-based),
// called on exhaustion, error, and by Stats.
func (it *emitter[C, R]) finish() {
	it.s.finishCall(&it.stats, it.snap)
	it.snap = it.s.snap()
}

// Err returns the first error encountered, if any.
func (it *emitter[C, R]) Err() error { return it.err }

// Stats returns the work counters accumulated so far.
func (it *emitter[C, R]) Stats() Stats {
	it.finish()
	return it.stats
}
