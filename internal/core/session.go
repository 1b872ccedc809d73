package core

import (
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/rtree"
	"repro/internal/telemetry"
	"repro/internal/visgraph"
)

// Session is the per-call mutable state of query execution: the context that
// can cancel it, the visibility-graph work counters it accrues, and counted
// R-tree views attributing page I/O to this one query. The Engine itself
// holds only shared, concurrency-safe state (obstacle data, page buffers),
// so any number of Sessions may run in parallel against one Engine — one
// Session per concurrent query.
//
// A Session itself is confined to a single goroutine.
type Session struct {
	e   *Engine
	ctx context.Context
	// met accrues this session's visibility-graph work; graphs the session
	// builds point here.
	met visgraph.Metrics
	// io accrues this session's page traffic on every dataset tree it
	// touches; obstIO the obstacle tree's, by caller (obstPointQuery,
	// obstScan, obstEnlarge), each through its own counted view in obstTree.
	io       pagefile.Stats
	obstIO   [obstCallers]pagefile.Stats
	obstTree [obstCallers]*rtree.Tree
	// obst is the obstacle set the session reads — the engine's live set, or
	// a sealed view when the caller pinned a snapshot (NewSessionAt).
	obst *ObstacleSet
	// span, when set, is the session's span in the enclosing trace: the
	// lifecycle stages (graph builds, obstacle scans, growth rounds,
	// Dijkstra expansions) are recorded as its children. All recording is
	// nil-safe, so an un-traced session pays one branch per stage.
	span *telemetry.Span
}

// The callers that read the obstacle tree, each counted apart so Stats can
// say which of them a query's obstacle page reads came from.
const (
	obstPointQuery = iota // InsideObstacle
	obstScan              // a field's opening range query (relevantObstacles)
	obstEnlarge           // Fig 8 enlargement (field.addWithin) and the cover radius
	obstCallers
)

// SetSpan attaches the session's trace span; its lifecycle stages become
// child spans. nil detaches.
func (s *Session) SetSpan(sp *telemetry.Span) { s.span = sp }

// Span returns the session's trace span (nil when tracing is off).
func (s *Session) Span() *telemetry.Span { return s.span }

// buildGraph starts a visibility graph over the obstacles (nodes and
// boundary edges only: visibility is computed by the searches that follow),
// recording a "graph-build" span — the single chokepoint every query verb
// builds graphs through.
func (s *Session) buildGraph(obs []visgraph.Obstacle) *visgraph.Graph {
	defer s.span.StartSpan("graph-build")()
	return visgraph.Build(s.graphOptions(), obs)
}

// dijkstra runs one graph search under a "dijkstra" child span whose
// settled-node and visibility-sweep deltas are recorded as the span's work
// attributes (the sweeps are where a search's time goes: adjacency is
// computed at the nodes it expands) — the chokepoint every search path
// (Fig 8 enlargement, batch multi-target settling, the bounded expansions of
// range and join) times itself through.
func (s *Session) dijkstra(run func()) {
	if s.span == nil {
		run()
		return
	}
	sp := s.span.StartChild("dijkstra")
	before := s.met
	run()
	d := s.met.Sub(before)
	sp.SetAttr("settled_nodes", d.SettledNodes)
	sp.SetAttr("sweeps", d.Sweeps)
	sp.End()
}

// NewSession starts a query session on the engine. The context governs every
// query run on the session: once it is canceled or past its deadline, running
// expansions abort and session methods return ctx.Err().
func (e *Engine) NewSession(ctx context.Context) *Session {
	return e.NewSessionAt(ctx, e.obstacles)
}

// NewSessionAt starts a query session reading the given obstacle set view
// instead of the engine's live set — the hook snapshot reads use: the caller
// passes a Seal()ed set and the whole session answers at that generation.
// A nil obst falls back to the live set.
func (e *Engine) NewSessionAt(ctx context.Context, obst *ObstacleSet) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	if obst == nil {
		obst = e.obstacles
	}
	s := &Session{e: e, ctx: ctx, obst: obst}
	for i := range s.obstTree {
		s.obstTree[i] = obst.tree.Counted(&s.obstIO[i])
	}
	return s
}

// Context returns the session's context.
func (s *Session) Context() context.Context { return s.ctx }

// err surfaces the session's cancellation state.
func (s *Session) err() error { return s.ctx.Err() }

// interrupted is the visgraph.Options.Interrupt hook: it reports whether the
// session's context is done, polled inside Dijkstra expansions.
func (s *Session) interrupted() bool { return s.ctx.Err() != nil }

// graphOptions returns the visibility-graph configuration wired to this
// session's work counters and cancellation.
func (s *Session) graphOptions() visgraph.Options {
	return visgraph.Options{UseSweep: true, Metrics: &s.met, Interrupt: s.interrupted}
}

// pointTree returns the session's counted view of a dataset's R-tree.
func (s *Session) pointTree(P *PointSet) *rtree.Tree {
	return P.tree.Counted(&s.io)
}

// workSnap captures the session's counters before a call, so the call can
// report exact per-call deltas even when one session runs several calls, or
// an iterator folds its work in steps. A verb's Stats are the only account
// of a session's work.
type workSnap struct {
	met    visgraph.Metrics
	io     pagefile.Stats
	obstIO [obstCallers]pagefile.Stats
}

func (s *Session) snap() workSnap { return workSnap{met: s.met, io: s.io, obstIO: s.obstIO} }

// finishCall folds the work performed since the snapshot into st.
func (s *Session) finishCall(st *Stats, w workSnap) {
	d := s.met.Sub(w.met)
	st.SettledNodes += d.SettledNodes
	st.Expansions += d.Expansions
	st.GraphBuilds += d.Builds
	st.Sweeps += d.Sweeps
	st.Walks += d.Walks
	st.IO = st.IO.Add(s.io.Sub(w.io))
	var obst [obstCallers]uint64
	for i := range s.obstIO {
		io := s.obstIO[i].Sub(w.obstIO[i])
		st.IO = st.IO.Add(io)
		obst[i] = io.PhysicalReads
	}
	st.ObstReads = st.ObstReads.add(ObstacleReads{PointQuery: obst[obstPointQuery], Scan: obst[obstScan], Enlarge: obst[obstEnlarge]})
}

// relevantObstacles returns the obstacles whose polygons meet the region —
// the filter (R-tree ellipse range on MBRs) plus refinement (region.meets)
// steps — reading the tree through w when it is not nil, as a field's
// opening scan (obstScan) or a Fig 8 enlargement (obstEnlarge).
func (s *Session) relevantObstacles(r region, w *rtree.Window, caller int) ([]visgraph.Obstacle, error) {
	if err := s.err(); err != nil {
		return nil, err
	}
	defer s.span.StartSpan([obstCallers]string{obstScan: "obstacle-scan", obstEnlarge: "graph-grow"}[caller])()
	polys := s.obst.items
	var out []visgraph.Obstacle
	err := s.obstTree[caller].SearchEllipseIn(w, r.a, r.b, r.sum, func(it rtree.Item) bool {
		pg := polys[it.Data]
		if r.meets(pg) {
			out = append(out, visgraph.Obstacle{ID: it.Data, Poly: pg})
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("core: obstacle range: %w", err)
	}
	return out, nil
}

// InsideObstacle reports whether p lies strictly inside some obstacle's
// interior, through the session's counted view. Such points can reach
// nothing, so the query algorithms reject them up front instead of letting
// the range enlargement of Fig 8 escalate to the whole dataset trying to
// prove unreachability. A field asks it only about points outside the disk
// its own obstacles cover (field.buried).
func (s *Session) InsideObstacle(p geom.Point) (bool, error) {
	if err := s.err(); err != nil {
		return false, err
	}
	polys := s.obst.items
	inside := false
	err := s.obstTree[obstPointQuery].SearchCircle(p, 0, func(it rtree.Item) bool {
		if polys[it.Data].ContainsStrict(p) {
			inside = true
			return false
		}
		return true
	})
	if err != nil {
		return false, fmt.Errorf("core: obstacle point query: %w", err)
	}
	return inside, nil
}
