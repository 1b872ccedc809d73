// Package core implements the obstructed spatial query algorithms of the
// paper: obstacle range search (OR, Fig 5), obstacle nearest neighbors (ONN,
// Fig 9), obstacle e-distance join (ODJ, Fig 10), obstacle closest pairs
// (OCP, Fig 11) and their incremental variants (iOCP, Fig 12, and the
// incremental ONN the paper sketches).
//
// Every verb is the same four layers, each written once:
//
//   - a candidate stream: Euclidean range, nearest-neighbour, join and
//     closest-pair search on R-trees (package rtree), which loses no answer
//     because of the Euclidean lower bound dE <= dO;
//   - a refinement skeleton over that stream (refine.go): the top-k loop of
//     Figs 9 and 11, or the incremental emitter of Fig 12; OR, ODJ and the
//     batch verbs refine their whole candidate set at once and need none;
//   - the field (field.go): obstructed distances from one source point to
//     target points on one local visibility graph, by a bounded expansion
//     (settle, Fig 5) or by the iterative range enlargement (certify, Fig 8).
//     It is the only code that adds or removes graph nodes, searches, and
//     acquires graphs, query-local or from the graph cache (graphcache.go);
//   - the on-line local visibility graph itself (package visgraph).
//
// The verbs keep what the paper makes theirs: which stream, which initial
// obstacle range, when to stop.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/rtree"
)

// PointSet is an entity dataset: points indexed by an R-tree, addressed by
// dense int64 ids (the index into the point slice). The set is mutable —
// Insert and Delete update points in place — but mutation is not safe
// against concurrent readers: callers must exclude in-flight queries (the
// public Database does this with its update lock).
type PointSet struct {
	tree *rtree.Tree
	pts  []geom.Point
	// dead marks deleted ids (aligned with pts); nil until the first delete.
	dead []bool
	// free lists dead ids available for reuse, so sustained churn keeps the
	// id space (and the pts slice) bounded instead of growing forever.
	free []int64

	// Copy-on-write state (EnableCOW): with cow set, a mutation epoch never
	// writes an element a Seal()ed view can read. Appends are always safe —
	// sealed slice headers end before the appended index — but the first
	// in-place write of an epoch clones the whole array; the own* flags
	// record which arrays are already private to the current epoch. The free
	// list clones before any modification, including pops: a pop alone looks
	// harmless, but a later push would rewrite an index the sealed header
	// still covers.
	cow                      bool
	ownPts, ownDead, ownFree bool
}

// EnableCOW switches the set (and its tree) to copy-on-write mutation, so
// Seal views stay consistent while the set mutates.
func (s *PointSet) EnableCOW() {
	s.cow = true
	s.tree.EnableCOW()
}

// BeginEpoch starts a mutation epoch: the current arrays are considered
// published (a Seal may have captured them) and clone on first in-place
// write.
func (s *PointSet) BeginEpoch() {
	if s.cow {
		s.ownPts, s.ownDead, s.ownFree = false, false, false
		s.tree.BeginEpoch()
	}
}

// Seal returns a frozen read-only view of the set: a struct copy sharing
// the current arrays (whose covered elements no later epoch rewrites) over
// a pinned tree view. Len/Alive/Point answer as of the seal.
func (s *PointSet) Seal() *PointSet {
	cp := *s
	cp.tree = s.tree.View()
	cp.cow = false
	return &cp
}

func (s *PointSet) ensurePts() {
	if s.cow && !s.ownPts {
		s.pts = append([]geom.Point(nil), s.pts...)
		s.ownPts = true
	}
}

func (s *PointSet) ensureDead() {
	if s.cow && !s.ownDead {
		s.dead = append([]bool(nil), s.dead...)
		s.ownDead = true
	}
}

func (s *PointSet) ensureFree() {
	if s.cow && !s.ownFree {
		s.free = append([]int64(nil), s.free...)
		s.ownFree = true
	}
}

// NewPointSet indexes pts with an R-tree. Bulk loading (STR) is used when
// bulk is true; otherwise points are inserted one by one through the R*
// insertion path.
func NewPointSet(opts rtree.Options, pts []geom.Point, bulk bool) (*PointSet, error) {
	cp := make([]geom.Point, len(pts))
	copy(cp, pts)
	if bulk {
		items := make([]rtree.Item, len(cp))
		for i, p := range cp {
			items[i] = rtree.PointItem(p, int64(i))
		}
		t, err := rtree.BulkLoad(opts, items, rtree.STR)
		if err != nil {
			return nil, err
		}
		return &PointSet{tree: t, pts: cp}, nil
	}
	t, err := rtree.New(opts)
	if err != nil {
		return nil, err
	}
	for i, p := range cp {
		if err := t.InsertPoint(p, int64(i)); err != nil {
			return nil, err
		}
	}
	return &PointSet{tree: t, pts: cp}, nil
}

// maxAttachSlack bounds how far a catalog's id bound may exceed the live
// item count. Ids are reused before the id space grows, so the bound never
// legitimately exceeds the historical maximum live count; the slack keeps
// a corrupted (or hostile) catalog from turning `make` into a panic or a
// multi-terabyte allocation before the tree scan can cross-check anything.
const maxAttachSlack = 1 << 24

// validAttachBound sanity-checks a file-supplied id bound against the
// attached tree's item count before any allocation sized by it.
func validAttachBound(what string, idBound int64, items int) error {
	if idBound < int64(items) || idBound > int64(items)+maxAttachSlack {
		return fmt.Errorf("core: corrupt catalog: %s id bound %d for %d live items", what, idBound, items)
	}
	return nil
}

// AttachPointSet reconstructs a PointSet around a tree whose pages were
// recovered from durable storage. Point coordinates are not serialized
// separately: every leaf entry is a degenerate rectangle plus the entity
// id, so one scan of the tree rebuilds the id -> point table, and the free
// list is the complement of the scanned ids in [0, idBound).
func AttachPointSet(t *rtree.Tree, idBound int64) (*PointSet, error) {
	if err := validAttachBound("dataset", idBound, t.Len()); err != nil {
		return nil, err
	}
	pts := make([]geom.Point, idBound)
	seen := make([]bool, idBound)
	items, err := t.All()
	if err != nil {
		return nil, fmt.Errorf("core: scanning point tree: %w", err)
	}
	if len(items) != t.Len() {
		return nil, fmt.Errorf("core: point tree scan found %d items, tree says %d", len(items), t.Len())
	}
	for _, it := range items {
		id := it.Data
		if id < 0 || id >= idBound {
			return nil, fmt.Errorf("core: point tree has entity id %d outside [0, %d)", id, idBound)
		}
		if seen[id] {
			return nil, fmt.Errorf("core: point tree has duplicate entity id %d", id)
		}
		seen[id] = true
		pts[id] = geom.Pt(it.Rect.MinX, it.Rect.MinY)
	}
	s := &PointSet{tree: t, pts: pts}
	for id := int64(idBound) - 1; id >= 0; id-- {
		if !seen[id] {
			if s.dead == nil {
				s.dead = make([]bool, idBound)
			}
			s.dead[id] = true
			// Descending append means the lowest free id is popped first,
			// matching the reader-friendly "reuse small ids" tendency.
			s.free = append(s.free, id)
		}
	}
	return s, nil
}

// Tree returns the underlying R-tree.
func (s *PointSet) Tree() *rtree.Tree { return s.tree }

// Point returns the location of the entity with the given id.
func (s *PointSet) Point(id int64) geom.Point { return s.pts[id] }

// Len returns the number of live entities.
func (s *PointSet) Len() int { return len(s.pts) - len(s.free) }

// IDBound returns the exclusive upper bound of ids ever assigned. Live ids
// are a subset of [0, IDBound); deleted ids inside the range may be reused
// by later inserts.
func (s *PointSet) IDBound() int64 { return int64(len(s.pts)) }

// Alive reports whether id refers to a live entity.
func (s *PointSet) Alive(id int64) bool {
	if id < 0 || id >= int64(len(s.pts)) {
		return false
	}
	return s.dead == nil || !s.dead[id]
}

// Live appends the ids of all live entities to dst in ascending order.
func (s *PointSet) Live(dst []int64) []int64 {
	for i := range s.pts {
		if s.dead == nil || !s.dead[i] {
			dst = append(dst, int64(i))
		}
	}
	return dst
}

// Insert adds points as entities, reusing ids freed by earlier deletions
// before growing the id space, and returns the assigned ids. Mutation must
// not run concurrently with queries on the same set.
func (s *PointSet) Insert(pts []geom.Point) ([]int64, error) {
	ids := make([]int64, 0, len(pts))
	for _, p := range pts {
		var id int64
		if n := len(s.free); n > 0 {
			s.ensureFree()
			s.ensurePts()
			s.ensureDead()
			id = s.free[n-1]
			s.free = s.free[:n-1]
			s.pts[id] = p
			s.dead[id] = false
		} else {
			id = int64(len(s.pts))
			s.pts = append(s.pts, p)
			if s.dead != nil {
				s.dead = append(s.dead, false)
			}
		}
		if err := s.tree.InsertPoint(p, id); err != nil {
			// Roll the slot back (dead + reusable) so the set stays
			// consistent with the tree.
			if s.dead == nil {
				s.dead = make([]bool, len(s.pts))
				s.ownDead = true
			}
			s.ensureDead()
			s.dead[id] = true
			s.ensureFree()
			s.free = append(s.free, id)
			return ids, fmt.Errorf("core: inserting point %v: %w", p, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Delete removes the entity with the given id; its id becomes reusable by a
// later Insert. It errors when the id is unknown or already deleted.
func (s *PointSet) Delete(id int64) error {
	if !s.Alive(id) {
		return fmt.Errorf("core: delete of unknown entity id %d", id)
	}
	found, err := s.tree.Delete(geom.PointRect(s.pts[id]), id)
	if err != nil {
		return fmt.Errorf("core: deleting entity %d: %w", id, err)
	}
	if !found {
		return fmt.Errorf("core: entity %d missing from index", id)
	}
	if s.dead == nil {
		s.dead = make([]bool, len(s.pts))
		s.ownDead = true
	}
	s.ensureDead()
	s.dead[id] = true
	s.ensureFree()
	s.free = append(s.free, id)
	return nil
}

// ObstacleSet is an obstacle dataset: polygons indexed by an R-tree on their
// MBRs, addressed by dense int64 ids. Obstacles can be added and removed in
// place (Add, Remove); every mutation bumps the set's generation counter,
// which the visibility-graph cache uses to refuse stale graphs. As with
// PointSet, mutation must not run concurrently with queries.
type ObstacleSet struct {
	tree  *rtree.Tree
	polys []geom.Polygon
	dead  []bool
	free  []int64
	// gen counts mutations. Read atomically (sync/atomic functions on a plain
	// word, so Seal's struct copy stays legal) by cache-staleness checks that
	// may run outside the writer's critical section.
	gen uint64

	// Copy-on-write state; see the PointSet field of the same shape.
	cow                        bool
	ownPolys, ownDead, ownFree bool
}

// EnableCOW switches the set (and its tree) to copy-on-write mutation.
func (o *ObstacleSet) EnableCOW() {
	o.cow = true
	o.tree.EnableCOW()
}

// BeginEpoch starts a mutation epoch; the current arrays clone on first
// in-place write so earlier Seal views stay intact.
func (o *ObstacleSet) BeginEpoch() {
	if o.cow {
		o.ownPolys, o.ownDead, o.ownFree = false, false, false
		o.tree.BeginEpoch()
	}
}

// Seal returns a frozen read-only view of the obstacle set at its current
// generation.
func (o *ObstacleSet) Seal() *ObstacleSet {
	cp := *o
	cp.tree = o.tree.View()
	cp.cow = false
	return &cp
}

func (o *ObstacleSet) ensurePolys() {
	if o.cow && !o.ownPolys {
		o.polys = append([]geom.Polygon(nil), o.polys...)
		o.ownPolys = true
	}
}

func (o *ObstacleSet) ensureDead() {
	if o.cow && !o.ownDead {
		o.dead = append([]bool(nil), o.dead...)
		o.ownDead = true
	}
}

func (o *ObstacleSet) ensureFree() {
	if o.cow && !o.ownFree {
		o.free = append([]int64(nil), o.free...)
		o.ownFree = true
	}
}

// NewObstacleSet indexes polys by their MBRs.
func NewObstacleSet(opts rtree.Options, polys []geom.Polygon, bulk bool) (*ObstacleSet, error) {
	cp := make([]geom.Polygon, len(polys))
	copy(cp, polys)
	if bulk {
		items := make([]rtree.Item, len(cp))
		for i, pg := range cp {
			items[i] = rtree.Item{Rect: pg.Bounds(), Data: int64(i)}
		}
		t, err := rtree.BulkLoad(opts, items, rtree.STR)
		if err != nil {
			return nil, err
		}
		return &ObstacleSet{tree: t, polys: cp}, nil
	}
	t, err := rtree.New(opts)
	if err != nil {
		return nil, err
	}
	for i, pg := range cp {
		if err := t.Insert(pg.Bounds(), int64(i)); err != nil {
			return nil, err
		}
	}
	return &ObstacleSet{tree: t, polys: cp}, nil
}

// AttachObstacleSet reconstructs an ObstacleSet around a recovered tree and
// the catalog's live-polygon table (id -> vertices). Ids absent from the
// table inside [0, idBound) become the free list; gen restores the mutation
// counter so cache staleness stamps keep increasing across restarts.
func AttachObstacleSet(t *rtree.Tree, polys map[int64][]geom.Point, idBound int64, gen uint64) (*ObstacleSet, error) {
	if t.Len() != len(polys) {
		return nil, fmt.Errorf("core: obstacle tree has %d items, catalog has %d polygons", t.Len(), len(polys))
	}
	if err := validAttachBound("obstacle", idBound, len(polys)); err != nil {
		return nil, err
	}
	o := &ObstacleSet{tree: t, polys: make([]geom.Polygon, idBound)}
	for id, v := range polys {
		if id < 0 || id >= idBound {
			return nil, fmt.Errorf("core: obstacle id %d outside [0, %d)", id, idBound)
		}
		pg, err := geom.NewPolygon(v)
		if err != nil {
			return nil, fmt.Errorf("core: obstacle %d: %w", id, err)
		}
		o.polys[id] = pg
	}
	for id := idBound - 1; id >= 0; id-- {
		if _, live := polys[id]; !live {
			if o.dead == nil {
				o.dead = make([]bool, idBound)
			}
			o.dead[id] = true
			o.free = append(o.free, id)
		}
	}
	atomic.StoreUint64(&o.gen, gen)
	return o, nil
}

// Tree returns the underlying R-tree.
func (o *ObstacleSet) Tree() *rtree.Tree { return o.tree }

// Polygon returns the obstacle with the given id.
func (o *ObstacleSet) Polygon(id int64) geom.Polygon { return o.polys[id] }

// Len returns the number of live obstacles.
func (o *ObstacleSet) Len() int { return len(o.polys) - len(o.free) }

// IDBound returns the exclusive upper bound of obstacle ids ever assigned.
func (o *ObstacleSet) IDBound() int64 { return int64(len(o.polys)) }

// Generation returns the mutation counter: it increases on every Add or
// Remove, so a visibility graph stamped with an older generation may reflect
// an obstacle set that no longer exists.
func (o *ObstacleSet) Generation() uint64 { return atomic.LoadUint64(&o.gen) }

// Alive reports whether id refers to a live obstacle.
func (o *ObstacleSet) Alive(id int64) bool {
	if id < 0 || id >= int64(len(o.polys)) {
		return false
	}
	return o.dead == nil || !o.dead[id]
}

// Add indexes new obstacles, reusing ids freed by earlier removals, and
// returns the assigned ids. Mutation must not run concurrently with queries;
// callers owning a graph cache must invalidate the affected regions.
func (o *ObstacleSet) Add(polys []geom.Polygon) ([]int64, error) {
	ids := make([]int64, 0, len(polys))
	for _, pg := range polys {
		var id int64
		if n := len(o.free); n > 0 {
			o.ensureFree()
			o.ensurePolys()
			o.ensureDead()
			id = o.free[n-1]
			o.free = o.free[:n-1]
			o.polys[id] = pg
			o.dead[id] = false
		} else {
			id = int64(len(o.polys))
			o.polys = append(o.polys, pg)
			if o.dead != nil {
				o.dead = append(o.dead, false)
			}
		}
		if err := o.tree.Insert(pg.Bounds(), id); err != nil {
			if o.dead == nil {
				o.dead = make([]bool, len(o.polys))
				o.ownDead = true
			}
			o.ensureDead()
			o.dead[id] = true
			o.ensureFree()
			o.free = append(o.free, id)
			atomic.AddUint64(&o.gen, 1)
			return ids, fmt.Errorf("core: inserting obstacle: %w", err)
		}
		ids = append(ids, id)
	}
	if len(ids) > 0 {
		atomic.AddUint64(&o.gen, 1)
	}
	return ids, nil
}

// Remove deletes the obstacle with the given id, returning its MBR so the
// caller can invalidate cached graphs covering it. The id becomes reusable.
func (o *ObstacleSet) Remove(id int64) (geom.Rect, error) {
	if !o.Alive(id) {
		return geom.Rect{}, fmt.Errorf("core: remove of unknown obstacle id %d", id)
	}
	mbr := o.polys[id].Bounds()
	found, err := o.tree.Delete(mbr, id)
	if err != nil {
		return geom.Rect{}, fmt.Errorf("core: removing obstacle %d: %w", id, err)
	}
	if !found {
		return geom.Rect{}, fmt.Errorf("core: obstacle %d missing from index", id)
	}
	if o.dead == nil {
		o.dead = make([]bool, len(o.polys))
		o.ownDead = true
	}
	o.ensureDead()
	o.dead[id] = true
	o.ensureFree()
	o.free = append(o.free, id)
	atomic.AddUint64(&o.gen, 1)
	return mbr, nil
}

// Result is one entity qualified by a query, with its obstructed distance.
type Result struct {
	ID   int64
	Pt   geom.Point
	Dist float64
}

// JoinPair is one pair qualified by a join or closest-pair query.
type JoinPair struct {
	SID, TID int64
	Dist     float64 // obstructed distance between the pair
}

// Stats describes the work one query performed; the experiment harness
// aggregates it across workloads.
type Stats struct {
	// Candidates is the number of Euclidean candidates examined.
	Candidates int
	// Results is the number of qualifying answers.
	Results int
	// FalseHits counts Euclidean candidates eliminated by the obstructed
	// metric (for kNN: Euclidean kNNs absent from the obstructed kNN set).
	FalseHits int
	// GraphNodes and GraphEdges describe the (largest) visibility graph
	// the query worked on; GraphEdges counts materialised edges, those at
	// the nodes some search expanded (adjacency is lazy), not the full
	// visibility graph's. With the engine's graph cache enabled these count
	// the shared cached graph — whose obstacles and adjacency accrete across
	// queries — not a per-query local graph, so they are history-dependent
	// there.
	GraphNodes, GraphEdges int
	// DistComputations counts invocations of the obstructed distance
	// computation (Fig 8).
	DistComputations int
	// SettledNodes, Expansions, GraphBuilds and Sweeps are this query's own
	// visibility-graph work (settled nodes, searches, graph constructions,
	// per-node visibility passes) — per-query counters, valid under
	// concurrency, unlike the engine-wide cumulative Metrics.
	SettledNodes, Expansions, GraphBuilds, Sweeps uint64
	// IO is this query's R-tree page traffic across the obstacle tree and
	// every dataset tree it touched (PhysicalReads are the paper's "page
	// accesses").
	IO pagefile.Stats
	// ObstReads is the obstacle tree's share of IO.PhysicalReads, split by
	// the caller that read.
	ObstReads ObstacleReads
}

// ObstacleReads splits a query's obstacle-tree page accesses by caller.
type ObstacleReads struct {
	// PointQuery is InsideObstacle: ONN's check of its query point, and a
	// field's buried check of a point outside the disk it has scanned.
	PointQuery uint64
	// Scan is a field's opening range query: the initial obstacle range of
	// Figs 5, 7 and 9, or the segment to each target of a field that grows
	// by ellipses.
	Scan uint64
	// Enlarge is Fig 8's range enlargements, with the one read of the tree's
	// bounds that caps the doubling for a disconnected target.
	Enlarge uint64
}

func (r ObstacleReads) add(o ObstacleReads) ObstacleReads {
	return ObstacleReads{r.PointQuery + o.PointQuery, r.Scan + o.Scan, r.Enlarge + o.Enlarge}
}

// Merge folds another call's counters into st — the one merge rule shared
// by the matrix row loop and a clustering job's range queries. Additive
// fields sum, GraphNodes/GraphEdges track the largest graph seen.
func (st *Stats) Merge(rst Stats) {
	st.Candidates += rst.Candidates
	st.Results += rst.Results
	st.FalseHits += rst.FalseHits
	st.DistComputations += rst.DistComputations
	st.SettledNodes += rst.SettledNodes
	st.Expansions += rst.Expansions
	st.GraphBuilds += rst.GraphBuilds
	st.Sweeps += rst.Sweeps
	st.IO = st.IO.Add(rst.IO)
	st.ObstReads = st.ObstReads.add(rst.ObstReads)
	if rst.GraphNodes > st.GraphNodes {
		st.GraphNodes, st.GraphEdges = rst.GraphNodes, rst.GraphEdges
	}
}

// Engine executes obstructed queries against one obstacle dataset. An engine
// holds only shared state — obstacle data, page buffers, the graph cache —
// all safe for concurrent use, so any number of query sessions (NewSession)
// or convenience calls may run against it in parallel.
type Engine struct {
	obstacles *ObstacleSet
	opts      EngineOptions
	// cache, when enabled, retains expanded visibility-graph states for
	// reuse across distance queries and join seeds; see EnableGraphCache.
	cache *GraphCache
}

// EngineOptions tunes query execution.
type EngineOptions struct {
	// NoHilbertSeeds disables the Hilbert ordering of join seeds in
	// DistanceJoin (used by the seed-ordering ablation).
	NoHilbertSeeds bool
}

// DefaultEngineOptions returns the configuration used in the experiments.
func DefaultEngineOptions() EngineOptions {
	return EngineOptions{}
}

// NewEngine returns an Engine over the given obstacles.
func NewEngine(o *ObstacleSet, opts EngineOptions) *Engine {
	return &Engine{obstacles: o, opts: opts}
}

// Obstacles returns the engine's obstacle set.
func (e *Engine) Obstacles() *ObstacleSet { return e.obstacles }

// ReplaceObstacles swaps the engine's obstacle set for one rebuilt from disk
// and purges the graph cache, raising its epoch floor to the new set's
// generation — the in-place recovery path, which reconstructs the obstacle
// tree from the recovered file rather than mutating the live set. The caller
// must hold the database update lock (no obstacle mutation or new default
// session may race the swap); sessions already pinned to an older snapshot
// keep their own ObstacleSet reference and are unaffected, but their cached
// graphs are discarded — they rebuild query-local graphs, trading warmth for
// not serving graph state whose backing pages were rebuilt underneath it.
func (e *Engine) ReplaceObstacles(o *ObstacleSet) {
	e.obstacles = o
	if e.cache != nil {
		e.cache.Reset(o.Generation())
	}
}
