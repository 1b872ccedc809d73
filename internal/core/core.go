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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/rtree"
)

// boxed is an item a table can index: anything with a bounding rectangle.
type boxed interface{ Bounds() geom.Rect }

// table is the store under both datasets: items indexed by an R-tree on
// their bounds, addressed by dense int64 ids (the index into items). It is
// mutable in place, but mutation is not safe against concurrent readers:
// callers must exclude in-flight queries (the public Database does this
// with its update lock).
type table[T boxed] struct {
	noun  string // "entity" or "obstacle", for errors
	tree  *rtree.Tree
	items []T
	// dead marks deleted ids (aligned with items); nil until the first
	// delete.
	dead []bool
	// free lists dead ids available for reuse, so sustained churn keeps the
	// id space (and the items slice) bounded instead of growing forever.
	free []int64

	// Copy-on-write state (EnableCOW): with cow set, a mutation epoch never
	// writes an element a sealed view can read. Appends are always safe —
	// sealed slice headers end before the appended index — but the first
	// in-place write of an epoch clones the whole array; the own* flags
	// record which arrays are already private to the current epoch. A pop
	// only shortens the free list's header; the push after it clones, since
	// it rewrites an index the sealed header still covers.
	cow                        bool
	ownItems, ownDead, ownFree bool
}

// newTable indexes a copy of xs. Bulk loading (STR) is used when bulk is
// true; otherwise items are inserted one by one (rtree.Tree.Insert).
func newTable[T boxed](noun string, opts rtree.Options, xs []T, bulk bool) (table[T], error) {
	items := make([]T, len(xs))
	copy(items, xs)
	var t *rtree.Tree
	var err error
	if bulk {
		ri := make([]rtree.Item, len(items))
		for i, x := range items {
			ri[i] = rtree.Item{Rect: x.Bounds(), Data: int64(i)}
		}
		t, err = rtree.BulkLoad(opts, ri, rtree.STR)
	} else if t, err = rtree.New(opts); err == nil {
		for i, x := range items {
			if err = t.Insert(x.Bounds(), int64(i)); err != nil {
				break
			}
		}
	}
	if err != nil {
		return table[T]{}, err
	}
	return table[T]{noun: noun, tree: t, items: items}, nil
}

// attach returns a table around a tree recovered from durable storage:
// items spans the id space, and every id not marked live becomes dead and
// reusable.
func attach[T boxed](noun string, t *rtree.Tree, items []T, live []bool) table[T] {
	tb := table[T]{noun: noun, tree: t, items: items}
	for id := int64(len(items)) - 1; id >= 0; id-- {
		if !live[id] {
			if tb.dead == nil {
				tb.dead = make([]bool, len(items))
			}
			tb.dead[id] = true
			// Descending append means the lowest free id is popped first,
			// matching the reader-friendly "reuse small ids" tendency.
			tb.free = append(tb.free, id)
		}
	}
	return tb
}

// maxAttachSlack bounds how far a catalog's id bound may exceed the live
// item count. Ids are reused before the id space grows, so the bound never
// legitimately exceeds the historical maximum live count; the slack keeps
// a corrupted (or hostile) catalog from turning `make` into a panic or a
// multi-terabyte allocation before the tree scan can cross-check anything.
const maxAttachSlack = 1 << 24

// scanLeaves reads every leaf entry of a tree recovered from durable
// storage: the bounds under which each id in [0, idBound) is indexed, and
// which ids have a leaf at all.
func scanLeaves(noun string, t *rtree.Tree, idBound int64) ([]geom.Rect, []bool, error) {
	if n := int64(t.Len()); idBound < n || idBound > n+maxAttachSlack {
		return nil, nil, fmt.Errorf("core: %s id bound %d does not fit the tree's %d items", noun, idBound, n)
	}
	items, err := t.All()
	if err != nil {
		return nil, nil, fmt.Errorf("core: scanning %s tree: %w", noun, err)
	}
	if len(items) != t.Len() {
		return nil, nil, fmt.Errorf("core: %s tree scan found %d items, tree says %d", noun, len(items), t.Len())
	}
	rects := make([]geom.Rect, idBound)
	live := make([]bool, idBound)
	for _, it := range items {
		id := it.Data
		if id < 0 || id >= idBound {
			return nil, nil, fmt.Errorf("core: %s tree has id %d outside [0, %d)", noun, id, idBound)
		}
		if live[id] {
			return nil, nil, fmt.Errorf("core: %s tree has duplicate id %d", noun, id)
		}
		rects[id], live[id] = it.Rect, true
	}
	return rects, live, nil
}

// Check cross-checks the table against its tree in O(pages): the tree's
// structural invariants, then the leaf scan an attach runs, which must find
// exactly the live ids, each once and under its item's bounds.
func (tb *table[T]) Check() error {
	if err := tb.tree.CheckInvariants(); err != nil {
		return fmt.Errorf("core: %s tree: %w", tb.noun, err)
	}
	rects, live, err := scanLeaves(tb.noun, tb.tree, tb.IDBound())
	if err != nil {
		return err
	}
	for id := range live {
		if alive := tb.Alive(int64(id)); live[id] != alive {
			return fmt.Errorf("core: %s %d: live in the table: %v, in the tree: %v", tb.noun, id, alive, live[id])
		}
		if live[id] && rects[id] != tb.items[id].Bounds() {
			return fmt.Errorf("core: %s %d is indexed under %v, its bounds are %v", tb.noun, id, rects[id], tb.items[id].Bounds())
		}
	}
	return nil
}

// EnableCOW switches the set (and its tree) to copy-on-write mutation, so
// sealed views stay consistent while the set mutates.
func (tb *table[T]) EnableCOW() {
	tb.cow = true
	tb.tree.EnableCOW()
}

// BeginEpoch starts a mutation epoch: the current arrays are considered
// published (a Seal may have captured them) and clone on first in-place
// write.
func (tb *table[T]) BeginEpoch() {
	if tb.cow {
		tb.ownItems, tb.ownDead, tb.ownFree = false, false, false
		tb.tree.BeginEpoch()
	}
}

// sealed returns a frozen copy sharing the current arrays (whose covered
// elements no later epoch rewrites) over a pinned tree view.
func (tb *table[T]) sealed() table[T] {
	cp := *tb
	cp.tree = tb.tree.View()
	cp.cow = false
	return cp
}

// own makes *s private to the current epoch before its first in-place
// write.
func own[E any](cow bool, s *[]E, owned *bool) {
	if cow && !*owned {
		*s = append([]E(nil), *s...)
		*owned = true
	}
}

// Tree returns the underlying R-tree.
func (tb *table[T]) Tree() *rtree.Tree { return tb.tree }

// Len returns the number of live items.
func (tb *table[T]) Len() int { return len(tb.items) - len(tb.free) }

// IDBound returns the exclusive upper bound of ids ever assigned. Live ids
// are a subset of [0, IDBound); deleted ids inside the range may be reused
// by later inserts.
func (tb *table[T]) IDBound() int64 { return int64(len(tb.items)) }

// Alive reports whether id refers to a live item.
func (tb *table[T]) Alive(id int64) bool {
	if id < 0 || id >= int64(len(tb.items)) {
		return false
	}
	return tb.dead == nil || !tb.dead[id]
}

// Live appends the ids of all live items to dst in ascending order.
func (tb *table[T]) Live(dst []int64) []int64 {
	for i := range tb.items {
		if tb.dead == nil || !tb.dead[i] {
			dst = append(dst, int64(i))
		}
	}
	return dst
}

// add indexes xs, reusing ids freed by earlier removals before growing the
// id space, and returns the assigned ids. A failed tree insert rolls its
// slot back (dead and reusable) so the table stays consistent with the
// tree.
func (tb *table[T]) add(xs []T) ([]int64, error) {
	ids := make([]int64, 0, len(xs))
	for _, x := range xs {
		var id int64
		if n := len(tb.free); n > 0 {
			own(tb.cow, &tb.items, &tb.ownItems)
			own(tb.cow, &tb.dead, &tb.ownDead)
			id = tb.free[n-1]
			tb.free = tb.free[:n-1]
			tb.items[id] = x
			tb.dead[id] = false
		} else {
			id = int64(len(tb.items))
			tb.items = append(tb.items, x)
			if tb.dead != nil {
				tb.dead = append(tb.dead, false)
			}
		}
		if err := tb.tree.Insert(x.Bounds(), id); err != nil {
			tb.kill(id)
			return ids, fmt.Errorf("core: inserting %s %d: %w", tb.noun, id, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// remove deletes the item with the given id from the tree and returns its
// bounds; the id becomes reusable. It errors when the id is unknown or
// already removed.
func (tb *table[T]) remove(id int64) (geom.Rect, error) {
	if !tb.Alive(id) {
		return geom.Rect{}, fmt.Errorf("core: remove of unknown %s id %d", tb.noun, id)
	}
	r := tb.items[id].Bounds()
	found, err := tb.tree.Delete(r, id)
	if err != nil {
		return geom.Rect{}, fmt.Errorf("core: removing %s %d: %w", tb.noun, id, err)
	}
	if !found {
		return geom.Rect{}, fmt.Errorf("core: %s %d missing from index", tb.noun, id)
	}
	tb.kill(id)
	return r, nil
}

// kill marks id dead and pushes it on the free list.
func (tb *table[T]) kill(id int64) {
	if tb.dead == nil {
		tb.dead = make([]bool, len(tb.items))
		tb.ownDead = true
	}
	own(tb.cow, &tb.dead, &tb.ownDead)
	tb.dead[id] = true
	own(tb.cow, &tb.free, &tb.ownFree)
	tb.free = append(tb.free, id)
}

// PointSet is an entity dataset: a table of points. Insert and Delete
// update it in place; Seal views stay consistent under EnableCOW.
type PointSet struct{ table[geom.Point] }

// NewPointSet indexes pts with an R-tree. Bulk loading (STR) is used when
// bulk is true; otherwise points are inserted one by one (rtree.Tree.Insert).
func NewPointSet(opts rtree.Options, pts []geom.Point, bulk bool) (*PointSet, error) {
	tb, err := newTable("entity", opts, pts, bulk)
	if err != nil {
		return nil, err
	}
	return &PointSet{tb}, nil
}

// AttachPointSet reconstructs a PointSet around a tree whose pages were
// recovered from durable storage. Point coordinates are not serialized
// separately: every leaf entry is a degenerate rectangle plus the entity
// id, so one scan of the tree rebuilds the id -> point table, and the free
// list is the complement of the scanned ids in [0, idBound).
func AttachPointSet(t *rtree.Tree, idBound int64) (*PointSet, error) {
	rects, live, err := scanLeaves("entity", t, idBound)
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Point, idBound)
	for id, r := range rects {
		pts[id] = geom.Pt(r.MinX, r.MinY)
	}
	return &PointSet{attach("entity", t, pts, live)}, nil
}

// Seal returns a frozen read-only view of the set. Len/Alive/Point answer
// as of the seal.
func (s *PointSet) Seal() *PointSet { return &PointSet{s.sealed()} }

// Point returns the location of the entity with the given id.
func (s *PointSet) Point(id int64) geom.Point { return s.items[id] }

// Insert adds points as entities, reusing ids freed by earlier deletions
// before growing the id space, and returns the assigned ids.
func (s *PointSet) Insert(pts []geom.Point) ([]int64, error) { return s.add(pts) }

// Delete removes the entity with the given id; its id becomes reusable by a
// later Insert. It errors when the id is unknown or already deleted.
func (s *PointSet) Delete(id int64) error {
	_, err := s.remove(id)
	return err
}

// ObstacleSet is an obstacle dataset: a table of polygons, indexed by their
// MBRs. Its trees are also its durable store. A rectangle — a polygon whose
// vertices are exactly geom.RectPolygon(bounds) — is its own leaf entry; any
// other polygon also keeps its vertices as point entries of a second tree,
// verts, keyed by vertexKey(id, index). Every Add or Remove bumps the set's
// generation counter, which keys the visibility-graph cache's entries.
type ObstacleSet struct {
	table[geom.Polygon]
	verts *rtree.Tree
	// gen counts mutations. Read atomically (sync/atomic functions on a plain
	// word, so Seal's struct copy stays legal) by sessions that may start
	// outside the writer's critical section.
	gen uint64
}

// vertexKey is the verts entry of vertex i of obstacle id. Ids index an
// in-memory slice, so they stay far below 2^31.
func vertexKey(id int64, i int) int64 { return id<<32 | int64(i) }

// isLeafRect reports whether p is geom.RectPolygon(p.Bounds()) bit for bit,
// so that its leaf entry alone restores it.
func isLeafRect(p geom.Polygon) bool {
	c := p.Bounds().Vertices()
	return sameVertices(p.Vertices(), c[:])
}

// sameVertices compares two vertex lists bit for bit.
func sameVertices(a, b []geom.Point) bool {
	return slices.EqualFunc(a, b, func(p, q geom.Point) bool {
		return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
	})
}

// NewObstacleSet indexes polys by their MBRs.
func NewObstacleSet(opts rtree.Options, polys []geom.Polygon, bulk bool) (*ObstacleSet, error) {
	tb, err := newTable("obstacle", opts, polys, bulk)
	if err != nil {
		return nil, err
	}
	var vs []rtree.Item
	for id, p := range polys {
		if !isLeafRect(p) {
			for i, v := range p.Vertices() {
				vs = append(vs, rtree.PointItem(v, vertexKey(int64(id), i)))
			}
		}
	}
	verts, err := rtree.BulkLoad(opts, vs, rtree.STR)
	if err != nil {
		return nil, err
	}
	return &ObstacleSet{table: tb, verts: verts}, nil
}

// AttachObstacleSet reconstructs an ObstacleSet around its two recovered
// trees, as AttachPointSet does around one: each leaf of t is an obstacle's
// id and MBR, and verts holds the vertices of the obstacles that are not
// their MBR (see polygons). Ids without a leaf inside [0, idBound) become
// the free list; gen restores the mutation counter so generations keep
// increasing across restarts.
func AttachObstacleSet(t, verts *rtree.Tree, idBound int64, gen uint64) (*ObstacleSet, error) {
	rects, live, err := scanLeaves("obstacle", t, idBound)
	if err != nil {
		return nil, err
	}
	items, err := polygons(verts, rects, live)
	if err != nil {
		return nil, err
	}
	return &ObstacleSet{table: attach("obstacle", t, items, live), verts: verts, gen: gen}, nil
}

// polygons rebuilds the obstacle polygons from a leaf scan of the obstacle
// tree (each live id's MBR) and the vertex tree: an obstacle with vertex
// entries is the polygon of those vertices in index order, which must span
// its MBR and must not be a rectangle its leaf restores; any other live
// obstacle is geom.RectPolygon of its MBR.
func polygons(verts *rtree.Tree, rects []geom.Rect, live []bool) ([]geom.Polygon, error) {
	vs, err := verts.All()
	if err != nil {
		return nil, fmt.Errorf("core: scanning vertex tree: %w", err)
	}
	slices.SortFunc(vs, func(a, b rtree.Item) int { return cmp.Compare(a.Data, b.Data) })
	items := make([]geom.Polygon, len(rects))
	for len(vs) > 0 {
		id := vs[0].Data >> 32
		n := 1
		for n < len(vs) && vs[n].Data>>32 == id {
			n++
		}
		ring := make([]geom.Point, n)
		for i, it := range vs[:n] {
			if it.Data != vertexKey(id, i) {
				return nil, fmt.Errorf("core: vertex tree has key %#x where obstacle %d's vertex %d belongs", it.Data, id, i)
			}
			ring[i] = geom.Pt(it.Rect.MinX, it.Rect.MinY)
		}
		vs = vs[n:]
		if id < 0 || id >= int64(len(rects)) || !live[id] {
			return nil, fmt.Errorf("core: vertex tree holds obstacle %d, which has no leaf", id)
		}
		pg, err := geom.NewPolygon(ring)
		switch {
		case err != nil:
			return nil, fmt.Errorf("core: obstacle %d: %w", id, err)
		case pg.Bounds() != rects[id]:
			return nil, fmt.Errorf("core: obstacle %d is indexed under %v, its vertices span %v", id, rects[id], pg.Bounds())
		case isLeafRect(pg):
			return nil, fmt.Errorf("core: vertex tree holds rectangle obstacle %d", id)
		}
		items[id] = pg
	}
	for id, ok := range live {
		if ok && items[id].NumVertices() == 0 {
			items[id] = geom.RectPolygon(rects[id])
		}
	}
	return items, nil
}

// Trees returns the set's R-trees, the obstacle index first and the vertex
// tree second, for callers that handle every page of the set: buffer
// sizing, write-back, backup and scrub.
func (o *ObstacleSet) Trees() []*rtree.Tree { return []*rtree.Tree{o.tree, o.verts} }

// EnableCOW switches both trees to copy-on-write mutation.
func (o *ObstacleSet) EnableCOW() {
	o.table.EnableCOW()
	o.verts.EnableCOW()
}

// BeginEpoch starts a mutation epoch on both trees.
func (o *ObstacleSet) BeginEpoch() {
	o.table.BeginEpoch()
	if o.cow {
		o.verts.BeginEpoch()
	}
}

// Check is table.Check plus the vertex tree: its own invariants, then the
// rebuild an attach runs, which must give back every live polygon bit for
// bit.
func (o *ObstacleSet) Check() error {
	if err := o.table.Check(); err != nil {
		return err
	}
	if err := o.verts.CheckInvariants(); err != nil {
		return fmt.Errorf("core: vertex tree: %w", err)
	}
	rects := make([]geom.Rect, len(o.items))
	live := make([]bool, len(o.items))
	ids := o.Live(nil)
	for _, id := range ids {
		rects[id], live[id] = o.items[id].Bounds(), true
	}
	polys, err := polygons(o.verts, rects, live)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if !sameVertices(polys[id].Vertices(), o.items[id].Vertices()) {
			return fmt.Errorf("core: the trees give obstacle %d as %v, the table has %v", id, polys[id].Vertices(), o.items[id].Vertices())
		}
	}
	return nil
}

// Seal returns a frozen read-only view of the obstacle set at its current
// generation.
func (o *ObstacleSet) Seal() *ObstacleSet {
	cp := *o
	cp.table = o.sealed()
	cp.verts = o.verts.View()
	return &cp
}

// Polygon returns the obstacle with the given id.
func (o *ObstacleSet) Polygon(id int64) geom.Polygon { return o.items[id] }

// Generation returns the mutation counter: it increases on every Add or
// Remove, so two views at one generation hold the same obstacles and a
// visibility graph built at one generation serves exactly that generation.
func (o *ObstacleSet) Generation() uint64 { return atomic.LoadUint64(&o.gen) }

// Add indexes new obstacles, reusing ids freed by earlier removals, and
// returns the assigned ids. The generation moves on, so cached graphs of the
// old one no longer match new sessions. A polygon whose vertices fail to
// index is taken out again, with every obstacle added after it.
func (o *ObstacleSet) Add(polys []geom.Polygon) ([]int64, error) {
	ids, err := o.add(polys)
	for i, id := range ids {
		if verr := o.vertices(id, polys[i], o.verts.Insert); verr != nil {
			// The inserted vertices are a prefix: dropping stops at the first
			// one that is missing.
			_ = o.vertices(id, polys[i], o.dropVertex)
			for _, undo := range ids[i:] {
				_, _ = o.remove(undo)
			}
			ids, err = ids[:i], verr
			break
		}
	}
	if err != nil || len(ids) > 0 {
		atomic.AddUint64(&o.gen, 1)
	}
	return ids, err
}

// Remove deletes the obstacle with the given id and returns its MBR. The id
// becomes reusable, and the generation moves on as in Add.
func (o *ObstacleSet) Remove(id int64) (geom.Rect, error) {
	mbr, err := o.remove(id)
	if err != nil {
		return mbr, err
	}
	atomic.AddUint64(&o.gen, 1)
	// remove leaves the dead item in place.
	return mbr, o.vertices(id, o.items[id], o.dropVertex)
}

// dropVertex deletes one vertex-tree entry, which must be there.
func (o *ObstacleSet) dropVertex(r geom.Rect, key int64) error {
	found, err := o.verts.Delete(r, key)
	if err == nil && !found {
		err = fmt.Errorf("missing from the vertex tree")
	}
	return err
}

// vertices runs op on the vertex-tree entries of obstacle id, polygon p —
// none for a rectangle, which its leaf restores.
func (o *ObstacleSet) vertices(id int64, p geom.Polygon, op func(geom.Rect, int64) error) error {
	if isLeafRect(p) {
		return nil
	}
	for i, v := range p.Vertices() {
		if err := op(geom.PointRect(v), vertexKey(id, i)); err != nil {
			return fmt.Errorf("core: vertex %d of obstacle %d: %w", i, id, err)
		}
	}
	return nil
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
	// SettledNodes, Expansions, GraphBuilds, Sweeps and Walks are this
	// query's own visibility-graph work (see visgraph.Metrics) — per-query
	// counters, valid under concurrency, unlike the engine-wide Metrics.
	SettledNodes, Expansions, GraphBuilds, Sweeps, Walks uint64
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
	// PointQuery is InsideObstacle: a field's buried check of a point
	// outside the disk it has scanned.
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

// Merge folds another call's counters into st, as the experiment driver
// totals a figure's queries. Additive fields sum, GraphNodes/GraphEdges
// track the largest graph seen.
func (st *Stats) Merge(rst Stats) {
	st.Candidates += rst.Candidates
	st.Results += rst.Results
	st.FalseHits += rst.FalseHits
	st.DistComputations += rst.DistComputations
	st.SettledNodes += rst.SettledNodes
	st.Expansions += rst.Expansions
	st.GraphBuilds += rst.GraphBuilds
	st.Sweeps += rst.Sweeps
	st.Walks += rst.Walks
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
	// cache, when enabled, retains expanded visibility-graph states for
	// reuse across distances and batches; see EnableGraphCache.
	cache *GraphCache
}

// EngineOptions has no fields; NewEngine still takes it for its callers.
type EngineOptions struct{}

// DefaultEngineOptions returns the configuration used in the experiments.
func DefaultEngineOptions() EngineOptions {
	return EngineOptions{}
}

// NewEngine returns an Engine over the given obstacles.
func NewEngine(o *ObstacleSet, _ EngineOptions) *Engine {
	return &Engine{obstacles: o}
}

// Obstacles returns the engine's obstacle set.
func (e *Engine) Obstacles() *ObstacleSet { return e.obstacles }

// ReplaceObstacles swaps the engine's obstacle set for one rebuilt from disk
// — the in-place recovery path, which reconstructs the obstacle tree from the
// recovered file rather than mutating the live set. The caller must hold the
// database update lock (no obstacle mutation or new default session may race
// the swap) and give o a generation above every one published before, so no
// cached graph of the old set is ever matched again; sessions already pinned
// to an older snapshot keep their own ObstacleSet reference and are
// unaffected.
func (e *Engine) ReplaceObstacles(o *ObstacleSet) {
	e.obstacles = o
}
