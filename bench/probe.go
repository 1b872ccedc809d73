package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/rtree"
	"repro/internal/visgraph"
	"repro/internal/wal"
)

// probeMax bounds how many requests of a prefix are probed; they are taken at
// an even stride over the prefix's queries.
const probeMax = 200

// prober re-executes, on the benchmark's own R-trees, the steps the engine
// takes for a query: the obstacle range search, the candidate retrieval, the
// visibility-graph build, terminal insertion and the Dijkstra expansion. The
// probes follow the paper's algorithms (OR Fig 5, ONN Fig 9, ODJ Fig 10, OCP
// Fig 11) one graph per seed, without the engine's graph cache, so they are
// unit costs of the layers below core, not a second engine.
type prober struct {
	obst, p, q *rtree.Tree
	polys      map[int64]geom.Polygon
	pPts, qPts map[int64]geom.Point
	ids        []int64 // by list entry: the id given to an insert or add
	nextPoint  int64
	nextObst   int64
	rec        *recorder

	// Accumulators; "probed" counts sampled requests.
	probed                 float64
	coreNs, rtreeNs, visNs float64 // over sampled requests
	searchNs, searches     float64
	nearestNs, nearestN    float64
	joinNs, joinN          float64
	closestNs, closestN    float64
	insertNs, insertN      float64
	deleteNs, deleteN      float64
	cowCopies              float64
	logicalReads           float64
	builds, buildNs        float64
	vertices, edges        float64
	allocs, allocBytes     float64
	terminalNs, terminals  float64
	dijkstraNs             float64
	met                    visgraph.Metrics
	segs                   [][2]geom.Point // geometry inputs for microProbes
	blockers               []geom.Polygon
}

func bulk(items []rtree.Item) (*rtree.Tree, error) {
	t, err := rtree.BulkLoad(rtree.Options{}, items, rtree.STR)
	if err != nil {
		return nil, err
	}
	return t, sizeBuffer(t)
}

func newProber(w *world, n int, rec *recorder) (*prober, error) {
	pr := &prober{
		polys: map[int64]geom.Polygon{}, pPts: map[int64]geom.Point{}, qPts: map[int64]geom.Point{},
		ids: make([]int64, n), rec: rec,
		nextPoint: int64(len(w.P)), nextObst: int64(len(w.Polys)),
	}
	items := make([]rtree.Item, len(w.Polys))
	for i, pg := range w.Polys {
		items[i] = rtree.Item{Rect: pg.Bounds(), Data: int64(i)}
		pr.polys[int64(i)] = pg
	}
	var err error
	if pr.obst, err = bulk(items); err != nil {
		return nil, err
	}
	points := func(pts []geom.Point, byID map[int64]geom.Point) (*rtree.Tree, error) {
		items := make([]rtree.Item, len(pts))
		for i, p := range pts {
			items[i] = rtree.PointItem(p, int64(i))
			byID[int64(i)] = p
		}
		return bulk(items)
	}
	if pr.p, err = points(w.P, pr.pPts); err != nil {
		return nil, err
	}
	if pr.q, err = points(w.Q, pr.qPts); err != nil {
		return nil, err
	}
	// Mutations are measured the way Database makes them: copy-on-write, one
	// epoch per operation.
	pr.p.EnableCOW()
	pr.obst.EnableCOW()
	return pr, nil
}

// mutate applies a write to the prober's own trees the way Database does, one
// copy-on-write epoch per operation, and times point inserts and deletes as
// the rtree layer's write cost.
func (pr *prober) mutate(i int, q request) error {
	epoch := func(t *rtree.Tree, op func() (bool, error)) (time.Duration, error) {
		start := time.Now()
		t.BeginEpoch()
		found, err := op()
		d := time.Since(start)
		if err == nil && !found {
			err = fmt.Errorf("not in the probe's tree")
		}
		for _, id := range t.TakeRetired() {
			if err == nil {
				err = t.PageFile().Free(id)
			}
		}
		return d, err
	}
	switch q.Verb {
	case vInsert:
		id := pr.nextPoint
		pr.nextPoint++
		pr.ids[i], pr.pPts[id] = id, q.A
		before := pr.p.COWCopies()
		d, err := epoch(pr.p, func() (bool, error) { return true, pr.p.InsertPoint(q.A, id) })
		pr.insertNs += float64(d.Nanoseconds())
		pr.insertN++
		pr.cowCopies += float64(pr.p.COWCopies() - before)
		return err
	case vDelete:
		id := pr.ids[q.Ref]
		d, err := epoch(pr.p, func() (bool, error) { return pr.p.Delete(geom.PointRect(pr.pPts[id]), id) })
		pr.deleteNs += float64(d.Nanoseconds())
		pr.deleteN++
		delete(pr.pPts, id)
		return err
	case vAddObstacle:
		id := pr.nextObst
		pr.nextObst++
		pr.ids[i], pr.polys[id] = id, geom.RectPolygon(obstacleRect(q))
		_, err := epoch(pr.obst, func() (bool, error) { return true, pr.obst.Insert(obstacleRect(q), id) })
		return err
	case vRemoveObstacle:
		id := pr.ids[q.Ref]
		_, err := epoch(pr.obst, func() (bool, error) { return pr.obst.Delete(pr.polys[id].Bounds(), id) })
		delete(pr.polys, id)
		return err
	}
	return nil
}

// cost is what one probed request spent below core, by layer.
type cost struct {
	rtree, vis time.Duration
	// charged is false when the engine answered from a cached graph: the probe
	// still has to construct a graph to run Dijkstra on, but construction is
	// then not part of what the request cost.
	charged bool
}

// search returns the obstacles intersecting the disk (center, radius) that g
// (nil for none yet) does not hold: the filter and refinement steps every
// algorithm of the paper starts with.
func (pr *prober) search(c *cost, center geom.Point, radius float64, g *visgraph.Graph) ([]visgraph.Obstacle, error) {
	var io pagefile.Stats
	var obs []visgraph.Obstacle
	start := time.Now()
	err := pr.obst.Counted(&io).SearchCircle(center, radius, func(it rtree.Item) bool {
		if g != nil && g.HasObstacle(it.Data) {
			return true
		}
		if pg := pr.polys[it.Data]; pg.IntersectsCircle(center, radius) {
			obs = append(obs, visgraph.Obstacle{ID: it.Data, Poly: pg})
		}
		return true
	})
	d := time.Since(start)
	c.rtree += d
	pr.searchNs += float64(d.Nanoseconds())
	pr.searches++
	pr.logicalReads += float64(io.LogicalReads)
	return obs, err
}

// build constructs the visibility graph of obs, counting its size and
// allocations.
func (pr *prober) build(c *cost, center geom.Point, obs []visgraph.Obstacle) *visgraph.Graph {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	g := visgraph.Build(visgraph.Options{UseSweep: true, Metrics: &pr.met}, obs)
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	pr.builds++
	pr.vertices += float64(g.NumNodes())
	pr.edges += float64(g.NumEdges())
	pr.allocs += float64(m1.Mallocs - m0.Mallocs)
	pr.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	if c.charged {
		c.vis += d
		pr.buildNs += float64(d.Nanoseconds())
	}
	if len(pr.segs) < 4096 {
		for _, ob := range obs {
			pr.blockers = append(pr.blockers, ob.Poly)
			pr.segs = append(pr.segs, [2]geom.Point{center, ob.Poly.Vertex(0)})
		}
	}
	return g
}

// node adds an entity or a terminal to g.
func (pr *prober) node(c *cost, g *visgraph.Graph, p geom.Point, entity bool) visgraph.NodeID {
	start := time.Now()
	var id visgraph.NodeID
	if entity {
		id = g.AddEntity(p)
	} else {
		id = g.AddTerminal(p)
	}
	d := time.Since(start)
	c.vis += d
	pr.terminalNs += float64(d.Nanoseconds())
	pr.terminals++
	return id
}

func (pr *prober) dijkstra(c *cost, run func()) {
	start := time.Now()
	run()
	d := time.Since(start)
	c.vis += d
	pr.dijkstraNs += float64(d.Nanoseconds())
}

// settle is compute_obstructed_distance (Fig 8): the distance between two
// nodes is provisional until a search as wide as the distance finds no
// obstacle the graph lacks. Growing the graph counts as graph construction.
func (pr *prober) settle(c *cost, g *visgraph.Graph, from, to visgraph.NodeID, center geom.Point, searched float64) (float64, error) {
	for {
		var d float64
		pr.dijkstra(c, func() { d = g.ObstructedDist(from, to) })
		if math.IsInf(d, 1) || d <= searched {
			// Unreachable targets do not occur on the benchmark's lists; the
			// engine's doubling search for them is not re-executed.
			return d, nil
		}
		obs, err := pr.search(c, center, d, g)
		if err != nil {
			return 0, err
		}
		searched = d
		start := time.Now()
		added := g.AddObstacles(obs)
		if grow := time.Since(start); c.charged {
			c.vis += grow
			pr.buildNs += float64(grow.Nanoseconds())
		}
		if added == 0 {
			return d, nil
		}
	}
}

// candidates times a candidate retrieval on the point trees.
func (pr *prober) candidates(c *cost, run func(io *pagefile.Stats) error) (time.Duration, error) {
	var io pagefile.Stats
	start := time.Now()
	err := run(&io)
	d := time.Since(start)
	c.rtree += d
	pr.logicalReads += float64(io.LogicalReads)
	return d, err
}

// probe re-executes one query below core and records what it spent as one
// "rtree" and one "visgraph" span under the query's core span. reach is the
// largest distance the query returned.
func (pr *prober) probe(i, parent int, q request, reach float64, coreNs int64, engineBuilt bool) error {
	c := &cost{charged: engineBuilt || q.Verb != vDistance}
	begin := time.Now()
	var err error
	switch q.Verb {
	case vRange:
		err = pr.probeRange(c, q.A, q.R, func(io *pagefile.Stats, add func(geom.Point)) error {
			return pr.p.Counted(io).SearchCircle(q.A, q.R, func(it rtree.Item) bool {
				add(it.Rect.Center())
				return true
			})
		})
	case vNearest:
		err = pr.probeNearest(c, q.A, q.K)
	case vDistance, vPath:
		err = pr.probePair(c, q.A, q.B, q.Verb == vPath)
	case vJoin:
		err = pr.probeJoin(c, q.R)
	case vClosest:
		err = pr.probeClosest(c, q.K)
	}
	pr.probed++
	pr.coreNs += float64(coreNs)
	pr.rtreeNs += float64(c.rtree.Nanoseconds())
	pr.visNs += float64(c.vis.Nanoseconds())
	pr.rec.add("rtree", i, parent, begin, c.rtree)
	pr.rec.add("visgraph", i, parent, begin.Add(c.rtree), c.vis)
	return err
}

// probeRange is OR (Fig 5): candidates and obstacles by two range searches,
// one graph, one bounded expansion. It also serves each seed of a join.
func (pr *prober) probeRange(c *cost, q geom.Point, radius float64, find func(io *pagefile.Stats, add func(geom.Point)) error) error {
	var cands []geom.Point
	if _, err := pr.candidates(c, func(io *pagefile.Stats) error {
		return find(io, func(p geom.Point) { cands = append(cands, p) })
	}); err != nil {
		return err
	}
	obs, err := pr.search(c, q, radius, nil)
	if err != nil || len(cands) == 0 {
		return err
	}
	g := pr.build(c, q, obs)
	for _, p := range cands {
		pr.node(c, g, p, true)
	}
	nq := pr.node(c, g, q, false)
	pr.dijkstra(c, func() { g.Expand(nq, radius, func(visgraph.NodeID, float64) bool { return true }) })
	return nil
}

// probeNearest is ONN (Fig 9): Euclidean neighbours in ascending order, each
// settled on one graph that grows as needed, until the next one lies beyond
// the k-th obstructed distance.
func (pr *prober) probeNearest(c *cost, q geom.Point, k int) error {
	var io pagefile.Stats
	it := pr.p.Counted(&io).NearestIterator(q)
	var pulls time.Duration
	next := func() (rtree.Neighbor, bool) {
		start := time.Now()
		nb, ok := it.Next()
		pulls += time.Since(start)
		return nb, ok
	}
	defer func() {
		c.rtree += pulls
		pr.nearestNs += float64(pulls.Nanoseconds())
		pr.nearestN++
		pr.logicalReads += float64(io.LogicalReads)
	}()
	var seed []geom.Point
	searched := 0.0
	for len(seed) < k {
		nb, ok := next()
		if !ok {
			break
		}
		seed = append(seed, nb.Item.Rect.Center())
		searched = nb.Dist
	}
	if err := it.Err(); err != nil || len(seed) == 0 {
		return err
	}
	obs, err := pr.search(c, q, searched, nil)
	if err != nil {
		return err
	}
	g := pr.build(c, q, obs)
	nq := pr.node(c, g, q, false)
	var best []float64 // ascending, at most k
	evaluate := func(p geom.Point) error {
		np := pr.node(c, g, p, false)
		d, err := pr.settle(c, g, np, nq, q, searched)
		g.DeleteEntity(np)
		if err != nil {
			return err
		}
		if d > searched && !math.IsInf(d, 1) {
			searched = d
		}
		if len(best) < k {
			best = append(best, d)
		} else if d < best[k-1] {
			best[k-1] = d
		}
		sort.Float64s(best)
		return nil
	}
	for _, p := range seed {
		if err := evaluate(p); err != nil {
			return err
		}
	}
	for {
		nb, ok := next()
		if !ok || nb.Dist > best[len(best)-1] {
			return it.Err()
		}
		if err := evaluate(nb.Item.Rect.Center()); err != nil {
			return err
		}
	}
}

// probePair is ObstructedDistance and ObstructedPath: the obstacles within
// the Euclidean distance around a (Fig 7), then Fig 8; a path query runs
// Dijkstra once more to extract the route.
func (pr *prober) probePair(c *cost, a, b geom.Point, path bool) error {
	r := a.Dist(b)
	obs, err := pr.search(c, a, r, nil)
	if err != nil {
		return err
	}
	g := pr.build(c, a, obs)
	na := pr.node(c, g, a, false)
	nb := pr.node(c, g, b, false)
	d, err := pr.settle(c, g, nb, na, a, r)
	if err != nil || !path || math.IsInf(d, 1) {
		return err
	}
	pr.dijkstra(c, func() { g.ShortestPath(na, nb) })
	return nil
}

// probeJoin is ODJ (Fig 10): the Euclidean join, then OR's refinement around
// each distinct point of the side with fewer of them.
func (pr *prober) probeJoin(c *cost, e float64) error {
	partners := [2]map[int64][]geom.Point{{}, {}} // by P id, by Q id
	d, err := pr.candidates(c, func(io *pagefile.Stats) error {
		return rtree.JoinDistance(pr.p.Counted(io), pr.q.Counted(io), e, func(a, b rtree.Item) bool {
			partners[0][a.Data] = append(partners[0][a.Data], b.Rect.Center())
			partners[1][b.Data] = append(partners[1][b.Data], a.Rect.Center())
			return true
		})
	})
	pr.joinNs += float64(d.Nanoseconds())
	pr.joinN++
	if err != nil {
		return err
	}
	side, pts := 0, pr.pPts
	if len(partners[1]) < len(partners[0]) {
		side, pts = 1, pr.qPts
	}
	seeds := make([]int64, 0, len(partners[side]))
	for id := range partners[side] {
		seeds = append(seeds, id)
	}
	sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
	for _, id := range seeds {
		err := pr.probeRange(c, pts[id], e, func(_ *pagefile.Stats, add func(geom.Point)) error {
			for _, p := range partners[side][id] {
				add(p)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeClosest is OCP (Fig 11): Euclidean closest pairs in ascending order,
// each settled by Fig 8 on a graph kept while the first point repeats, until
// the next pair lies beyond the k-th obstructed distance.
func (pr *prober) probeClosest(c *cost, k int) error {
	var io pagefile.Stats
	it, err := rtree.NewClosestPairIterator(pr.p.Counted(&io), pr.q.Counted(&io))
	if err != nil {
		return err
	}
	var pulls time.Duration
	defer func() {
		c.rtree += pulls
		pr.closestNs += float64(pulls.Nanoseconds())
		pr.closestN++
		pr.logicalReads += float64(io.LogicalReads)
	}()
	var (
		g        *visgraph.Graph
		seed     geom.Point
		ns       visgraph.NodeID
		searched float64
		best     []float64
	)
	for {
		start := time.Now()
		pn, ok := it.Next()
		pulls += time.Since(start)
		if !ok || (len(best) == k && pn.Dist > best[k-1]) {
			return it.Err()
		}
		a, b := pn.A.Rect.Center(), pn.B.Rect.Center()
		if g == nil || a != seed {
			obs, err := pr.search(c, a, pn.Dist, nil)
			if err != nil {
				return err
			}
			g = pr.build(c, a, obs)
			ns, seed, searched = pr.node(c, g, a, false), a, pn.Dist
		}
		nt := pr.node(c, g, b, false)
		d, err := pr.settle(c, g, nt, ns, a, searched)
		g.DeleteEntity(nt)
		if err != nil {
			return err
		}
		if d > searched && !math.IsInf(d, 1) {
			searched = d
		}
		if len(best) < k {
			best = append(best, d)
		} else if d < best[k-1] {
			best[k-1] = d
		}
		sort.Float64s(best)
	}
}

// replayProbes walks the prefix once more on the prober's own trees: writes
// are applied (and timed), and an even sample of the queries is probed.
func replayProbes(e *env, list []request, rec *recorder, eng *layerRun, notes *engineNotes, db *layerRun) (*prober, error) {
	pr, err := newProber(e.w, len(list), rec)
	if err != nil {
		return nil, err
	}
	queries := 0
	for _, q := range list {
		if !q.Verb.isWrite() {
			queries++
		}
	}
	stride := max((queries+probeMax-1)/probeMax, 1)
	seen := 0
	for i, q := range list {
		if q.Verb.isWrite() {
			if err := pr.mutate(i, q); err != nil {
				return nil, fmt.Errorf("probe entry %d (%s): %w", i, q.Verb, err)
			}
			continue
		}
		if seen++; (seen-1)%stride != 0 {
			continue
		}
		if err := pr.probe(i, eng.ids[i], q, db.reach[i], eng.ns[i], notes.perReq[i].GraphBuilds > 0); err != nil {
			return nil, fmt.Errorf("probe entry %d (%s): %w", i, q.Verb, err)
		}
	}
	return pr, nil
}

func (pr *prober) metrics(m map[string]float64) {
	m["rtree.obstacle_search_us"] = ratio(pr.searchNs, pr.searches) / 1e3
	m["rtree.nearest_us"] = ratio(pr.nearestNs, pr.nearestN) / 1e3
	m["rtree.join_ms"] = ratio(pr.joinNs, pr.joinN) / 1e6
	m["rtree.closest_ms"] = ratio(pr.closestNs, pr.closestN) / 1e6
	m["rtree.insert_us"] = ratio(pr.insertNs, pr.insertN) / 1e3
	m["rtree.delete_us"] = ratio(pr.deleteNs, pr.deleteN) / 1e3
	m["rtree.logical_reads_per_op"] = ratio(pr.logicalReads, pr.probed)
	m["rtree.cow_copies_per_insert"] = ratio(pr.cowCopies, pr.insertN)
	m["visgraph.build_us_per_op"] = ratio(pr.buildNs, pr.probed) / 1e3
	m["visgraph.vertices_per_build"] = ratio(pr.vertices, pr.builds)
	m["visgraph.edges_per_build"] = ratio(pr.edges, pr.builds)
	m["visgraph.add_terminal_us"] = ratio(pr.terminalNs, pr.terminals) / 1e3
	m["visgraph.dijkstra_us_per_op"] = ratio(pr.dijkstraNs, pr.probed) / 1e3
	m["visgraph.settled_per_op"] = ratio(float64(pr.met.SettledNodes), pr.probed)
	m["visgraph.expansions_per_op"] = ratio(float64(pr.met.Expansions), pr.probed)
	m["visgraph.allocs_per_build"] = ratio(pr.allocs, pr.builds)
	m["visgraph.alloc_kb_per_build"] = ratio(pr.allocBytes, pr.builds) / 1024
	m["visgraph.time_share"] = ratio(pr.visNs, pr.coreNs)
	m["bench.probe_coverage"] = ratio(pr.rtreeNs+pr.visNs, pr.coreNs)
}

// microProbes times single calls of the three bottom layers with fixed
// iteration counts: pagefile on the storage kind the workload uses (a
// checksummed FileStorage when durable, MemStorage otherwise), wal with the
// transaction shape churn_durable commits, geom on segments and polygons taken
// from the probe graphs.
func microProbes(spec *workloadSpec, dir string, m map[string]float64, pr *prober) error {
	const pages = 256
	var st pagefile.Storage = pagefile.NewMemStorage(pagefile.DefaultPageSize)
	var fs *pagefile.FileStorage
	if spec.Durable {
		var err error
		if fs, _, _, err = pagefile.OpenFileStorage(filepath.Join(dir, "pages.db"), 0); err != nil {
			return err
		}
		defer fs.Close()
		st = fs
	}
	page := make([]byte, st.PageSize())
	for i := range page {
		page[i] = byte(i * 31)
	}
	ids := make([]pagefile.PageID, pages)
	for i := range ids {
		var err error
		if ids[i], err = st.Allocate(); err != nil {
			return err
		}
	}
	start := time.Now()
	for _, id := range ids {
		if err := st.WritePage(id, page); err != nil {
			return err
		}
	}
	if fs != nil {
		m["pagefile.write_us"] = float64(time.Since(start).Nanoseconds()) / pages / 1e3
		const syncs = 16
		var total time.Duration
		for i := 0; i < syncs; i++ {
			for _, id := range ids[:8] {
				if err := fs.WritePage(id, page); err != nil {
					return err
				}
			}
			s := time.Now()
			if err := fs.Sync(); err != nil {
				return err
			}
			total += time.Since(s)
		}
		m["pagefile.sync_us"] = float64(total.Nanoseconds()) / syncs / 1e3
	}
	const missRounds = 20
	start = time.Now()
	for r := 0; r < missRounds; r++ {
		for _, id := range ids {
			if err := st.ReadPage(id, page); err != nil {
				return err
			}
		}
	}
	m["pagefile.read_miss_us"] = float64(time.Since(start).Nanoseconds()) / (missRounds * pages) / 1e3
	f := pagefile.NewWithStorage(st, 64)
	const hits = 200000
	if _, err := f.Read(ids[0]); err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < hits; i++ {
		if _, err := f.Read(ids[0]); err != nil {
			return err
		}
	}
	m["pagefile.read_hit_ns"] = float64(time.Since(start).Nanoseconds()) / hits

	if spec.Durable {
		// One transaction per append, carrying as many page images as a
		// churn_durable commit logs on average, plus a small catalog delta.
		perTx := max(int(m["obstacles.wal_bytes_per_commit"]/float64(st.PageSize())+0.5), 1)
		log, err := wal.Open(filepath.Join(dir, "probe.wal"))
		if err != nil {
			return err
		}
		defer log.Close()
		const txs = 200
		tx := wal.BatchTx{Delta: make([]byte, 64)}
		for i := 0; i < perTx; i++ {
			tx.Pages = append(tx.Pages, wal.Page{ID: uint32(i + 1), Data: page})
		}
		start = time.Now()
		for i := 0; i < txs; i++ {
			tx.Seq = uint64(i + 1)
			if err := log.AppendGroup([]wal.BatchTx{tx}); err != nil {
				return err
			}
		}
		m["wal.append_group_us"] = float64(time.Since(start).Nanoseconds()) / txs / 1e3
		m["wal.bytes_per_tx"] = float64(log.Size()) / txs
		replayed := 0
		start = time.Now()
		if err := log.Replay(func(wal.Tx) error { replayed++; return nil }); err != nil {
			return err
		}
		if replayed != txs {
			return fmt.Errorf("wal probe: replayed %d of %d transactions", replayed, txs)
		}
		m["wal.replay_ms_per_ktx"] = float64(time.Since(start).Nanoseconds()) / 1e6 / txs * 1000
	}

	if len(pr.segs) == 0 {
		return nil
	}
	const calls = 200000
	sink := 0
	start = time.Now()
	for i := 0; i < calls; i++ {
		s := pr.segs[i%len(pr.segs)]
		if pr.blockers[(i*7)%len(pr.blockers)].BlocksSegment(s[0], s[1]) {
			sink++
		}
	}
	m["geom.blocks_segment_ns"] = float64(time.Since(start).Nanoseconds()) / calls
	start = time.Now()
	for i := 0; i < calls; i++ {
		s, t := pr.segs[i%len(pr.segs)], pr.segs[(i*7+1)%len(pr.segs)]
		sink += geom.Orientation(s[0], s[1], t[1])
	}
	m["geom.orientation_ns"] = float64(time.Since(start).Nanoseconds()) / calls
	start = time.Now()
	for i := 0; i < calls; i++ {
		s, t := pr.segs[i%len(pr.segs)], pr.segs[(i*7+1)%len(pr.segs)]
		if geom.Seg(s[0], s[1]).ProperCross(geom.Seg(t[0], t[1])) {
			sink++
		}
	}
	m["geom.proper_cross_ns"] = float64(time.Since(start).Nanoseconds()) / calls
	geomSink = sink
	return nil
}

// geomSink keeps the predicate loops' results live so they are not optimised
// away.
var geomSink int
