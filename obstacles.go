package obstacles

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pagefile"
	"repro/internal/rtree"
	"repro/internal/telemetry"
)

// Options configures a Database.
type Options struct {
	// PageSize is the R-tree node/page size in bytes (default 4096, the
	// paper's setting; 8192 reproduces the paper's fanout of ~204 with
	// 8-byte coordinates).
	PageSize int
	// BufferFraction sizes each tree's LRU buffer as a fraction of its
	// pages (default 0.10, the paper's setting).
	BufferFraction float64
	// WALCheckpointBytes is the write-ahead-log size at which a durable
	// database (see Open) checkpoints automatically after a commit (default
	// 4 MiB; negative disables auto-checkpointing, leaving the WAL to grow
	// until an explicit Checkpoint or Close). Ignored by in-memory
	// databases.
	WALCheckpointBytes int64
	// TraceSampleRate, in [0, 1], is the probability a normal (neither
	// failed nor slow) query's trace is retained by the flight recorder
	// behind /debug/traces. Error traces and traces at or over 250ms are
	// always retained. 0 disables sampling; queries are then only traced
	// when the caller's context already carries a span.
	TraceSampleRate float64
	// AutoRecover starts a background supervisor on a durable database (see
	// Open) that, whenever a durable-commit failure puts the handle in
	// degraded mode, retries in-place recovery under capped exponential
	// backoff with jitter until mutations flow again. While degraded, reads
	// keep serving the last published generation and mutations fail fast
	// with a *DegradedError. Ignored by in-memory databases.
	AutoRecover bool
	// RecoverBackoff is the supervisor's initial retry delay (default
	// 500ms). It doubles per failed attempt, capped at 60 times itself (30s
	// at the default). Each scheduled retry is jittered on [backoff/2,
	// backoff]. A negative value is rejected.
	RecoverBackoff time.Duration
	// Chaos, when non-nil, arms a programmable fault injector across the
	// whole durable path of an Open database: page reads/writes and data
	// fsyncs on the data file, writes and fsyncs on the write-ahead log.
	// Faults, fault windows and latency are programmed on the injector
	// (see pagefile.Injector and pagefile.ParseFaultSpec); injected errors
	// flow through the same poison/degrade/recover machinery as real device
	// failures. For crash drills and tests; ignored by in-memory databases.
	Chaos *pagefile.Injector
}

// DefaultOptions returns the configuration used in the paper's experiments.
func DefaultOptions() Options {
	return Options{PageSize: pagefile.DefaultPageSize, BufferFraction: 0.10}
}

// validate rejects out-of-range option values with a descriptive error.
// Zero values mean "use the default" and pass.
func (o Options) validate() error {
	if o.PageSize < 0 {
		return fmt.Errorf("obstacles: Options.PageSize %d is negative; use 0 for the default (%d)", o.PageSize, pagefile.DefaultPageSize)
	}
	// Written to reject NaN too: NaN fails every comparison, so a plain
	// range check would wave it through into the buffer sizing.
	if o.BufferFraction != 0 && !(o.BufferFraction > 0 && o.BufferFraction <= 1) {
		return fmt.Errorf("obstacles: Options.BufferFraction %g out of range (0, 1]; use 0 for the default (0.10)", o.BufferFraction)
	}
	if o.TraceSampleRate != 0 && !(o.TraceSampleRate > 0 && o.TraceSampleRate <= 1) {
		return fmt.Errorf("obstacles: Options.TraceSampleRate %g out of range [0, 1]", o.TraceSampleRate)
	}
	if o.RecoverBackoff < 0 {
		return fmt.Errorf("obstacles: Options.RecoverBackoff %v is negative; use 0 for the default (500ms)", o.RecoverBackoff)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = pagefile.DefaultPageSize
	}
	if o.BufferFraction == 0 {
		o.BufferFraction = 0.10
	}
	if o.WALCheckpointBytes == 0 {
		o.WALCheckpointBytes = 4 << 20
	}
	if o.RecoverBackoff == 0 {
		o.RecoverBackoff = 500 * time.Millisecond
	}
	return o
}

func (o Options) treeOptions() rtree.Options {
	return rtree.Options{PageSize: o.PageSize}
}

// Neighbor is one entity returned by a range or nearest-neighbor query.
type Neighbor struct {
	// ID is the entity's index in the dataset it was added with.
	ID int64
	// Point is the entity's location.
	Point Point
	// Distance is the obstructed distance from the query point.
	Distance float64
}

// Pair is one pair returned by a join or closest-pair query.
type Pair struct {
	// ID1 and ID2 index the first and second dataset of the query.
	ID1, ID2 int64
	// Distance is the obstructed distance between the two entities.
	Distance float64
}

// Unreachable is the distance reported when no obstacle-avoiding path
// exists (an entity sealed off by obstacles, or strictly inside one).
// Batch distances report it per target, and clustering assigns such
// entities NoiseCluster: a sealed-off point can belong to no ε-neighborhood
// and no medoid can serve it, so it becomes a noise singleton rather than
// poisoning a cluster's cost.
var Unreachable = math.Inf(1)

// Database holds one obstacle set and any number of named point datasets,
// all indexed by R-trees over simulated disk pages with LRU buffers. It is
// safe for concurrent use: any number of goroutines may query it in
// parallel (sharing the warm page buffers; each query builds its own local
// visibility graphs), and AddDataset may run alongside queries on other
// datasets. Every query verb takes a context whose cancellation aborts the
// query promptly with ctx.Err(), and accepts functional options (WithStats,
// WithLimit, WithFilter, WithPairFilter).
//
// Points and obstacles can be mutated in place (InsertPoints, DeletePoints,
// AddObstacles, RemoveObstacles). The database is multi-versioned: mutators
// copy-on-write only the pages they touch and publish a new immutable
// generation atomically, so readers never block writers and writers never
// wait for readers to drain. Every read — a one-shot verb, a Nearest/Closest
// stream, or an explicit Snapshot handle — pins the generation current when
// it starts and answers from it alone, entirely before or entirely after any
// update, for as long as it runs.
type Database struct {
	// reader supplies every read verb (see reader.go), each pinning the
	// generation current when its call starts.
	reader

	opts    Options
	engine  *core.Engine
	obstSet *core.ObstacleSet

	mu       sync.RWMutex
	datasets map[string]*core.PointSet

	// updateMu serializes mutators (and the checkpointer, and deferred page
	// frees) against each other. Queries do not take it: the read path pins
	// an immutable published version instead.
	updateMu sync.RWMutex
	// gen counts committed mutations; each published version carries the
	// value at its publish.
	gen atomic.Uint64

	// versions is the multi-version read head: the current published
	// version, the refcounts of pinned generations, and COW pages whose
	// free is deferred until the snapshots that can still read them close.
	versions versionTable

	// store is the durable backend (nil for in-memory databases built by
	// NewDatabase). When set, every mutator commits through the write-ahead
	// log before returning; see Open.
	store *durableStore

	// tel is the database's telemetry (see metrics.go), created with the
	// handle.
	tel *dbMetrics

	// Recovery-supervisor lifecycle (nil channels unless Options.AutoRecover
	// started one); see recovery.go.
	recoverStop     chan struct{}
	recoverDone     chan struct{}
	recoverStopOnce sync.Once
}

// dbVersion is one immutable published generation: sealed views of the
// obstacle set and every dataset, sharing all untouched pages with newer
// generations. Readers holding a pin on it answer from these views alone.
type dbVersion struct {
	gen      uint64
	obst     *core.ObstacleSet
	datasets map[string]*core.PointSet
}

// dataset resolves a sealed dataset view by name.
func (v *dbVersion) dataset(name string) (*core.PointSet, error) {
	ps, ok := v.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	return ps, nil
}

// pendingFree is a batch of COW-retired pages that cannot be freed yet: a
// reader pinned to a generation older than limit may still walk them. They
// free once every pin older than limit releases.
type pendingFree struct {
	limit uint64
	pf    *pagefile.File
	ids   []pagefile.PageID
}

// versionTable is the refcounted generation table behind the read head.
type versionTable struct {
	mu      sync.Mutex
	current *dbVersion
	// pins counts open readers per pinned generation.
	pins map[uint64]int
	// snapshots counts open explicit Snapshot handles (a subset of the
	// pins), reported by the obstacles_snapshots_open gauge.
	snapshots int
	// pending holds retired pages awaiting the release of older pins.
	pending []pendingFree
}

// minPinLocked returns the oldest pinned generation (max uint64 when no
// reader is pinned). Caller holds vt.mu.
func (vt *versionTable) minPinLocked() uint64 {
	min := ^uint64(0)
	for g := range vt.pins {
		if g < min {
			min = g
		}
	}
	return min
}

// takeFreeableLocked removes and returns every pending batch no live pin can
// still read. Caller holds vt.mu.
func (vt *versionTable) takeFreeableLocked() []pendingFree {
	minPin := vt.minPinLocked()
	var frees []pendingFree
	kept := vt.pending[:0]
	for _, p := range vt.pending {
		if p.limit <= minPin {
			frees = append(frees, p)
		} else {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(vt.pending); i++ {
		vt.pending[i] = pendingFree{}
	}
	vt.pending = kept
	return frees
}

// pinnedPages returns the number of retired pages kept alive for open pins
// (the obstacles_snapshot_pinned_pages gauge).
func (vt *versionTable) pinnedPages() int {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	n := 0
	for _, p := range vt.pending {
		n += len(p.ids)
	}
	return n
}

// pin returns the current version with a pin held on its generation; the
// caller must db.unpin(v) when done reading.
func (db *Database) pin() *dbVersion {
	vt := &db.versions
	vt.mu.Lock()
	v := vt.current
	vt.pins[v.gen]++
	vt.mu.Unlock()
	return v
}

// published returns the read head without pinning it.
func (db *Database) published() *dbVersion {
	db.versions.mu.Lock()
	defer db.versions.mu.Unlock()
	return db.versions.current
}

// unpin releases a pin taken by pin. When the release unblocks deferred
// page frees (the last reader of an old generation closing), they are
// processed here, under the update lock, so they ride the next commit.
func (db *Database) unpin(v *dbVersion) {
	vt := &db.versions
	vt.mu.Lock()
	if vt.pins[v.gen]--; vt.pins[v.gen] <= 0 {
		delete(vt.pins, v.gen)
	}
	frees := vt.takeFreeableLocked()
	vt.mu.Unlock()
	if len(frees) == 0 {
		return
	}
	db.updateMu.Lock()
	defer db.updateMu.Unlock()
	freeBatches(frees)
}

func freeBatches(frees []pendingFree) {
	for _, p := range frees {
		for _, id := range p.ids {
			// Free only fails on ids the file never allocated; retired ids
			// came straight from the tree's allocator.
			_ = p.pf.Free(id)
		}
	}
}

// trees lists the R-trees of the live sets: the obstacle set's two, then
// every dataset's.
func (db *Database) trees() []*rtree.Tree {
	db.mu.RLock()
	defer db.mu.RUnlock()
	trees := db.obstSet.Trees()
	for _, ps := range db.datasets {
		trees = append(trees, ps.Tree())
	}
	return trees
}

// initVersions switches every live set to copy-on-write mutation, publishes
// the initial version and points the read verbs at the version table. Called
// once construction (or durable attach) completes, before the database is
// handed out.
func (db *Database) initVersions() {
	db.versions.pins = make(map[uint64]int)
	db.reader = reader{
		db:      db,
		acquire: func() (*dbVersion, error) { return db.pin(), nil },
		release: db.unpin,
	}
	db.obstSet.EnableCOW()
	for _, ps := range db.datasets {
		ps.EnableCOW()
	}
	db.publishVersion()
}

// publishVersion seals the mutated state into a new immutable version and
// installs it as the read head. COW pages the mutation retired are freed at
// once when no older reader is pinned, and deferred into the version table
// otherwise. Runs under updateMu (deferred by every mutator, after the
// generation bump and before the commit is staged, so frees reach the same
// commit as the mutation).
func (db *Database) publishVersion() {
	db.mu.RLock()
	ds := make(map[string]*core.PointSet, len(db.datasets))
	for name, ps := range db.datasets {
		ds[name] = ps.Seal()
	}
	db.mu.RUnlock()
	v := &dbVersion{gen: db.gen.Load(), obst: db.obstSet.Seal(), datasets: ds}
	vt := &db.versions
	vt.mu.Lock()
	vt.current = v
	for _, t := range db.trees() {
		ids := t.TakeRetired()
		if len(ids) > 0 {
			vt.pending = append(vt.pending, pendingFree{limit: v.gen, pf: t.PageFile(), ids: ids})
		}
	}
	frees := vt.takeFreeableLocked()
	vt.mu.Unlock()
	freeBatches(frees) // already under updateMu
}

// ErrInvalidPolygon is the typed error wrapped by AddObstacles and
// NewDatabase when an obstacle polygon is structurally unusable: fewer than
// three vertices (the zero Polygon, or one bypassing NewPolygon) or a
// degenerate area (collinear vertices), which would index an invisible
// sliver that can never block a segment yet still costs every query.
var ErrInvalidPolygon = errors.New("obstacles: invalid obstacle polygon")

// ErrInvalidArgument is the typed error wrapped when an argument is out of
// range for the verb (for Cluster: a non-positive Eps, K below 1, an unknown
// algorithm; for DeletePoints and RemoveObstacles: the same id twice) — the
// caller's mistake, as opposed to an engine failure.
var ErrInvalidArgument = errors.New("obstacles: invalid argument")

// ErrUnknownDataset is the typed error wrapped when a verb or mutator names a
// dataset that does not exist (at the generation a read verb answers from).
var ErrUnknownDataset = errors.New("obstacles: unknown dataset")

// ErrDatasetExists is the typed error wrapped by AddDataset when the name is
// already taken.
var ErrDatasetExists = errors.New("obstacles: dataset already exists")

// ErrNotFound is the typed error wrapped by DeletePoints and RemoveObstacles
// when an id names no live entity or obstacle.
var ErrNotFound = errors.New("obstacles: not found")

// finite reports whether both coordinates of p are finite numbers.
func finite(p Point) bool {
	return math.Abs(p.X) <= math.MaxFloat64 && math.Abs(p.Y) <= math.MaxFloat64
}

// validatePoints rejects non-finite entities with a typed error: a NaN
// point would rank first in every nearest-neighbour answer, and no tree
// search could find it again to delete it.
func validatePoints(pts []Point) error {
	for i, p := range pts {
		if !finite(p) {
			return fmt.Errorf("%w: point %d is %v; coordinates must be finite", ErrInvalidArgument, i, p)
		}
	}
	return nil
}

// validatePolygons rejects degenerate or non-finite obstacles with a typed
// error instead of silently indexing them.
func validatePolygons(polys []Polygon) error {
	for i, pg := range polys {
		if pg.NumVertices() < 3 {
			return fmt.Errorf("%w: obstacle %d has %d vertices; build it with NewPolygon", ErrInvalidPolygon, i, pg.NumVertices())
		}
		for _, v := range pg.Vertices() {
			if !finite(v) {
				return fmt.Errorf("%w: obstacle %d has vertex %v; coordinates must be finite", ErrInvalidPolygon, i, v)
			}
		}
		if !(pg.Area() > geom.Eps) {
			return fmt.Errorf("%w: obstacle %d has degenerate area %g", ErrInvalidPolygon, i, pg.Area())
		}
	}
	return nil
}

// checkIDs validates a removal batch before any of it runs: every id must
// name a live item, and none may repeat.
func checkIDs(what string, ids []int64, alive func(int64) bool) error {
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if !alive(id) {
			return fmt.Errorf("%w: no live %s has id %d", ErrNotFound, what, id)
		}
		if seen[id] {
			return fmt.Errorf("%w: duplicate id %d in the batch", ErrInvalidArgument, id)
		}
		seen[id] = true
	}
	return nil
}

// NewDatabase builds a database over polygonal obstacles; they may touch
// and may overlap (the visibility test is exact for both). Out-of-range
// option values are rejected with an error (zero values select the
// defaults), as are degenerate polygons (ErrInvalidPolygon).
func NewDatabase(polys []Polygon, opts Options) (*Database, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := validatePolygons(polys); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	obstSet, err := core.NewObstacleSet(opts.treeOptions(), polys, true)
	if err != nil {
		return nil, fmt.Errorf("obstacles: building obstacle index: %w", err)
	}
	sizeBuffer(opts.BufferFraction, obstSet.Trees()...)
	db := &Database{
		opts:     opts,
		engine:   core.NewEngine(obstSet, core.DefaultEngineOptions()),
		obstSet:  obstSet,
		datasets: make(map[string]*core.PointSet),
	}
	db.initVersions()
	db.tel = newDBMetrics(db)
	return db, nil
}

// NewDatabaseFromRects builds a database with rectangular obstacles, the
// shape of the paper's street-MBR evaluation dataset.
func NewDatabaseFromRects(rects []Rect, opts Options) (*Database, error) {
	polys := make([]Polygon, len(rects))
	for i, r := range rects {
		if r.IsEmpty() {
			return nil, fmt.Errorf("obstacles: obstacle %d is empty", i)
		}
		polys[i] = RectPolygon(r)
	}
	return NewDatabase(polys, opts)
}

// sizeBuffer sizes each tree's LRU buffer to fraction of its own pages.
func sizeBuffer(fraction float64, trees ...*rtree.Tree) {
	for _, t := range trees {
		pages := max(1, int(math.Ceil(float64(t.NumPages())*fraction)))
		// SetBufferPages only errors on write-back failures, impossible while
		// shrinking a read-only tree's clean buffer.
		_ = t.PageFile().SetBufferPages(pages)
	}
}

// treeOptions returns the R-tree configuration for this database's trees;
// durable databases route all trees through the shared transactional
// storage so every node page lives in the one data file.
func (db *Database) treeOptions() rtree.Options {
	o := db.opts.treeOptions()
	if db.store != nil {
		o.Storage = db.store.tx
	}
	return o
}

// mutate is the one commit protocol every mutator runs; its steps are
// order-sensitive:
//
//  1. Take updateMu (mutators serialize; queries never take it) and fail
//     fast when the handle is degraded: degraded reads must keep answering
//     exactly the last published generation.
//  2. prepare (optional) validates the call against the live sets and does
//     any work that can still fail without a trace. An error here rejects the
//     mutation with no effect: no generation bump, no new version, no commit.
//  3. apply changes the live sets. Even when it fails part-way the sets have
//     moved, so the generation is bumped, the new version is published
//     (before staging, so the COW pages it frees reach this commit's catalog)
//     and the commit is staged into the group-commit queue — all still under
//     updateMu, which is what makes queue order = sequence order = WAL order.
//  4. Release updateMu, then park on the staged ticket until a committer's
//     shared fsync acknowledges it, and checkpoint if the WAL has grown past
//     its threshold. In-memory databases stage nothing and skip this.
//  5. Count the mutation once it is acknowledged.
//
// ctx is consulted for trace propagation only: a span it carries records the
// commit stages (stage, park, and — when this mutator leads its fsync batch —
// wal-append and fsync) as children. The mutation runs to completion once
// started.
func (db *Database) mutate(ctx context.Context, op string, prepare, apply func() error) error {
	var tk *commitTicket
	err := func() error {
		db.updateMu.Lock()
		defer db.updateMu.Unlock()
		if err := db.degradedCheckLocked(); err != nil {
			return err
		}
		if prepare != nil {
			if err := prepare(); err != nil {
				return err
			}
		}
		err := apply()
		db.gen.Add(1)
		db.publishVersion()
		if db.store != nil {
			var stageErr error
			if tk, stageErr = db.stageCommitLocked(telemetry.SpanFromContext(ctx)); err == nil {
				err = stageErr
			}
		}
		return err
	}()
	if tk != nil {
		if ackErr := db.awaitCommit(tk); err == nil {
			err = ackErr
		}
	}
	if err == nil {
		db.tel.mutations[op].Inc()
	}
	return err
}

// AddDataset indexes a named point dataset. Entity i gets ID int64(i);
// later InsertPoints/DeletePoints calls may make the id space sparse and
// reuse freed ids. For an in-memory database the dataset is built outside
// any lock and becomes visible to queries atomically when the new version
// publishes; queries proceed concurrently throughout. A durable database
// (Open) instead serializes the build with other mutators, so the pages it
// allocates commit atomically with the catalog record that names them.
func (db *Database) AddDataset(name string, pts []Point) error {
	return db.AddDatasetContext(context.Background(), name, pts)
}

// AddDatasetContext is AddDataset with a caller context, consulted for trace
// propagation only (see mutate).
func (db *Database) AddDatasetContext(ctx context.Context, name string, pts []Point) error {
	errExists := fmt.Errorf("%w: %q", ErrDatasetExists, name)
	if db.HasDataset(name) {
		return errExists
	}
	if err := validatePoints(pts); err != nil {
		return err
	}
	var ps *core.PointSet
	build := func() (err error) {
		if ps, err = core.NewPointSet(db.treeOptions(), pts, true); err != nil {
			return fmt.Errorf("obstacles: building dataset %q: %w", name, err)
		}
		sizeBuffer(db.opts.BufferFraction, ps.Tree())
		return nil
	}
	if db.store == nil {
		if err := build(); err != nil {
			return err
		}
	}
	return db.mutate(ctx, OpAddDataset, func() error {
		// Adds serialize here, so no racing add can slip past this re-check.
		if db.HasDataset(name) {
			return errExists
		}
		if db.store == nil {
			return nil
		}
		err := build()
		if err != nil {
			// A failed durable build frees every page it allocated —
			// otherwise the orphaned tree pages would be committed into the
			// file with nothing referencing them, a permanent leak. Every
			// page dirtied since the last stage belongs to this build
			// (mutators stage before releasing updateMu), so freeing the
			// dirty set rolls the allocation back; the next commit records
			// the free list that results.
			for _, w := range db.store.tx.CaptureDirty() {
				_ = db.store.tx.Free(w.ID)
			}
		}
		return err
	}, func() error {
		db.mu.Lock()
		ps.EnableCOW()
		db.datasets[name] = ps
		db.mu.Unlock()
		return nil
	})
}

// HasDataset reports whether the published version, which the next read
// verb reads, has the named dataset. It takes no pin: AddDataset calls it
// under the update lock, which releasing a pin may take to free pages.
func (db *Database) HasDataset(name string) bool {
	_, ok := db.published().datasets[name]
	return ok
}

func (db *Database) dataset(name string) (*core.PointSet, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ps, ok := db.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownDataset, name)
	}
	return ps, nil
}

// InsertPoints adds entities to an existing dataset and returns their
// assigned ids. Ids freed by DeletePoints are reused before the id space
// grows, so sustained churn keeps ids (and the page file) bounded. The
// insert copies only the tree pages it touches and publishes a new version
// atomically: in-flight queries and open streams keep answering from the
// generation they pinned, unaffected. On a durable
// database the insert reaches the write-ahead log (fsynced) before
// returning; concurrent mutators stage their commits while holding the
// update lock but share fsyncs after releasing it, so N parallel inserts
// cost far fewer than N fsyncs (see Open).
func (db *Database) InsertPoints(name string, pts ...Point) ([]int64, error) {
	return db.InsertPointsContext(context.Background(), name, pts...)
}

// InsertPointsContext is InsertPoints with a caller context, consulted for
// trace propagation only (see mutate).
func (db *Database) InsertPointsContext(ctx context.Context, name string, pts ...Point) (ids []int64, err error) {
	ps, err := db.dataset(name)
	if err != nil {
		return nil, err
	}
	if err := validatePoints(pts); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, nil
	}
	err = db.mutate(ctx, OpInsertPoints, func() (err error) {
		// Re-resolve under the lock: in-place recovery swaps the dataset map,
		// and a write into a pre-swap tree would land on a detached overlay
		// and be silently lost.
		ps, err = db.dataset(name)
		return err
	}, func() (err error) {
		ps.BeginEpoch()
		if ids, err = ps.Insert(pts); err != nil {
			return err
		}
		sizeBuffer(db.opts.BufferFraction, ps.Tree())
		return nil
	})
	return ids, err
}

// DeletePoints removes entities from a dataset by id (the ids returned by
// AddDataset ordering or InsertPoints). All ids are validated before any is
// removed, so an unknown id fails the whole call with no partial effect.
// Deleted ids may be reused by later inserts.
func (db *Database) DeletePoints(name string, ids ...int64) error {
	return db.DeletePointsContext(context.Background(), name, ids...)
}

// DeletePointsContext is DeletePoints with a caller context, consulted for
// trace propagation only (see mutate).
func (db *Database) DeletePointsContext(ctx context.Context, name string, ids ...int64) error {
	ps, err := db.dataset(name)
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	return db.mutate(ctx, OpDeletePoints, func() (err error) {
		// Re-resolve under the lock (see InsertPointsContext).
		if ps, err = db.dataset(name); err != nil {
			return err
		}
		return checkIDs(fmt.Sprintf("entity of dataset %q", name), ids, ps.Alive)
	}, func() error {
		ps.BeginEpoch()
		for _, id := range ids {
			if err := ps.Delete(id); err != nil {
				return err
			}
		}
		sizeBuffer(db.opts.BufferFraction, ps.Tree())
		return nil
	})
}

// AddObstacles indexes new obstacles and returns their assigned ids (ids
// freed by RemoveObstacles are reused). Degenerate polygons — fewer than
// three vertices or a collinear (zero-area) outline — are rejected up
// front with ErrInvalidPolygon and no partial effect. The update never
// waits for queries: it copies only the pages it touches and publishes the
// new obstacle set atomically, as a new generation: in-flight queries keep
// the one they pinned.
func (db *Database) AddObstacles(polys ...Polygon) ([]int64, error) {
	return db.AddObstaclesContext(context.Background(), polys...)
}

// AddObstaclesContext is AddObstacles with a caller context, consulted for
// trace propagation only (see mutate).
func (db *Database) AddObstaclesContext(ctx context.Context, polys ...Polygon) (ids []int64, err error) {
	if err := validatePolygons(polys); err != nil {
		return nil, err
	}
	if len(polys) == 0 {
		return nil, nil
	}
	err = db.mutate(ctx, OpAddObstacles, nil, func() (err error) {
		db.obstSet.BeginEpoch()
		ids, err = db.obstSet.Add(polys)
		if err != nil {
			return err
		}
		sizeBuffer(db.opts.BufferFraction, db.obstSet.Trees()...)
		return nil
	})
	return ids, err
}

// AddObstacleRects is AddObstacles for rectangular obstacles (the paper's
// street-MBR shape).
func (db *Database) AddObstacleRects(rects ...Rect) ([]int64, error) {
	return db.AddObstacleRectsContext(context.Background(), rects...)
}

// AddObstacleRectsContext is AddObstacleRects with a caller context,
// consulted for trace propagation only (see mutate).
func (db *Database) AddObstacleRectsContext(ctx context.Context, rects ...Rect) ([]int64, error) {
	polys := make([]Polygon, len(rects))
	for i, r := range rects {
		if r.IsEmpty() {
			return nil, fmt.Errorf("obstacles: obstacle rect %d is empty", i)
		}
		polys[i] = RectPolygon(r)
	}
	return db.AddObstaclesContext(ctx, polys...)
}

// RemoveObstacles deletes obstacles by id (initial obstacles are numbered in
// NewDatabase order; AddObstacles returns the ids it assigned). All ids are
// validated before any is removed. As with AddObstacles, readers pinned to
// the old generation keep it.
func (db *Database) RemoveObstacles(ids ...int64) error {
	return db.RemoveObstaclesContext(context.Background(), ids...)
}

// RemoveObstaclesContext is RemoveObstacles with a caller context, consulted
// for trace propagation only (see mutate).
func (db *Database) RemoveObstaclesContext(ctx context.Context, ids ...int64) error {
	if len(ids) == 0 {
		return nil
	}
	return db.mutate(ctx, OpRemoveObstacles, func() error {
		return checkIDs("obstacle", ids, db.obstSet.Alive)
	}, func() error {
		db.obstSet.BeginEpoch()
		for _, id := range ids {
			if _, err := db.obstSet.Remove(id); err != nil {
				return err
			}
		}
		sizeBuffer(db.opts.BufferFraction, db.obstSet.Trees()...)
		return nil
	})
}
