package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/visgraph"
)

// GraphCache is a small LRU of expanded visibility-graph states, keyed by
// the disk of obstacle space each graph incorporates. Batch queries whose
// initial range falls inside a cached disk reuse that graph (growing it in
// place when the enlargement loop demands more), so workloads with spatial
// locality — pair and batch distances around nearby sources, the rows of a
// distance matrix, Hilbert-ordered join seeds — skip most graph
// construction. Entity and terminal nodes are removed after each query;
// cached graphs hold obstacle vertices only.
//
// The cache is safe for concurrent sessions: the entry list and traffic
// counters sit behind one mutex, and each entry carries its own lock held
// for the duration of a query's use, so queries on disjoint regions run in
// parallel while queries sharing a warm graph serialize on just that entry.
//
// The cache is multi-version: every entry records the obstacle-epoch range
// it is valid for ([epochLo, dead)), and InvalidateRegion bounds that range
// instead of discarding the graph, so sessions pinned to an older snapshot
// keep their warm graphs while newer epochs build fresh ones. Obstacle
// mutations may therefore run concurrently with cached queries.
type GraphCache struct {
	e   *Engine
	mu  sync.Mutex // guards entries, epoch bounds, and stats
	cap int
	// epoch is the newest obstacle generation the cache has seen; only
	// sessions at this epoch publish new entries.
	epoch uint64
	// entries are kept in recency order, most recent first.
	entries []*cacheEntry
	stats   CacheStats
}

// errStaleEpoch reports that a session's pinned obstacle epoch is older than
// the cache's current epoch, so the cache can neither publish nor (when no
// warm entry matched) serve it; callers fall back to a query-local graph.
var errStaleEpoch = fmt.Errorf("core: graph cache is ahead of the session's obstacle epoch")

// deadNever is the dead bound of an entry valid for every future epoch.
const deadNever = ^uint64(0)

type cacheEntry struct {
	// held is a capacity-1 channel lock, held while a session uses or grows
	// the graph; entries are published already held, so a concurrent hit
	// blocks until the graph is actually built. A channel (not a mutex) so
	// that a canceled query waiting behind a long-running one can give up
	// promptly instead of parking until the holder finishes.
	held chan struct{}
	g    *visgraph.Graph
	// The graph incorporates every obstacle intersecting the disk
	// (center, coverage()). center and base are immutable after creation;
	// coverage is read lock-free during candidate scans (it only grows).
	center geom.Point
	// base is the radius the entry was built with; growth is capped at
	// growLimit*base so a walk of spatially advancing queries cannot
	// ratchet one entry into a permanently retained near-global graph.
	base     float64
	searched atomic.Uint64 // Float64bits of the covered radius

	// Epoch validity bounds, guarded by the cache mutex: the graph's content
	// reflects obstacle epoch epochLo (raised when a grow pulls in a newer
	// annulus) and is valid for sessions whose epoch e satisfies
	// epochLo <= e < dead. InvalidateRegion sets dead instead of discarding
	// the entry, so older snapshots keep using it.
	epochLo, dead uint64
	// growTarget is the high-water radius an in-flight grow is scanning
	// toward, registered under the cache mutex before the scan so a
	// concurrent InvalidateRegion tests the disk the graph is about to
	// cover, not just the coverage already recorded.
	growTarget float64
}

func (en *cacheEntry) coverage() float64     { return math.Float64frombits(en.searched.Load()) }
func (en *cacheEntry) setCoverage(r float64) { en.searched.Store(math.Float64bits(r)) }

// lock acquires exclusive use of the entry, abandoning the wait when ctx is
// canceled.
func (en *cacheEntry) lock(s *Session) error {
	select {
	case en.held <- struct{}{}:
		return nil
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

func (en *cacheEntry) unlock() { <-en.held }

// release detaches the holding session's hooks from the cached graph before
// unlocking: a long-lived entry must not pin a finished session (and the
// request context its interrupt closure captures) until the next acquire.
func (en *cacheEntry) release() {
	if en.g != nil {
		en.g.Retarget(nil, nil)
	}
	en.unlock()
}

// growLimit bounds how far an entry may expand beyond its original build
// radius before queries stop reusing it and build a fresh local graph.
const growLimit = 4

// CacheStats counts graph-cache traffic.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	// Invalidations counts entries whose validity was epoch-bounded because
	// an obstacle update touched their coverage disk (see InvalidateRegion).
	Invalidations uint64
}

// HitRate returns Hits over (Hits + Misses), or 0 with no traffic.
func (cs CacheStats) HitRate() float64 {
	total := cs.Hits + cs.Misses
	if total == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(total)
}

// NewGraphCacheAt returns a cache of at most capacity expanded graphs over
// e's obstacle set, starting at the given obstacle epoch: the set's current
// generation for the engine's own cache, a snapshot session's epoch for its
// call-local cache, so its own epoch counts as current.
func NewGraphCacheAt(e *Engine, capacity int, epoch uint64) *GraphCache {
	if capacity < 1 {
		capacity = 1
	}
	return &GraphCache{e: e, cap: capacity, epoch: epoch}
}

// EnableGraphCache attaches a graph cache of the given capacity to the
// engine: ObstructedDistance, BatchDistances and DistanceJoin reuse expanded
// graph states across calls. Capacity <= 0 detaches the cache. Not safe to
// call while queries are in flight; configure the engine before serving.
func (e *Engine) EnableGraphCache(capacity int) {
	if capacity <= 0 {
		e.cache = nil
		return
	}
	e.cache = NewGraphCacheAt(e, capacity, e.obstacles.Generation())
}

// GraphCacheStats returns the engine cache's traffic counters (zero when the
// cache is disabled).
func (e *Engine) GraphCacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	return e.cache.stats
}

// acquire returns a cached entry whose disk contains the disk (source, r0),
// growing a nearby entry or building a fresh one if none does. The entry is
// returned with its lock held; the caller must restore the graph to an
// obstacles-only state and unlock. The second return is the radius around
// source the entry's graph is guaranteed to cover.
func (c *GraphCache) acquire(s *Session, source geom.Point, r0 float64) (*cacheEntry, float64, error) {
	if err := s.err(); err != nil {
		return nil, 0, err
	}
	c.mu.Lock()
	if s.epoch > c.epoch {
		// The obstacle generation moved past every invalidation the cache
		// saw (a mutation that changed no region); adopt it so this epoch's
		// sessions publish normally.
		c.epoch = s.epoch
	}
	best := -1
	for i, en := range c.entries {
		// Reuse only entries valid at the session's obstacle epoch, whose
		// coverage already contains the source (growing a distant graph
		// would pull in obstacles the query never needs), and whose grown
		// radius stays within growLimit of the entry's original scale (so
		// reuse never inflates a local graph into a global one).
		if s.epoch < en.epochLo || s.epoch >= en.dead {
			continue
		}
		d := en.center.Dist(source)
		if d <= en.coverage() && d+r0 <= max(en.coverage(), growLimit*en.base) {
			if best < 0 || d < c.entries[best].center.Dist(source) {
				best = i
			}
		}
	}
	if best >= 0 {
		en := c.entries[best]
		copy(c.entries[1:best+1], c.entries[:best])
		c.entries[0] = en
		c.stats.Hits++
		c.mu.Unlock()
		// Wait for exclusive use outside the cache lock, so a long-running
		// query on one entry never blocks hits on other entries; a canceled
		// waiter gives up with ctx.Err() instead of parking behind the
		// holder.
		if err := en.lock(s); err != nil {
			return nil, 0, err
		}
		c.mu.Lock()
		valid := s.epoch >= en.epochLo && s.epoch < en.dead
		c.mu.Unlock()
		if en.g == nil || !valid {
			// Either the publishing session failed to build the graph (and
			// dropped the entry), or a holder we waited behind re-grew it at
			// an incompatible epoch; start over — the rescan cannot match it
			// again. Undo the hit count so one logical acquire scores once.
			en.unlock()
			c.mu.Lock()
			c.stats.Hits--
			c.mu.Unlock()
			return c.acquire(s, source, r0)
		}
		en.g.Retarget(s.metricsHook())
		off := en.center.Dist(source)
		if en.coverage()-off < r0 {
			if err := en.grow(c, s, off+r0); err != nil {
				en.release()
				return nil, 0, err
			}
		}
		return en, en.coverage() - off, nil
	}
	if s.epoch < c.epoch {
		// An old-epoch session found no warm graph; it must not publish one
		// built from its older obstacle view into the shared list.
		c.mu.Unlock()
		return nil, 0, errStaleEpoch
	}
	c.stats.Misses++
	// Publish the entry locked and build its graph outside the cache lock:
	// concurrent queries for the same region block on the entry (and then
	// find the built graph) instead of duplicating the build or stalling
	// the whole cache.
	en := &cacheEntry{center: source, base: r0, held: make(chan struct{}, 1), epochLo: s.epoch, dead: deadNever}
	en.setCoverage(r0)
	en.held <- struct{}{} // uncontended: not yet published
	c.entries = append([]*cacheEntry{en}, c.entries...)
	if len(c.entries) > c.cap {
		c.entries = c.entries[:c.cap]
		c.stats.Evictions++
	}
	c.mu.Unlock()
	obs, err := s.relevantObstacles(disk(source, r0))
	if err != nil {
		c.drop(en)
		en.unlock()
		return nil, 0, err
	}
	en.g = s.buildGraph(obs)
	return en, r0, nil
}

// metricsHook returns the session's work counter and interrupt hook, the
// arguments Retarget takes.
func (s *Session) metricsHook() (*visgraph.Metrics, func() bool) {
	return &s.met, s.interrupted
}

// grow extends the entry's coverage disk to the given radius around its own
// center (enlargements requested around other points are translated to the
// entry center so coverage stays a single disk). The caller holds the
// entry's channel lock (en.held, via acquire).
//
// The annulus is scanned through the growing session's obstacle view, so the
// grown graph reflects that session's epoch: epochLo rises to it, and when
// the cache has already moved past that epoch the entry's validity is pinned
// to exactly this epoch (newer epochs may have changed the annulus without
// ever touching the entry's previously recorded disk). growTarget is
// registered under the cache mutex before the scan so a concurrent
// InvalidateRegion bounds the entry if the mutation lands inside the disk
// being grown into.
func (en *cacheEntry) grow(c *GraphCache, s *Session, radius float64) error {
	if radius <= en.coverage() {
		return nil
	}
	c.mu.Lock()
	en.epochLo = s.epoch
	if c.epoch > s.epoch && en.dead > s.epoch+1 {
		en.dead = s.epoch + 1
	}
	if radius > en.growTarget {
		en.growTarget = radius
	}
	c.mu.Unlock()
	if _, err := s.addObstaclesWithin(en.g, disk(en.center, radius)); err != nil {
		return err
	}
	en.setCoverage(radius)
	return nil
}

// InvalidateRegion epoch-bounds every cached graph whose coverage disk (or
// the disk an in-flight grow is scanning toward) intersects r — the MBR of
// an added or removed obstacle. The caller must have already bumped the
// obstacle set's generation: entries touching r become invalid for sessions
// at the new generation, while sessions pinned to older epochs keep using
// them — their snapshot of the obstacle set genuinely matches the cached
// graph. Entries elsewhere survive at every epoch: their graphs never
// incorporated (and were never required to incorporate) an obstacle outside
// their disk, so an update that does not touch the disk cannot change any
// distance they produce.
//
// Safe to run concurrently with queries; superseded entries age out of the
// LRU once no old-epoch session hits them. It returns the number of entries
// epoch-bounded.
func (c *GraphCache) InvalidateRegion(r geom.Rect) int {
	epoch := c.e.obstacles.Generation()
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.epoch = epoch
	}
	bounded := 0
	for _, en := range c.entries {
		if en.dead <= epoch {
			continue // already invalid at (or before) this epoch
		}
		if r.IntersectsCircle(en.center, max(en.coverage(), en.growTarget)) {
			en.dead = epoch
			bounded++
			c.stats.Invalidations++
		}
	}
	return bounded
}

// InvalidateObstacleRegion tells the engine's graph cache (when enabled)
// that the obstacle set changed inside r; cached graphs covering r stop
// serving the new obstacle generation (older pinned readers keep them), the
// rest keep serving every epoch.
func (e *Engine) InvalidateObstacleRegion(r geom.Rect) int {
	if e.cache == nil {
		return 0
	}
	return e.cache.InvalidateRegion(r)
}

// Reset discards every cached graph and raises the cache's epoch floor to
// epoch. Unlike InvalidateRegion, nothing survives for older pinned sessions:
// Reset is for recovery swaps, where the obstacle set itself was rebuilt and
// no cached graph — whatever epoch range it claimed — should outlive the old
// storage generation. Entries held by in-flight queries stay usable by their
// holder (the entry is self-contained) and are simply never found again.
func (c *GraphCache) Reset(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.epoch = epoch
	}
	c.stats.Evictions += uint64(len(c.entries))
	c.entries = nil
}

// drop removes an entry from the cache.
func (c *GraphCache) drop(en *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e == en {
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			c.stats.Evictions++
			return
		}
	}
}
