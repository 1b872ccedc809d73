package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/visgraph"
)

// GraphCache is a small LRU of expanded visibility-graph states, keyed by
// the obstacle generation and the disk of obstacle space each graph
// incorporates. Distances and batches whose initial range falls inside a
// cached disk reuse that graph (growing it in place when the enlargement loop
// demands more), so pair and batch distances around nearby sources skip most
// graph construction. A field on an entry is an ordinary field whose hub is
// the entry's center. Every other verb opens query-local fields, as the paper
// does; a distance matrix walks its own one across its points. Entity and
// terminal nodes are removed after each query; cached graphs hold obstacle
// vertices only.
//
// The cache is safe for concurrent sessions: the entry list and traffic
// counters sit behind one mutex, and each entry carries its own lock held
// for the duration of a query's use, so queries on disjoint regions run in
// parallel while queries sharing a warm graph serialize on just that entry.
//
// An entry is a copy of one obstacle generation: it serves only sessions
// reading that generation, and only they grow it, so no obstacle update ever
// has to invalidate one. Entries of superseded generations are never matched
// again and age out of the LRU; a session pinned to an older snapshot keeps
// hitting (and publishing) graphs of its own generation.
type GraphCache struct {
	mu  sync.Mutex // guards entries and stats
	cap int
	// entries are kept in recency order, most recent first.
	entries []*cacheEntry
	stats   CacheStats
}

type cacheEntry struct {
	// held is a capacity-1 channel lock, held while a session uses or grows
	// the graph; entries are published already held, so a concurrent hit
	// blocks until the graph is actually built. A channel (not a mutex) so
	// that a canceled query waiting behind a long-running one can give up
	// promptly instead of parking until the holder finishes.
	held chan struct{}
	g    *visgraph.Graph
	// gen is the obstacle generation the graph was built and is grown at.
	gen uint64
	// The graph incorporates every obstacle intersecting the disk
	// (center, coverage()). center and base are immutable after creation;
	// coverage is read lock-free during candidate scans (it only grows).
	center geom.Point
	// base is the radius the entry was built with; growth is capped at
	// growLimit*base so a walk of spatially advancing queries cannot
	// ratchet one entry into a permanently retained near-global graph.
	base     float64
	searched atomic.Uint64 // Float64bits of the covered radius
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
	// Invalidations is always zero: entries are per obstacle generation and
	// are never invalidated. It stays until the benchmark stops reading it.
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

// EnableGraphCache attaches a graph cache of the given capacity to the
// engine: ObstructedDistance and BatchDistances reuse expanded graph states
// across calls. Capacity <= 0 detaches the cache. Not safe to call while
// queries are in flight; configure the engine before serving.
func (e *Engine) EnableGraphCache(capacity int) {
	e.cache = nil
	if capacity > 0 {
		e.cache = &GraphCache{cap: capacity}
	}
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

// acquire returns a cached entry of the session's obstacle generation whose
// disk contains the disk (source, r0), growing a nearby entry or building a
// fresh one if none does. The entry is returned with its lock held; the
// caller must restore the graph to an obstacles-only state and unlock.
func (c *GraphCache) acquire(s *Session, source geom.Point, r0 float64) (*cacheEntry, error) {
	if err := s.err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	best := -1
	for i, en := range c.entries {
		// Reuse only entries of the session's obstacle generation, whose
		// coverage already contains the source (growing a distant graph
		// would pull in obstacles the query never needs), and whose grown
		// radius stays within growLimit of the entry's original scale (so
		// reuse never inflates a local graph into a global one).
		if en.gen != s.epoch {
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
			return nil, err
		}
		if en.g == nil {
			// The publishing session failed to build the graph and dropped
			// the entry; start over — the rescan cannot match it again.
			// Undo the hit count so one logical acquire scores once.
			en.unlock()
			c.mu.Lock()
			c.stats.Hits--
			c.mu.Unlock()
			return c.acquire(s, source, r0)
		}
		en.g.Retarget(&s.met, s.interrupted)
		if off := en.center.Dist(source); en.coverage()-off < r0 {
			if _, err := s.addObstaclesWithin(en.g, disk(en.center, off+r0)); err != nil {
				en.release()
				return nil, err
			}
			en.setCoverage(off + r0)
		}
		return en, nil
	}
	c.stats.Misses++
	// Publish the entry locked and build its graph outside the cache lock:
	// concurrent queries for the same region block on the entry (and then
	// find the built graph) instead of duplicating the build or stalling
	// the whole cache.
	en := &cacheEntry{center: source, base: r0, held: make(chan struct{}, 1), gen: s.epoch}
	en.setCoverage(r0)
	en.held <- struct{}{} // uncontended: not yet published
	c.entries = append([]*cacheEntry{en}, c.entries...)
	if len(c.entries) > c.cap {
		c.entries = c.entries[:c.cap]
		c.stats.Evictions++
	}
	c.mu.Unlock()
	obs, err := s.relevantObstacles(disk(source, r0), nil)
	if err != nil {
		c.drop(en)
		en.unlock()
		return nil, err
	}
	en.g = s.buildGraph(obs)
	return en, nil
}

// InvalidateObstacleRegion is a no-op that returns 0: cached graphs are per
// obstacle generation, so an obstacle update never invalidates one. It stays
// until the benchmark stops calling it.
func (e *Engine) InvalidateObstacleRegion(geom.Rect) int { return 0 }

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
