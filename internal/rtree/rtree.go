// Package rtree implements a disk-resident R-tree over the simulated page
// file of package pagefile. Every node occupies exactly one page and all node
// accesses go through the file's LRU buffer, so the PhysicalReads counter of
// the page file reproduces the "page accesses" metric of the paper's
// experiments.
//
// Insertion is the R*-tree's [BKSS90] forced reinsert and topological split
// under Guttman's descent: the child needing the least area enlargement, at
// every level. R*'s leaf-level overlap test costs O(M²) rectangle
// intersections per insert and built no better trees of street MBRs.
//
// Beyond insertion and deletion the package provides the Euclidean query
// algorithms the paper builds on:
//
//   - window and circular range search (Section 2.1),
//   - best-first incremental nearest neighbors [HS99],
//   - the e-distance R-tree join [BKS93], and
//   - incremental closest pairs [HS98, CMTV00].
//
// The join and the closest-pair stream share one plane sweep over the
// entries of two nodes (sweeper, join.go), taken over a half-open distance
// interval. The closest-pair queue holds node pairs; two leaves are not
// expanded into their |A|·|B| item pairs but opened in distance bands
// (CPIterator.openBand): the item pairs in [key, key+width) are queued and the
// leaf pair goes back at key+width with the width doubled. That is still the
// [HS98] order — a band's pairs all have a key at least the popped one, and
// the re-queued pair is a lower bound on everything it has not queued — but
// not its page-access count: a leaf is read when a band of one of its pairs
// opens, not once per item of the other leaf, so the data-tree page reads of
// Figs 21-22 come out lower than with a one-sided expansion down to the
// items, while candidates and results are the same.
//
// Trees are built either by repeated insertion or by STR bulk loading.
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/pagefile"
)

// Item is a data entry: a bounding rectangle (a degenerate rectangle for
// points) plus an opaque identifier resolving to the caller's object.
type Item struct {
	Rect geom.Rect
	Data int64
}

// PointItem returns the Item for a point datum.
func PointItem(p geom.Point, data int64) Item {
	return Item{Rect: geom.PointRect(p), Data: data}
}

// Options configures a tree.
type Options struct {
	// PageSize is the on-disk node size in bytes (default 4096, as in the
	// paper's experiments).
	PageSize int
	// BufferPages is the initial LRU buffer capacity in pages (default 64).
	// Callers typically resize it to 10% of the tree after loading, per the
	// paper's setup, via Tree.PageFile().SetBufferPages.
	BufferPages int
	// Storage optionally overrides the page backend (default in-memory).
	Storage pagefile.Storage
}

func (o Options) withDefaults() Options {
	if o.PageSize <= 0 {
		o.PageSize = pagefile.DefaultPageSize
	}
	if o.BufferPages <= 0 {
		o.BufferPages = 64
	}
	return o
}

// minFill is the minimum node occupancy m/M and reinsertShare the share of
// entries removed on forced reinsert, both the R* recommendations.
const (
	minFill       = 0.4
	reinsertShare = 0.3
)

const (
	nodeHeaderSize = 4  // level uint16 + count uint16
	entrySize      = 40 // 4 float64 coordinates + 8-byte reference
)

// entry is one slot of a node: an MBR plus either a child page (internal
// nodes) or a data id (leaves).
type entry struct {
	rect geom.Rect
	ref  uint64
}

func (e entry) item() Item { return Item{Rect: e.rect, Data: int64(e.ref)} }

// node is the in-memory image of one page.
type node struct {
	id      pagefile.PageID
	level   uint16 // 0 = leaf
	entries []entry
}

func (n *node) isLeaf() bool { return n.level == 0 }

func (n *node) mbr() geom.Rect {
	r := geom.EmptyRect()
	for _, e := range n.entries {
		r = r.Union(e.rect)
	}
	return r
}

// Tree is a disk-resident R-tree. A fully built tree is safe for any number
// of concurrent readers (the page file serializes buffer traffic); mutation
// (Insert, Delete) must not run concurrently with anything else on the same
// tree.
type Tree struct {
	pf       *pagefile.File
	root     pagefile.PageID
	height   int // number of levels; 1 = root is a leaf
	size     int // number of data items
	npages   int // number of node pages reachable from root
	maxE     int
	minE     int
	pending  []pendingInsert // forced-reinsert / condense work queue
	reinsLvl map[uint16]bool // levels already reinserted during this insert
	// ioExtra, when non-nil, additionally receives every page-read counter
	// of this handle — the per-query attribution hook behind Counted.
	ioExtra *pagefile.Stats

	// Copy-on-write state (EnableCOW). In COW mode a mutation epoch
	// (BeginEpoch..TakeRetired) never overwrites a page allocated before
	// the epoch: writeNode relocates the node to a fresh page and retires
	// the old one, so a View taken between epochs stays a fully consistent
	// tree no matter how the original mutates afterwards.
	cow     bool
	owned   map[pagefile.PageID]struct{} // pages allocated this epoch
	retired []pagefile.PageID            // pages the new generation abandoned
	// cowCopies counts pages relocated by COW writes; a pointer so views
	// made by Counted/View share the counter.
	cowCopies *atomic.Uint64
}

// EnableCOW switches the tree to copy-on-write mutation. From the next
// BeginEpoch on, mutators write only pages allocated within their own
// epoch, and pages a mutation abandons surface through TakeRetired instead
// of returning to the page file — the caller frees them once no reader can
// still hold a View that references them.
func (t *Tree) EnableCOW() {
	t.cow = true
	if t.owned == nil {
		t.owned = make(map[pagefile.PageID]struct{})
	}
}

// BeginEpoch starts a new mutation epoch: every page written from here on
// is either freshly allocated or cloned (relocated) from its current image
// first. Pages already retired stay queued for TakeRetired.
func (t *Tree) BeginEpoch() {
	if t.cow {
		clear(t.owned)
	}
}

// View returns a frozen read-only view of the tree at its current root.
// The view shares the page file (and its warm buffer) with the original
// but keeps its own root/height/size, so with COW enabled later mutations
// of the original are invisible to it.
func (t *Tree) View() *Tree {
	cp := *t
	cp.pending, cp.reinsLvl = nil, nil
	cp.owned, cp.retired = nil, nil
	return &cp
}

// TakeRetired returns and clears the pages that mutation epochs since the
// last call stopped referencing. The tree never frees them itself in COW
// mode: an older View may still read them, so the owner frees them once no
// such view remains pinned.
func (t *Tree) TakeRetired() []pagefile.PageID {
	out := t.retired
	t.retired = nil
	return out
}

// COWCopies returns the cumulative number of pages relocated by
// copy-on-write mutation.
func (t *Tree) COWCopies() uint64 { return t.cowCopies.Load() }

// allocPage reserves a page for a new node (one written this epoch).
func (t *Tree) allocPage() (pagefile.PageID, error) {
	id, err := t.pf.Allocate()
	if err == nil {
		t.npages++
		if t.cow {
			t.owned[id] = struct{}{}
		}
	}
	return id, err
}

// freeNode releases a node page: pages allocated this epoch return to the
// page file immediately (no published view can reference them), while
// older pages are retired for the owner to free when safe.
func (t *Tree) freeNode(id pagefile.PageID) error {
	t.npages--
	if t.cow {
		if _, ok := t.owned[id]; !ok {
			t.retired = append(t.retired, id)
			return nil
		}
		delete(t.owned, id)
	}
	return t.pf.Free(id)
}

// Pages appends the ids of every page reachable from the root — the page
// set a backup must copy — to dst and returns it. Only internal nodes are
// read: a level-1 node's entries name its leaves.
func (t *Tree) Pages(dst []pagefile.PageID) ([]pagefile.PageID, error) {
	return t.pages(t.root, dst)
}

func (t *Tree) pages(id pagefile.PageID, dst []pagefile.PageID) ([]pagefile.PageID, error) {
	dst = append(dst, id)
	n, err := t.readNode(id)
	if err != nil || n.isLeaf() {
		return dst, err
	}
	for _, e := range n.entries {
		if n.level == 1 {
			dst = append(dst, pagefile.PageID(e.ref))
		} else if dst, err = t.pages(pagefile.PageID(e.ref), dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// Counted returns a read-only view of the tree whose page reads are
// additionally counted into extra, attributing I/O to one query while the
// shared buffer keeps serving everyone. The view shares all pages and the
// buffer with the original; extra must be confined to a single goroutine.
func (t *Tree) Counted(extra *pagefile.Stats) *Tree {
	cp := *t
	cp.ioExtra = extra
	return &cp
}

type pendingInsert struct {
	e     entry
	level uint16
}

// New returns an empty tree.
func New(opts Options) (*Tree, error) {
	opts = opts.withDefaults()
	st := opts.Storage
	if st == nil {
		st = pagefile.NewMemStorage(opts.PageSize)
	}
	if st.PageSize() != opts.PageSize {
		return nil, fmt.Errorf("rtree: storage page size %d != option %d", st.PageSize(), opts.PageSize)
	}
	maxE := (opts.PageSize - nodeHeaderSize) / entrySize
	if maxE < 4 {
		return nil, fmt.Errorf("rtree: page size %d too small (fanout %d < 4)", opts.PageSize, maxE)
	}
	minE := int(float64(maxE) * minFill)
	if minE < 1 {
		minE = 1
	}
	t := &Tree{
		pf:        pagefile.NewWithStorage(st, opts.BufferPages),
		height:    1,
		maxE:      maxE,
		minE:      minE,
		reinsLvl:  make(map[uint16]bool),
		cowCopies: new(atomic.Uint64),
	}
	rootNode := &node{level: 0}
	var err error
	rootNode.id, err = t.allocPage()
	if err != nil {
		return nil, err
	}
	if err := t.writeNode(rootNode); err != nil {
		return nil, err
	}
	t.root = rootNode.id
	return t, nil
}

// Attach re-opens a tree whose pages already live in opts.Storage — the
// durable backend's cold-open path, which reads the root/height/size triple
// from the catalog instead of bulk-loading. The root node is read once to
// validate that the triple matches the stored pages.
func Attach(opts Options, root pagefile.PageID, height, size int) (*Tree, error) {
	if opts.Storage == nil {
		return nil, fmt.Errorf("rtree: Attach requires an explicit Storage")
	}
	t, err := New(opts)
	if err != nil {
		return nil, err
	}
	// New allocated a fresh root page for the empty tree; release it and
	// point at the persisted root instead.
	if err := t.freeNode(t.root); err != nil {
		return nil, err
	}
	if height < 1 || size < 0 {
		return nil, fmt.Errorf("rtree: attach with height %d, size %d", height, size)
	}
	t.root, t.height, t.size = root, height, size
	n, err := t.readNode(root)
	if err != nil {
		return nil, fmt.Errorf("rtree: attach: %w", err)
	}
	if int(n.level) != height-1 {
		return nil, fmt.Errorf("rtree: attach: root level %d does not match height %d", n.level, height)
	}
	ids, err := t.Pages(nil)
	if err != nil {
		return nil, fmt.Errorf("rtree: attach: %w", err)
	}
	t.npages = len(ids)
	return t, nil
}

// Len returns the number of data items in the tree.
func (t *Tree) Len() int { return t.size }

// NumPages returns the number of node pages reachable from the root: the
// tree's own size, whatever else shares its page file.
func (t *Tree) NumPages() int { return t.npages }

// Root returns the page id of the root node, for catalog serialization.
func (t *Tree) Root() pagefile.PageID { return t.root }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// PageFile exposes the underlying page file, for I/O statistics and buffer
// sizing.
func (t *Tree) PageFile() *pagefile.File { return t.pf }

// Bounds returns the MBR of all data in the tree (empty for an empty tree).
func (t *Tree) Bounds() (geom.Rect, error) {
	n, err := t.readNode(t.root)
	if err != nil {
		return geom.Rect{}, err
	}
	return n.mbr(), nil
}

// readNode deserializes the node stored on page id into entries of its own.
func (t *Tree) readNode(id pagefile.PageID) (*node, error) {
	n, err := t.readNodeInto(id, nil)
	if err != nil {
		return nil, err
	}
	return &n, nil
}

// readNodeInto is readNode decoding into buf's backing array (replaced when
// too small): the read-only traversals visit many nodes per call and keep one
// buffer per node they hold at a time instead of allocating one per visit.
// The page file lends its buffer frame only while the decode runs, so the
// entries are copied out of it there: the frame holds another page once it is
// evicted.
func (t *Tree) readNodeInto(id pagefile.PageID, buf []entry) (node, error) {
	n, count := node{id: id}, 0
	err := t.pf.ReadCounted(id, t.ioExtra, func(p []byte) {
		n.level = binary.LittleEndian.Uint16(p[0:2])
		count = int(binary.LittleEndian.Uint16(p[2:4]))
		if nodeHeaderSize+count*entrySize > len(p) {
			return
		}
		if cap(buf) < count {
			// A first buffer fits its node (most searches see a small root
			// and a leaf or two); one that has to grow is made to fit any.
			size := count
			if cap(buf) > 0 {
				size = max(count, t.maxE)
			}
			buf = make([]entry, size)
		}
		n.entries = buf[:count]
		off := nodeHeaderSize
		for i := range n.entries {
			n.entries[i] = entry{
				rect: geom.Rect{
					MinX: f64(p[off:]), MinY: f64(p[off+8:]),
					MaxX: f64(p[off+16:]), MaxY: f64(p[off+24:]),
				},
				ref: binary.LittleEndian.Uint64(p[off+32:]),
			}
			off += entrySize
		}
	})
	if err != nil {
		return node{}, fmt.Errorf("rtree: read node %d: %w", id, err)
	}
	if len(n.entries) != count {
		return node{}, fmt.Errorf("rtree: corrupt node %d: count %d", id, count)
	}
	return n, nil
}

// writeNode serializes n onto its page. In COW mode a node whose page
// predates the current epoch is relocated first: the old page is retired
// (still referenced by published views) and the node moves to a fresh one;
// the caller must propagate the new n.id into the parent entry.
func (t *Tree) writeNode(n *node) error {
	if len(n.entries) > t.maxE {
		return fmt.Errorf("rtree: node %d overflows page: %d > %d", n.id, len(n.entries), t.maxE)
	}
	if t.cow {
		if _, ok := t.owned[n.id]; !ok {
			t.retired = append(t.retired, n.id)
			id, err := t.pf.Allocate()
			if err != nil {
				return err
			}
			t.owned[id] = struct{}{}
			n.id = id
			t.cowCopies.Add(1)
		}
	}
	p := make([]byte, t.pf.PageSize())
	binary.LittleEndian.PutUint16(p[0:2], n.level)
	binary.LittleEndian.PutUint16(p[2:4], uint16(len(n.entries)))
	off := nodeHeaderSize
	for _, e := range n.entries {
		putF64(p[off:], e.rect.MinX)
		putF64(p[off+8:], e.rect.MinY)
		putF64(p[off+16:], e.rect.MaxX)
		putF64(p[off+24:], e.rect.MaxY)
		binary.LittleEndian.PutUint64(p[off+32:], e.ref)
		off += entrySize
	}
	if err := t.pf.Write(n.id, p); err != nil {
		return fmt.Errorf("rtree: write node %d: %w", n.id, err)
	}
	return nil
}

func f64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

// CheckInvariants walks the whole tree verifying structural invariants:
// MBR containment, occupancy bounds, uniform leaf depth, and item count.
// It is intended for tests.
func (t *Tree) CheckInvariants() error {
	count, err := t.check(t.root, t.height-1, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: item count %d != size %d", count, t.size)
	}
	if ids, err := t.Pages(nil); err != nil || len(ids) != t.npages {
		return fmt.Errorf("rtree: %d pages reachable (%v), NumPages %d", len(ids), err, t.npages)
	}
	return nil
}

func (t *Tree) check(id pagefile.PageID, wantLevel int, isRoot bool) (int, error) {
	n, err := t.readNode(id)
	if err != nil {
		return 0, err
	}
	if int(n.level) != wantLevel {
		return 0, fmt.Errorf("rtree: node %d level %d, want %d", id, n.level, wantLevel)
	}
	if !isRoot && len(n.entries) < t.minE {
		return 0, fmt.Errorf("rtree: node %d underfull: %d < %d", id, len(n.entries), t.minE)
	}
	if len(n.entries) > t.maxE {
		return 0, fmt.Errorf("rtree: node %d overfull: %d > %d", id, len(n.entries), t.maxE)
	}
	if isRoot && t.height > 1 && len(n.entries) < 2 {
		return 0, fmt.Errorf("rtree: internal root has %d entries", len(n.entries))
	}
	if n.isLeaf() {
		return len(n.entries), nil
	}
	total := 0
	for _, e := range n.entries {
		child, err := t.readNode(pagefile.PageID(e.ref))
		if err != nil {
			return 0, err
		}
		cm := child.mbr()
		if !e.rect.ContainsRect(cm) {
			return 0, fmt.Errorf("rtree: node %d entry MBR %v does not contain child %d MBR %v",
				id, e.rect, e.ref, cm)
		}
		sub, err := t.check(pagefile.PageID(e.ref), wantLevel-1, false)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}
