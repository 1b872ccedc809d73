// Package pagefile is the disk layer of the spatial database: a file of
// fixed-size pages accessed through an LRU buffer pool. The experiments of
// the paper measure "page accesses" — reads that miss the buffer — and this
// package provides exactly those counters (Stats.PhysicalReads).
//
// A File couples a Storage backend with a write-back LRU buffer. Two
// backends implement Storage:
//
//   - MemStorage keeps pages in memory. It preserves the paper's cost model
//     (page granularity, buffer hits) without real disk latency and is the
//     backend behind NewDatabase — a database that rebuilds from source
//     data on every start.
//   - FileStorage stores pages in a real file with pread/pwrite under a
//     superblock, the backend behind the durable obstacles.Open. It is
//     composed with TxStorage, a transactional overlay that defers all page
//     write-back until a checkpoint so that the write-ahead log (package
//     wal) is the only thing that must reach disk on commit; a crash
//     recovers by replaying committed WAL records over the checkpointed
//     file.
//
// An Injector installed on a FileStorage (SetInjector) fails programmed
// reads, writes and fsyncs, driving the crash-recovery and fault-injection
// tests.
//
// A read lends the caller a buffer frame instead of copying the page out:
// ReadCounted hands it to a callback that runs under the file's lock, and the
// frame is recycled for the next page admitted once it is evicted, so a query
// that misses the buffer allocates nothing. Read hands the frame out for good
// and marks it so that it is never recycled.
package pagefile

import (
	"errors"
	"fmt"
	"sync"
)

// PageID identifies a page in a File. Zero is never a valid page.
type PageID uint32

// InvalidPage is the zero PageID; it never refers to a real page.
const InvalidPage PageID = 0

// DefaultPageSize matches the experimental setup of the paper (4 KB pages).
const DefaultPageSize = 4096

// ErrPageNotFound is returned when an operation references a page that was
// never allocated or has been freed.
var ErrPageNotFound = errors.New("pagefile: page not found")

// Storage is a raw page store without buffering. Implementations must
// return pages of exactly PageSize bytes.
type Storage interface {
	// ReadPage copies the page contents into dst (len(dst) == PageSize).
	ReadPage(id PageID, dst []byte) error
	// WritePage stores data (len(data) == PageSize) as the page contents.
	WritePage(id PageID, data []byte) error
	// Allocate reserves a new page and returns its id.
	Allocate() (PageID, error)
	// Free releases a page for reuse.
	Free(id PageID) error
	// NumPages returns the number of currently allocated pages.
	NumPages() int
	// PageSize returns the fixed page size in bytes.
	PageSize() int
}

// MemStorage is an in-memory Storage with a free list.
type MemStorage struct {
	pageSize int
	pages    map[PageID][]byte
	next     PageID
	free     []PageID
}

// NewMemStorage returns an empty in-memory store with the given page size.
func NewMemStorage(pageSize int) *MemStorage {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemStorage{pageSize: pageSize, pages: make(map[PageID][]byte), next: 1}
}

// PageSize implements Storage.
func (m *MemStorage) PageSize() int { return m.pageSize }

// NumPages implements Storage.
func (m *MemStorage) NumPages() int { return len(m.pages) }

// Allocate implements Storage.
func (m *MemStorage) Allocate() (PageID, error) {
	var id PageID
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		id = m.next
		m.next++
	}
	m.pages[id] = make([]byte, m.pageSize)
	return id, nil
}

// Free implements Storage.
func (m *MemStorage) Free(id PageID) error {
	if _, ok := m.pages[id]; !ok {
		return fmt.Errorf("%w: free %d", ErrPageNotFound, id)
	}
	delete(m.pages, id)
	m.free = append(m.free, id)
	return nil
}

// ReadPage implements Storage.
func (m *MemStorage) ReadPage(id PageID, dst []byte) error {
	p, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("%w: read %d", ErrPageNotFound, id)
	}
	copy(dst, p)
	return nil
}

// WritePage implements Storage.
func (m *MemStorage) WritePage(id PageID, data []byte) error {
	p, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("%w: write %d", ErrPageNotFound, id)
	}
	copy(p, data)
	return nil
}

// Stats counts page traffic through a File. LogicalReads counts every Read
// call; PhysicalReads counts only those that missed the buffer and went to
// storage — the "page accesses" the paper reports. PhysicalWrites counts
// write-backs of dirty pages.
type Stats struct {
	LogicalReads   uint64
	PhysicalReads  uint64
	LogicalWrites  uint64
	PhysicalWrites uint64
	BufferHits     uint64
}

// Sub returns s - t, for computing per-query deltas.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		LogicalReads:   s.LogicalReads - t.LogicalReads,
		PhysicalReads:  s.PhysicalReads - t.PhysicalReads,
		LogicalWrites:  s.LogicalWrites - t.LogicalWrites,
		PhysicalWrites: s.PhysicalWrites - t.PhysicalWrites,
		BufferHits:     s.BufferHits - t.BufferHits,
	}
}

// Add returns s + t.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		LogicalReads:   s.LogicalReads + t.LogicalReads,
		PhysicalReads:  s.PhysicalReads + t.PhysicalReads,
		LogicalWrites:  s.LogicalWrites + t.LogicalWrites,
		PhysicalWrites: s.PhysicalWrites + t.PhysicalWrites,
		BufferHits:     s.BufferHits + t.BufferHits,
	}
}

type frame struct {
	id    PageID
	data  []byte
	dirty bool
	// kept marks a frame Read handed out: its data stays with the caller
	// after eviction instead of being reused for another page.
	kept bool
	prev *frame
	next *frame
}

// File is a page file with an LRU buffer pool. All operations are guarded by
// one mutex, so any number of goroutines may read concurrently — parallel
// queries share the warm buffer instead of corrupting the LRU chain. Frames
// lent by ReadCounted are recycled: an evicted frame holds the next page
// admitted, which is why ReadCounted's callback runs under the lock. A slice
// returned by Read stays stable under concurrent reads and evictions (its
// frame is never recycled), but writers must not race readers of the same
// page; the query engine only writes pages no published reader can reach
// (copy-on-write epochs) or while building trees, before queries start.
type File struct {
	mu       sync.Mutex
	st       Storage
	capacity int // buffer capacity in pages (>= 1)
	frames   map[PageID]*frame
	head     *frame // most recently used
	tail     *frame // least recently used
	stats    Stats
}

// New returns a File over an in-memory store.
func New(pageSize, bufferPages int) *File {
	return NewWithStorage(NewMemStorage(pageSize), bufferPages)
}

// NewWithStorage returns a File over the given backend.
func NewWithStorage(st Storage, bufferPages int) *File {
	if bufferPages < 1 {
		bufferPages = 1
	}
	return &File{st: st, capacity: bufferPages, frames: make(map[PageID]*frame)}
}

// PageSize returns the page size in bytes.
func (f *File) PageSize() int { return f.st.PageSize() }

// NumPages returns the number of allocated pages.
func (f *File) NumPages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st.NumPages()
}

// BufferPages returns the buffer pool capacity in pages.
func (f *File) BufferPages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.capacity
}

// Stats returns the accumulated counters.
func (f *File) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// ResetStats zeroes the counters (the buffer contents are kept, modelling a
// warm buffer across a query workload as in the paper).
func (f *File) ResetStats() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats = Stats{}
}

// Allocate reserves a new zeroed page.
func (f *File) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st.Allocate()
}

// Free drops a page from the buffer and releases it in storage.
func (f *File) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fr, ok := f.frames[id]; ok {
		f.unlink(fr)
		delete(f.frames, id)
	}
	return f.st.Free(id)
}

// Read returns the contents of a page. The returned slice aliases the buffer
// frame, which Read marks as never to be recycled: it stays valid under
// concurrent reads and evictions, but a Write to the same page would race it
// — consume the slice before writing. Backups copy pages out this way, with
// no copy of their own.
func (f *File) Read(id PageID) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fr, err := f.lookup(id, nil)
	if err != nil {
		return nil, err
	}
	if !fr.kept { // a hit on a kept frame stores nothing into it
		fr.kept = true
	}
	return fr.data, nil
}

// ReadCounted lends the page's buffer frame to use, which runs under the
// file's lock and must neither keep the slice nor call back into the file:
// once use returns, the frame may be recycled for another page. When extra is
// non-nil the read is additionally counted there, attributing I/O to the one
// query that issued it even while other queries hammer the same file. The
// accumulator must not be shared between goroutines.
func (f *File) ReadCounted(id PageID, extra *Stats, use func(page []byte)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	fr, err := f.lookup(id, extra)
	if err != nil {
		return err
	}
	use(fr.data)
	return nil
}

// lookup is the one read path under Read and ReadCounted: it counts the read
// and returns the page's frame, admitting and filling one on a miss. The
// caller holds the lock.
func (f *File) lookup(id PageID, extra *Stats) (*frame, error) {
	f.stats.LogicalReads++
	if extra != nil {
		extra.LogicalReads++
	}
	if fr, ok := f.frames[id]; ok {
		f.stats.BufferHits++
		if extra != nil {
			extra.BufferHits++
		}
		f.touch(fr)
		return fr, nil
	}
	f.stats.PhysicalReads++
	if extra != nil {
		extra.PhysicalReads++
	}
	fr, err := f.admit(id)
	if err != nil {
		return nil, err
	}
	if err := f.st.ReadPage(id, fr.data); err != nil {
		f.unlink(fr)
		delete(f.frames, id)
		return nil, err
	}
	return fr, nil
}

// Write replaces the contents of a page. The page becomes dirty in the
// buffer and reaches storage on eviction or Flush.
func (f *File) Write(id PageID, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(data) != f.st.PageSize() {
		return fmt.Errorf("pagefile: write of %d bytes to page of %d bytes", len(data), f.st.PageSize())
	}
	f.stats.LogicalWrites++
	fr, ok := f.frames[id]
	if !ok {
		var err error
		fr, err = f.admit(id)
		if err != nil {
			return err
		}
	} else {
		f.touch(fr)
	}
	copy(fr.data, data)
	fr.dirty = true
	return nil
}

// Flush writes back all dirty pages.
func (f *File) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, fr := range f.frames {
		if fr.dirty {
			if err := f.writeBack(fr); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetBufferPages resizes the buffer pool, evicting LRU pages when shrinking.
// The experiments use this to size the buffer at 10% of each R-tree after
// the tree is built.
func (f *File) SetBufferPages(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < 1 {
		n = 1
	}
	f.capacity = n
	for len(f.frames) > f.capacity {
		if _, err := f.evict(); err != nil {
			return err
		}
	}
	return nil
}

// DropBuffer evicts everything (writing back dirty pages), simulating a cold
// start.
func (f *File) DropBuffer() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.frames) > 0 {
		if _, err := f.evict(); err != nil {
			return err
		}
	}
	return nil
}

// admit makes room for page id and returns its frame, at the front of the
// LRU chain, with unspecified contents: the frame it evicted last, unless Read
// kept that one, or a new one.
func (f *File) admit(id PageID) (*frame, error) {
	var fr *frame
	for len(f.frames) >= f.capacity {
		var err error
		if fr, err = f.evict(); err != nil {
			return nil, err
		}
	}
	if fr == nil || fr.kept {
		fr = &frame{data: make([]byte, f.PageSize())}
	}
	*fr = frame{id: id, data: fr.data}
	f.frames[id] = fr
	f.pushFront(fr)
	return fr, nil
}

// evict writes back and drops the least recently used frame, returning it.
func (f *File) evict() (*frame, error) {
	fr := f.tail
	if fr == nil {
		return nil, errors.New("pagefile: evict from empty buffer")
	}
	if fr.dirty {
		if err := f.writeBack(fr); err != nil {
			return nil, err
		}
	}
	f.unlink(fr)
	delete(f.frames, fr.id)
	return fr, nil
}

func (f *File) writeBack(fr *frame) error {
	f.stats.PhysicalWrites++
	if err := f.st.WritePage(fr.id, fr.data); err != nil {
		return err
	}
	fr.dirty = false
	return nil
}

func (f *File) touch(fr *frame) {
	if f.head == fr {
		return
	}
	f.unlink(fr)
	f.pushFront(fr)
}

func (f *File) pushFront(fr *frame) {
	fr.prev = nil
	fr.next = f.head
	if f.head != nil {
		f.head.prev = fr
	}
	f.head = fr
	if f.tail == nil {
		f.tail = fr
	}
}

func (f *File) unlink(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		f.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		f.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}
