package pagefile

import (
	"fmt"
	"sort"
	"sync"
)

// PageWrite is one captured page image, as handed to the write-ahead log.
type PageWrite struct {
	ID   PageID
	Data []byte
}

// TxStorage is the transactional overlay of the durable backend. Writes are
// buffered in memory instead of reaching the backing store, so the data
// file on disk only ever contains checkpointed state:
//
//   - WritePage stores the image in the pending overlay; ReadPage serves
//     pending images first, falling through to the backing store.
//   - CaptureDirty drains the set of pages written since the last capture —
//     the images the database appends to the WAL at each commit.
//   - Apply (the checkpoint step) writes every pending image through to the
//     backing store and clears the overlay.
//
// A crash at any point therefore loses only the overlay; the WAL replays
// every committed image over the checkpointed file. Allocation is delegated
// to the backing store, whose allocation state is volatile until a commit
// serializes it (see FileStorage). TxStorage is safe for concurrent use by
// the per-tree buffer pools layered above it.
type TxStorage struct {
	mu      sync.Mutex
	inner   Storage
	pending map[PageID][]byte
	dirty   map[PageID]struct{}
	// detached freezes the overlay as a self-contained in-memory snapshot
	// (see Detach): no operation touches inner anymore.
	detached bool
	frontier PageID
	// bad records pages that could not be copied out of inner at Detach
	// time; reading them reports the copy error.
	bad map[PageID]error
}

// NewTxStorage returns a transactional overlay over inner.
func NewTxStorage(inner Storage) *TxStorage {
	return &TxStorage{
		inner:   inner,
		pending: make(map[PageID][]byte),
		dirty:   make(map[PageID]struct{}),
	}
}

// Detach freezes the overlay into a self-contained in-memory snapshot:
// every page below the frontier not already in the overlay is copied out of
// the backing store, and from then on no operation touches the store —
// reads serve the overlay, writes and frees mutate only it, and allocation
// fails. In-place recovery detaches the poisoned generation's overlay
// before rebuilding a fresh store over the same file, so readers pinned to
// old MVCC generations keep answering from this frozen copy while the new
// store replays, checkpoints and reuses the file's pages underneath them.
//
// Pages that cannot be copied (an injected read fault, a corrupt page) do
// not fail the detach: the error is recorded and returned by any later read
// of that page, confining the damage to the readers that actually touch it.
func (t *TxStorage) Detach(frontier PageID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.detached {
		return
	}
	pageSize := t.inner.PageSize()
	for id := PageID(1); id < frontier; id++ {
		if _, ok := t.pending[id]; ok {
			continue
		}
		buf := make([]byte, pageSize)
		if err := t.inner.ReadPage(id, buf); err != nil {
			if t.bad == nil {
				t.bad = make(map[PageID]error)
			}
			t.bad[id] = err
			continue
		}
		t.pending[id] = buf
	}
	t.detached = true
	t.frontier = frontier
}

// Detached reports whether Detach has severed the overlay from its backing
// store.
func (t *TxStorage) Detached() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.detached
}

// PageSize implements Storage.
func (t *TxStorage) PageSize() int { return t.inner.PageSize() }

// NumPages implements Storage.
func (t *TxStorage) NumPages() int { return t.inner.NumPages() }

// Allocate implements Storage. The fresh page is seeded as a zero image in
// the overlay, giving allocated-but-unwritten pages the same zeroed
// semantics as MemStorage regardless of what old bytes the file holds.
func (t *TxStorage) Allocate() (PageID, error) {
	t.mu.Lock()
	if t.detached {
		t.mu.Unlock()
		return InvalidPage, fmt.Errorf("pagefile: allocate on a detached overlay")
	}
	t.mu.Unlock()
	id, err := t.inner.Allocate()
	if err != nil {
		return id, err
	}
	t.mu.Lock()
	t.pending[id] = make([]byte, t.inner.PageSize())
	t.dirty[id] = struct{}{}
	t.mu.Unlock()
	return id, nil
}

// Free implements Storage. The page leaves the overlay and the dirty set:
// its content no longer matters, and the free list travels in the commit's
// state blob rather than as a logged page image.
func (t *TxStorage) Free(id PageID) error {
	t.mu.Lock()
	if t.detached {
		// The backing store now belongs to a newer overlay; freeing into it
		// would corrupt the new store's free list. Deferred frees of COW
		// pages retired by the dead generation only need to release the
		// frozen copies.
		delete(t.pending, id)
		delete(t.dirty, id)
		delete(t.bad, id)
		t.mu.Unlock()
		return nil
	}
	t.mu.Unlock()
	if err := t.inner.Free(id); err != nil {
		return err
	}
	t.mu.Lock()
	delete(t.pending, id)
	delete(t.dirty, id)
	t.mu.Unlock()
	return nil
}

// ReadPage implements Storage: overlay first, then the backing store. On a
// detached overlay the backing store is never consulted: every page below
// the detach frontier was copied in (or recorded as unreadable), and pages
// at or past it read as zero, matching the store's lazy-growth semantics.
func (t *TxStorage) ReadPage(id PageID, dst []byte) error {
	t.mu.Lock()
	if p, ok := t.pending[id]; ok {
		copy(dst, p)
		t.mu.Unlock()
		return nil
	}
	if t.detached {
		err := t.bad[id]
		t.mu.Unlock()
		if err != nil {
			return err
		}
		for i := range dst[:t.inner.PageSize()] {
			dst[i] = 0
		}
		return nil
	}
	t.mu.Unlock()
	return t.inner.ReadPage(id, dst)
}

// WritePage implements Storage: the image is stored in the overlay (the
// backing store is untouched until Apply).
func (t *TxStorage) WritePage(id PageID, data []byte) error {
	if len(data) != t.inner.PageSize() {
		return fmt.Errorf("pagefile: write of %d bytes to page of %d bytes", len(data), t.inner.PageSize())
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	t.mu.Lock()
	t.pending[id] = cp
	t.dirty[id] = struct{}{}
	t.mu.Unlock()
	return nil
}

// CaptureDirty returns the images of every page written since the previous
// capture, sorted by page id for deterministic WAL contents, and clears the
// dirty set. The capture is transaction-owned: each image is copied out of
// the overlay, so a capture staged by one commit stays valid while later
// transactions overwrite, free or reallocate the same pages — the group
// committer may write a staged batch to the WAL long after the mutator
// that produced it released the update lock. The overlay itself keeps the
// newest image of each page until Apply.
func (t *TxStorage) CaptureDirty() []PageWrite {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.dirty) == 0 {
		return nil
	}
	out := make([]PageWrite, 0, len(t.dirty))
	for id := range t.dirty {
		// A dirtied page may have been freed since; Free removes it from both
		// maps, so every dirty id still has a pending image.
		out = append(out, PageWrite{ID: id, Data: append([]byte(nil), t.pending[id]...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	t.dirty = make(map[PageID]struct{})
	return out
}

// PendingPages returns the number of committed-but-unapplied page images
// held by the overlay (the memory cost of deferring write-back to the next
// checkpoint).
func (t *TxStorage) PendingPages() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// Apply writes every pending image through to the backing store and clears
// the overlay — the data-file half of a checkpoint. The dirty set clears
// too: pages the checkpoint itself wrote (the fresh state blob chain) are
// durable via the data file, not the WAL, and must not leak into the next
// commit's capture. On error both maps are retained: every committed image
// is also in the WAL, so a partially applied checkpoint is repaired by
// replay, and retrying Apply is idempotent.
func (t *TxStorage) Apply() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.detached {
		return fmt.Errorf("pagefile: apply on a detached overlay")
	}
	ids := make([]PageID, 0, len(t.pending))
	for id := range t.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := t.inner.WritePage(id, t.pending[id]); err != nil {
			return err
		}
	}
	t.pending = make(map[PageID][]byte)
	t.dirty = make(map[PageID]struct{})
	return nil
}
