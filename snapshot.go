package obstacles

import (
	"errors"
	"sync/atomic"
)

// ErrSnapshotClosed is returned by every verb of a Snapshot after Close.
var ErrSnapshotClosed = errors.New("obstacles: snapshot is closed")

// Snapshot is an explicit handle on one published generation. It has the
// Database's read verbs — the same methods from the same implementation (see
// reader.go) — and every one answers from that generation, no matter how many
// mutations commit on the Database after it was taken: the guarantee the
// Database's own verbs give for their single call, held open across calls.
//
// A snapshot costs nothing to take (a refcount bump) but holding one keeps
// the copy-on-write pages its generation can still read alive: under heavy
// churn a long-lived snapshot grows the page file by roughly the pages the
// churn rewrites (watch the obstacles_snapshot_pinned_pages gauge). Close
// releases the pin; the deferred pages free with the next opportunity.
// Snapshots are safe for concurrent use, but Close must not race in-flight
// verbs on the same handle.
type Snapshot struct {
	reader
	v      *dbVersion
	closed atomic.Bool
}

// Snapshot pins the current generation and returns a read handle on it.
// Always Close it; an unclosed snapshot pins COW pages forever.
func (db *Database) Snapshot() *Snapshot {
	v := db.pin()
	vt := &db.versions
	vt.mu.Lock()
	vt.snapshots++
	vt.mu.Unlock()
	s := &Snapshot{v: v}
	s.reader = reader{db: db, acquire: s.version, release: func(*dbVersion) {}}
	return s
}

// Close releases the snapshot's pin, letting the pages only its generation
// could still read be freed. Closing twice is a no-op.
func (s *Snapshot) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	vt := &s.db.versions
	vt.mu.Lock()
	vt.snapshots--
	vt.mu.Unlock()
	s.db.unpin(s.v)
	return nil
}

// Generation returns the mutation count at which the snapshot was taken.
func (s *Snapshot) Generation() uint64 { return s.v.gen }

// version is the closed-guard: the held generation while the snapshot is
// open, ErrSnapshotClosed after. The pin it was taken with lasts until Close,
// so the reader's release has nothing to give back.
func (s *Snapshot) version() (*dbVersion, error) {
	if s.closed.Load() {
		return nil, ErrSnapshotClosed
	}
	return s.v, nil
}
