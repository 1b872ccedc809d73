package obstacles

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"

	"repro/internal/catalog"
	"repro/internal/pagefile"
	"repro/internal/rtree"
)

// ErrNotPersistent is returned by Backup and Scrub on an in-memory database:
// both operate on the single shared page space of a durable file (in-memory
// trees each own a private page space, and have no checksums to verify).
var ErrNotPersistent = errors.New("obstacles: backup requires a durable database (use Open)")

// Backup writes a consistent copy of the database to a fresh file at path,
// pinning the current generation first: mutations committing while the copy
// runs are not in it, and never disturb it — no lock is held against
// writers. The result is a normal database file; Open it like any other.
// The copy is written to path + ".tmp" and atomically renamed into place on
// success, so a crashed or cancelled backup never leaves a half-written
// file at path. Requires a durable database (ErrNotPersistent otherwise).
func (db *Database) Backup(ctx context.Context, path string) error {
	s := db.Snapshot()
	defer s.Close()
	return s.Backup(ctx, path)
}

// Backup writes a consistent copy of the snapshot's generation to a fresh
// database file at path. See Database.Backup; the only difference is that
// the generation copied is the one this snapshot pinned, however old.
func (s *Snapshot) Backup(ctx context.Context, path string) error {
	v, err := s.version()
	if err != nil {
		return err
	}
	if s.db.store == nil {
		return ErrNotPersistent
	}
	if err := s.db.backupTo(ctx, v, path); err != nil {
		return fmt.Errorf("obstacles: backup to %s: %w", path, err)
	}
	return nil
}

// backupTo copies the pinned version's reachable pages (ids preserved, so
// child references inside node pages stay valid) — the obstacle polygons
// among them, since the obstacle trees are their store — then writes one
// state blob from the version's sealed views and a fresh superblock: the
// same file layout a checkpoint produces, minus the WAL.
func (db *Database) backupTo(ctx context.Context, v *dbVersion, path string) error {
	type namedTree struct {
		name  string
		t     *rtree.Tree
		pages []pagefile.PageID
	}
	var trees []*namedTree
	for _, t := range v.obst.Trees() {
		trees = append(trees, &namedTree{name: "obstacles", t: t})
	}
	names := make([]string, 0, len(v.datasets))
	for name := range v.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		trees = append(trees, &namedTree{name: name, t: v.datasets[name].Tree()})
	}

	// Collect the page set up front; every id is stable while v stays
	// pinned (COW mutators copy, they never rewrite, and pinned pages are
	// not freed or reused).
	usedSet := make(map[pagefile.PageID]struct{})
	maxUsed := pagefile.PageID(0)
	for _, nt := range trees {
		var err error
		if nt.pages, err = nt.t.Pages(nil); err != nil {
			return fmt.Errorf("walking tree %q: %w", nt.name, err)
		}
		for _, id := range nt.pages {
			usedSet[id] = struct{}{}
			if id > maxUsed {
				maxUsed = id
			}
		}
	}

	tmp := path + ".tmp"
	_ = os.Remove(tmp)
	dest, _, _, err := pagefile.OpenFileStorage(tmp, db.store.fs.PageSize())
	if err != nil {
		return err
	}
	fail := func(err error) error {
		dest.Close()
		_ = os.Remove(tmp)
		return err
	}

	// Copy the reachable pages, ids preserved. Reads go through each tree's
	// buffer (warm pages cost no I/O); the returned frame never mutates for
	// a pinned page, so writing it straight out is safe.
	for _, nt := range trees {
		pf := nt.t.PageFile()
		for n, id := range nt.pages {
			if n%64 == 0 {
				if err := ctx.Err(); err != nil {
					return fail(err)
				}
			}
			data, err := pf.Read(id)
			if err != nil {
				return fail(fmt.Errorf("reading page %d: %w", id, err))
			}
			if err := dest.WritePage(id, data); err != nil {
				return fail(fmt.Errorf("copying page %d: %w", id, err))
			}
		}
	}

	// The state blob goes past the copied pages; the gaps below maxUsed
	// become the new file's free list. The frontier's value does not change
	// the record's length, so the blob is sized before the frontier is set
	// past it.
	next := maxUsed + 1
	free := make([]pagefile.PageID, 0)
	for id := pagefile.PageID(1); id < next; id++ {
		if _, ok := usedSet[id]; !ok {
			free = append(free, id)
		}
	}
	state := v.catalogState(next, free)
	statePages := make([]pagefile.PageID, catalog.BlobPages(dest.PageSize(), len(catalog.EncodeState(state))))
	for i := range statePages {
		statePages[i] = next
		next++
	}
	state.Next = next
	stateRef, err := catalog.WriteBlob(dest, statePages, catalog.EncodeState(state))
	if err != nil {
		return fail(fmt.Errorf("writing state blob: %w", err))
	}

	if err := dest.Sync(); err != nil {
		return fail(err)
	}
	if err := dest.WriteSuperblock(pagefile.Superblock{PageSize: dest.PageSize(), State: stateRef}); err != nil {
		return fail(err)
	}
	if err := dest.Sync(); err != nil {
		return fail(err)
	}
	if err := dest.Close(); err != nil {
		return fail(err)
	}
	// A stale WAL beside the destination would replay garbage onto the
	// fresh file at Open; a backup target is a fresh database, so clear it.
	_ = os.Remove(path + ".wal")
	return os.Rename(tmp, path)
}
