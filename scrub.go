package obstacles

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/pagefile"
)

// ScrubReport is the result of one Scrub pass over the data file.
type ScrubReport struct {
	// Scanned is the number of pages verified; Live how many of them are
	// reachable from the live trees and the state blob.
	Scanned int `json:"scanned"`
	Live    int `json:"live"`
	// CorruptLive are live pages whose bytes fail verification — real data
	// loss the scrubber can only report (restore from backup, or rebuild the
	// index). CorruptFree are corrupt pages on the free list; Quarantined
	// the subset the scrubber took out of allocation circulation so fresh
	// data is never written over a disk region known to corrupt it.
	CorruptLive []pagefile.PageID `json:"corrupt_live,omitempty"`
	CorruptFree []pagefile.PageID `json:"corrupt_free,omitempty"`
	Quarantined []pagefile.PageID `json:"quarantined,omitempty"`
	// Inconsistent lists what the structural cross-check found: a tree that
	// breaks its own invariants, or whose leaves disagree with its table —
	// an id missing, extra or twice, an entry under other bounds than its
	// item's, a vertex that does not belong to a live non-rectangle. Pages
	// can all pass their checksums while an index is wrong like this.
	Inconsistent []string `json:"inconsistent,omitempty"`
	// Duration is the wall time of the pass.
	Duration time.Duration `json:"duration"`
}

// Clean reports whether the pass found no corruption at all.
func (r ScrubReport) Clean() bool {
	return len(r.CorruptLive) == 0 && len(r.CorruptFree) == 0 && len(r.Inconsistent) == 0
}

// scrubBatch is how many pages one read-locked scan step verifies before
// releasing the update lock, bounding how long the scrubber can hold off a
// mutator or checkpoint.
const scrubBatch = 256

// Scrub verifies every allocated page of the data file against its stored
// checksum, online: the database keeps serving queries and mutations
// throughout, and the scrubber yields the update lock between batches. Pages
// reachable from the live trees and the state blob that fail verification
// are reported as CorruptLive (replay cannot fix them — the WAL is truncated
// at each checkpoint — so the report is the alarm); corrupt pages on the
// free list are quarantined so they are never handed to fresh data. Before
// the page pass, every set of the current version is cross-checked against
// its trees in O(pages) (core's Check: each tree's invariants, then the leaf
// scan a reopen would run); what disagrees is reported as Inconsistent.
// Works on a degraded database (it only reads, and quarantining touches no
// device state).
func (db *Database) Scrub(ctx context.Context) (ScrubReport, error) {
	s := db.store
	if s == nil {
		return ScrubReport{}, ErrNotPersistent
	}
	start := time.Now()
	var rep ScrubReport

	// Snapshot the live page set under the read lock: no checkpoint or
	// mutator can move pages while it is held, so the set is one consistent
	// world. Walking a tree reads its pages — a corrupt live page surfaces
	// right here as ErrCorruptPage, which the walk folds into the report
	// rather than failing the scrub.
	db.updateMu.RLock()
	if s.closed {
		db.updateMu.RUnlock()
		return rep, ErrDatabaseClosed
	}
	frontier := s.fs.Frontier()
	live := make(map[pagefile.PageID]struct{})
	var walkErr error
	note := func(err error) {
		var ce pagefile.ErrCorruptPage
		if errors.As(err, &ce) {
			rep.CorruptLive = append(rep.CorruptLive, ce.ID)
			live[ce.ID] = struct{}{}
			return
		}
		if walkErr == nil {
			walkErr = err
		}
	}
	for _, t := range db.trees() {
		ids, err := t.Pages(nil)
		for _, id := range ids {
			live[id] = struct{}{}
		}
		if err != nil {
			note(err)
		}
	}
	if ids, err := catalog.BlobChain(s.tx, s.super.State); err != nil {
		note(err)
	} else {
		for _, id := range ids {
			live[id] = struct{}{}
		}
	}
	db.updateMu.RUnlock()
	if walkErr != nil {
		return rep, fmt.Errorf("obstacles: scrub walking live pages: %w", walkErr)
	}
	rep.Live = len(live)

	// The cross-check only reads trees, so it runs on a pinned version, as
	// queries and backups do, and holds off no mutator.
	v := db.pin()
	checks := map[string]func() error{"obstacles": v.obst.Check}
	for name, ps := range v.datasets {
		checks[fmt.Sprintf("dataset %q", name)] = ps.Check
	}
	for what, check := range checks {
		// A corrupt page fails its checksum in the pass below.
		if err := check(); err != nil && !errors.As(err, new(pagefile.ErrCorruptPage)) {
			rep.Inconsistent = append(rep.Inconsistent, fmt.Sprintf("%s: %v", what, err))
		}
	}
	db.unpin(v)

	// Scan the whole allocated range in batches, re-verifying each page's
	// stored checksum. Data-file bytes only change under the updateMu write
	// side (checkpoint write-back), so holding the read side per batch rules
	// out torn-read false positives while letting mutators in between.
	seen := make(map[pagefile.PageID]struct{}, len(rep.CorruptLive))
	for _, id := range rep.CorruptLive {
		seen[id] = struct{}{}
	}
	for lo := pagefile.PageID(1); lo < frontier; lo += scrubBatch {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		hi := lo + scrubBatch
		if hi > frontier {
			hi = frontier
		}
		db.updateMu.RLock()
		if s.closed {
			db.updateMu.RUnlock()
			return rep, ErrDatabaseClosed
		}
		for id := lo; id < hi; id++ {
			err := s.fs.VerifyPage(id)
			rep.Scanned++
			if err == nil {
				continue
			}
			var ce pagefile.ErrCorruptPage
			if !errors.As(err, &ce) {
				db.updateMu.RUnlock()
				return rep, fmt.Errorf("obstacles: scrub reading page %d: %w", id, err)
			}
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			if _, isLive := live[id]; isLive {
				rep.CorruptLive = append(rep.CorruptLive, id)
			} else {
				rep.CorruptFree = append(rep.CorruptFree, id)
			}
		}
		db.updateMu.RUnlock()
	}

	// Quarantine corrupt free pages in one write-locked step: under the
	// write side the free list is stable, and Quarantine itself rejects any
	// page a mutator allocated since the scan classified it.
	if len(rep.CorruptFree) > 0 {
		db.updateMu.Lock()
		if !s.closed {
			for _, id := range rep.CorruptFree {
				if s.fs.Quarantine(id) {
					rep.Quarantined = append(rep.Quarantined, id)
				}
			}
		}
		db.updateMu.Unlock()
	}

	sort.Slice(rep.CorruptLive, func(i, j int) bool { return rep.CorruptLive[i] < rep.CorruptLive[j] })
	sort.Strings(rep.Inconsistent)
	rep.Duration = time.Since(start)
	db.tel.scrubs.Inc()
	db.tel.scrubPages.Add(uint64(rep.Scanned))
	db.tel.scrubCorrupt.Add(uint64(len(rep.CorruptLive) + len(rep.CorruptFree)))
	return rep, nil
}
