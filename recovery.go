package obstacles

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/pagefile"
	"repro/internal/wal"
)

// ErrDegraded marks errors returned by mutators while the database is in
// degraded mode: a durable-commit failure poisoned the handle, reads keep
// serving the last published generation, and every mutation fails fast until
// in-place recovery (Recover, or the Options.AutoRecover supervisor) rebuilds
// the durable state from disk. Match with errors.Is; errors.As against
// *DegradedError recovers the original fault and the recovery status.
var ErrDegraded = errors.New("obstacles: database is degraded (read-only)")

// DegradedError is the typed error degraded-mode mutations return: the first
// durable fault that poisoned the handle and a snapshot of the recovery
// supervisor's progress at the time of the call. It matches ErrDegraded and
// its cause under errors.Is.
type DegradedError struct {
	// Cause is the first durable failure, preserved verbatim across every
	// later mutation attempt.
	Cause error
	// Recovery is the recovery status when the mutation was rejected; when
	// Recovery.NextRetry is set, the supervisor will attempt recovery then.
	Recovery RecoveryStats
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("%v: %v", ErrDegraded, e.Cause)
}

func (e *DegradedError) Unwrap() []error {
	return []error{ErrDegraded, e.Cause}
}

// RecoveryStats describes degraded mode and the in-place recovery machinery,
// as reported by Database.RecoveryStats, /debug/vars and the degraded-mode
// error itself.
type RecoveryStats struct {
	// Degraded reports whether the handle is currently poisoned (mutations
	// fail, reads serve the last published generation).
	Degraded bool `json:"degraded"`
	// Cause is the first durable fault, empty when healthy.
	Cause string `json:"cause,omitempty"`
	// AutoRecover reports whether the background supervisor is enabled.
	AutoRecover bool `json:"auto_recover"`
	// Attempts counts recovery attempts (manual and automatic); Recoveries
	// counts the ones that restored a writable database.
	Attempts   uint64 `json:"attempts"`
	Recoveries uint64 `json:"recoveries"`
	// LastError is the most recent failed attempt's error, empty when the
	// last attempt succeeded or none ran yet.
	LastError string `json:"last_error,omitempty"`
	// LastAttempt is when the last attempt started; NextRetry when the
	// supervisor will try again (zero when no retry is scheduled).
	LastAttempt time.Time `json:"last_attempt"`
	NextRetry   time.Time `json:"next_retry"`
}

// recoveryStatsLocked snapshots the recovery status. Caller holds s.cmu.
func (s *durableStore) recoveryStatsLocked() RecoveryStats {
	rs := RecoveryStats{
		AutoRecover: s.autoRecover,
		Attempts:    s.recoverAttempts,
		Recoveries:  s.recoverCount,
		LastAttempt: s.recoverLast,
		NextRetry:   s.recoverNext,
	}
	if s.broken != nil {
		rs.Degraded = true
		rs.Cause = s.broken.Error()
	}
	if s.recoverLastErr != nil {
		rs.LastError = s.recoverLastErr.Error()
	}
	return rs
}

// degraded wraps the poison cause into the typed degraded-mode error.
func (s *durableStore) degraded(cause error) error {
	s.cmu.Lock()
	rs := s.recoveryStatsLocked()
	s.cmu.Unlock()
	return &DegradedError{Cause: cause, Recovery: rs}
}

// degradedCheckLocked fails a mutation fast when the handle is poisoned,
// before it touches any in-memory state — degraded reads must keep answering
// exactly the last published generation, so a rejected mutation must not
// publish anything. Callers hold the updateMu write side.
func (db *Database) degradedCheckLocked() error {
	s := db.store
	if s == nil {
		return nil
	}
	if err := s.brokenErr(); err != nil {
		return s.degraded(err)
	}
	return nil
}

// Degraded reports whether the database is in degraded (read-only) mode.
// Always false for in-memory databases.
func (db *Database) Degraded() bool {
	return db.store != nil && db.store.brokenErr() != nil
}

// RecoveryStats returns the degraded-mode and recovery status. The zero
// value for in-memory databases.
func (db *Database) RecoveryStats() RecoveryStats {
	s := db.store
	if s == nil {
		return RecoveryStats{}
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.recoveryStatsLocked()
}

// Recover attempts in-place recovery of a degraded database: the poisoned
// generation's overlay is detached (readers pinned to published generations
// keep answering from the frozen copy), the WAL is re-opened and its
// committed prefix replayed onto the data file, the trees re-attach at the
// recovered roots, and a fresh durable layer is swapped in under the update
// lock. Acknowledged commits all survive; mutations that failed (or were
// published in memory but never acknowledged) are discarded. The attempt
// finishes with a full checkpoint — a durability probe — so a database that
// recovers is genuinely writable, not just optimistically unpoisoned.
//
// A no-op when the database is healthy or in-memory. On failure the database
// stays degraded and Recover can be called again; Options.AutoRecover runs
// exactly this under capped exponential backoff.
func (db *Database) Recover() error {
	s := db.store
	if s == nil {
		return nil
	}
	db.updateMu.Lock()
	defer db.updateMu.Unlock()
	if s.closed {
		return ErrDatabaseClosed
	}
	if s.brokenErr() == nil {
		s.cmu.Lock()
		s.recoverNext = time.Time{}
		s.cmu.Unlock()
		return nil
	}
	s.cmu.Lock()
	s.recoverAttempts++
	s.recoverLast = time.Now()
	s.cmu.Unlock()
	start := time.Now()
	err := db.recoverLocked()
	s.cmu.Lock()
	s.recoverLastErr = err
	if err == nil {
		s.recoverCount++
		s.recoverNext = time.Time{}
	}
	s.cmu.Unlock()
	if err == nil {
		db.tel.recoverySeconds.ObserveDuration(time.Since(start))
	}
	return err
}

// recoverLocked is one recovery attempt. Callers hold the updateMu write
// side and have verified the handle is poisoned and not closed.
func (db *Database) recoverLocked() error {
	s := db.store
	// Resolve every parked ticket first: with the handle poisoned the
	// committer fails tickets without touching the WAL, so after this drain
	// the log has no concurrent user and the queue stays empty (staging
	// requires updateMu, which we hold).
	db.flushCommitsLocked()

	// Freeze the poisoned generation's overlay into a self-contained
	// snapshot. Readers pinned to published generations read through it, so
	// replay and checkpoint below may rewrite the data file underneath them.
	s.tx.Detach(s.fs.Frontier())

	// The disk superblock is the recovery root — the in-memory copy may
	// describe a checkpoint that never fully reached the platters.
	sb, err := s.fs.ReadSuperblock()
	if err != nil {
		return fmt.Errorf("obstacles: recovery reading superblock: %w", err)
	}

	// The load step Open runs, over a fresh WAL handle on the same file (the
	// old log's buffered state is unusable after a failed append, and the WAL
	// file carries no lock: the data-file flock is the handle's exclusivity
	// token; closing the old fd twice across retries is harmless), with two
	// pieces of knowledge a cold open lacks. Redo stops at the last seq whose
	// commit fsync was acknowledged to a caller: records past it were
	// appended by commits that reported failure, and replaying them would
	// resurrect mutations their callers were told did not happen. And the
	// obstacle set comes back at a generation strictly above every epoch the
	// old in-memory state ever published, so pinned readers can never confuse
	// a pre-fault epoch with a post-recovery one.
	_ = s.log.Load().Close()
	s.cmu.Lock()
	ackSeq := s.durableSeq
	s.cmu.Unlock()
	ld, err := load(s.path, s.fs, sb, db.opts, ackSeq, db.obstSet.Generation()+1)
	if err != nil {
		return fmt.Errorf("obstacles: recovery: %w", err)
	}
	ld.obstSet.EnableCOW()
	for _, set := range ld.datasets {
		set.EnableCOW()
	}

	// Swap. From here the new state is live: the fresh log is installed, the
	// recovered sets replace the run-ahead in-memory ones (mutators
	// re-resolve their dataset under updateMu, so none can write to an
	// orphaned tree), and the generation moves strictly forward so the new
	// version outranks everything published before the fault.
	db.mu.Lock()
	db.obstSet = ld.obstSet
	db.datasets = ld.datasets
	db.mu.Unlock()
	db.engine.ReplaceObstacles(ld.obstSet)
	db.gen.Add(1)

	seq := max(sb.Seq, ld.rs.lastSeq)
	s.tx = ld.tx
	s.log.Store(ld.log)
	db.installWALHook(ld.log)
	s.super = sb
	s.seq = seq
	s.logged = ld.rs.logged
	s.dirtyDatasets = make(map[string]struct{})
	s.lastCheckpointErr = nil
	s.cmu.Lock()
	s.durableSeq = seq
	s.cmu.Unlock()
	db.publishVersion()

	// Durability probe: fold the replayed WAL into the data file and
	// truncate it. A checkpoint exercises page write-back, both data fsyncs
	// and the WAL truncation, so passing it means the device genuinely
	// accepts writes again. The handle stays poisoned, with its first cause,
	// until the probe has passed: Degraded, RecoveryStats, readiness and the
	// mutation gate all read s.broken, so each flips once, here, and none can
	// read healthy between two failed attempts. After a failed probe the next
	// attempt starts over from the (unchanged) disk state.
	if err := db.foldWALLocked(time.Now()); err != nil {
		return fmt.Errorf("obstacles: recovery checkpoint: %w", err)
	}
	s.cmu.Lock()
	s.broken = nil
	s.cmu.Unlock()
	return nil
}

// startRecovery launches the auto-recovery supervisor (Options.AutoRecover).
func (db *Database) startRecovery() {
	db.recoverStop = make(chan struct{})
	db.recoverDone = make(chan struct{})
	go db.recoveryLoop()
}

// stopRecovery signals the supervisor to exit. Idempotent; safe when the
// supervisor was never started.
func (db *Database) stopRecovery() {
	if db.recoverStop != nil {
		db.recoverStopOnce.Do(func() { close(db.recoverStop) })
	}
}

// recoveryLoop is the auto-recovery supervisor: woken by the first durable
// fault, it retries in-place recovery under capped exponential backoff with
// jitter until the database is writable again, then goes back to sleep until
// the next fault. Exits at Close.
func (db *Database) recoveryLoop() {
	defer close(db.recoverDone)
	s := db.store
	for {
		select {
		case <-db.recoverStop:
			return
		case <-s.degradedCh:
		}
		backoff := db.opts.RecoverBackoff
		for {
			// Jitter on [backoff/2, backoff] decorrelates retry storms when
			// many handles share a struggling device.
			d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			s.cmu.Lock()
			s.recoverNext = time.Now().Add(d)
			s.cmu.Unlock()
			t := time.NewTimer(d)
			select {
			case <-db.recoverStop:
				t.Stop()
				return
			case <-t.C:
			}
			err := db.Recover()
			if err == nil {
				break
			}
			if errors.Is(err, ErrDatabaseClosed) {
				return
			}
			backoff *= 2
			if backoff > db.opts.RecoverMaxBackoff {
				backoff = db.opts.RecoverMaxBackoff
			}
		}
	}
}

// faultWALFile interposes a programmable fault injector between the log and
// its file — the WAL half of the chaos harness (Options.Chaos); the injector
// instruments the data file directly (FileStorage.SetInjector).
type faultWALFile struct {
	f   wal.File
	inj *pagefile.Injector
}

func (w *faultWALFile) Write(p []byte) (int, error) {
	if inj := w.inj.Check(pagefile.OpWALWrite); inj != nil {
		if inj.Torn > 0 && inj.Torn < len(p) {
			n, _ := w.f.Write(p[:inj.Torn])
			return n, fmt.Errorf("%w: torn WAL write (%d of %d bytes)", inj.Err, n, len(p))
		}
		return 0, fmt.Errorf("%w: WAL write of %d bytes", inj.Err, len(p))
	}
	return w.f.Write(p)
}

func (w *faultWALFile) ReadAt(p []byte, off int64) (int, error) {
	return w.f.ReadAt(p, off)
}

func (w *faultWALFile) Sync() error {
	if inj := w.inj.Check(pagefile.OpWALSync); inj != nil {
		return fmt.Errorf("%w: WAL fsync", inj.Err)
	}
	return w.f.Sync()
}

func (w *faultWALFile) Truncate(size int64) error { return w.f.Truncate(size) }

func (w *faultWALFile) Close() error { return w.f.Close() }
