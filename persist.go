package obstacles

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/pagefile"
	"repro/internal/rtree"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// ErrDatabaseClosed is returned by mutators, Checkpoint and commit paths
// after Close. Queries on a closed Database are undefined (warm buffers may
// still answer some; cold reads fail on the closed file).
var ErrDatabaseClosed = errors.New("obstacles: database is closed")

// PersistStats describes the durable backend of a Database.
type PersistStats struct {
	// Path is the data file; the write-ahead log lives at Path + ".wal".
	Path string
	// WALBytes is the durable length of the write-ahead log (zero right
	// after a checkpoint).
	WALBytes int64
	// FilePages is the number of allocated pages in the data file;
	// PendingPages of them are committed to the WAL but not yet written
	// back (they are applied at the next checkpoint).
	FilePages, PendingPages int
	// Seq is the sequence number of the most recent durable commit.
	Seq uint64
	// LastCheckpointErr is the most recent automatic-checkpoint failure,
	// nil once a later checkpoint succeeds. Auto-checkpoint errors never
	// fail the mutator that triggered them (the mutation itself is already
	// durable, and the checkpoint is retried); they surface here.
	LastCheckpointErr error
}

// commitTicket is one staged commit parked in the group-commit queue: the
// WAL transaction to write, and a channel the committer closes once the
// transaction is durable (or the batch failed).
type commitTicket struct {
	tx   wal.BatchTx
	err  error
	done chan struct{}
	// span is the staging mutator's request span (nil when untraced); the
	// stage and park stages of the commit are recorded as its children.
	span *telemetry.Span
	// leaderTrace is the trace id of the goroutine that wrote this ticket's
	// batch, stamped by writeBatch before the ticket wakes: a rider links it
	// so its trace points at the trace that actually paid for the fsync.
	// Written before close(done), read only after <-done.
	leaderTrace telemetry.TraceID
}

// durableStore holds the persistence machinery of one open database file:
// the raw page file, the transactional overlay all R-trees write through,
// the write-ahead log, and the group-commit queue. See the commit protocol
// on stageCommitLocked/awaitTicket and the checkpoint protocol on
// checkpointLocked.
type durableStore struct {
	path string
	fs   *pagefile.FileStorage
	tx   *pagefile.TxStorage
	// log is the live write-ahead log. An atomic pointer because in-place
	// recovery swaps in a fresh log under the updateMu write side while
	// lock-free readers (the auto-checkpoint size probe, the wal_bytes
	// gauge) may be sampling it.
	log atomic.Pointer[wal.Log]
	// tel is the owning Database's telemetry (set right after construction,
	// before any commit or checkpoint can run).
	tel *dbMetrics

	// Commit-pipeline configuration, immutable once mutators run. maxDelay
	// caps the committer's absorb window (see drainQueue); zero, the only
	// value outside tests, is adaptive.
	maxDelay       time.Duration
	autoCheckpoint int64

	// The fields below are guarded by Database.updateMu: only mutators
	// (staging a commit) and checkpoints touch them, and both hold the
	// write side.
	super             pagefile.Superblock // current checkpoint superblock
	seq               uint64              // last assigned commit sequence number
	lastCheckpointErr error
	closed            bool
	// logged is the set of pages with images in the live WAL. Checkpoint
	// blob chains must avoid them: replay re-applies those images, and a
	// crash between the checkpoint's superblock write and its WAL
	// truncation must not let an old page image land on a live blob page.
	logged map[pagefile.PageID]struct{}

	// The commit queue, with its own lock: mutators enqueue while holding
	// updateMu, the committer drains after they release it.
	qmu   sync.Mutex
	queue []*commitTicket
	// leaderTok is a one-slot semaphore electing the committer among
	// parked mutators (and the checkpoint path, which drains the queue
	// before touching the WAL).
	leaderTok chan struct{}

	// The poison flag and the acknowledged sequence number, with their own
	// lock: the committer updates them outside updateMu.
	cmu        sync.Mutex
	broken     error
	durableSeq uint64
	// Recovery bookkeeping, also under cmu. autoRecover is immutable;
	// degradedCh (one-slot, never closed) wakes the recovery supervisor when
	// the handle poisons.
	autoRecover     bool
	degradedCh      chan struct{}
	recoverAttempts uint64
	recoverCount    uint64
	recoverLastErr  error
	recoverLast     time.Time
	recoverNext     time.Time

	// Adaptive batching state (atomics; read lock-free by committers).
	// lastBatch predicts how many commits are about to arrive — mutators
	// woken by the previous fsync re-stage almost immediately — and
	// fsyncEWMA (microseconds) bounds how long a committer will wait for
	// them: waiting a fraction of an fsync to share one is always worth it.
	lastBatch atomic.Int64
	fsyncEWMA atomic.Int64
	// fsyncSpan is the batch leader's span while its WAL append is in
	// flight; the wal sync hook reads it to file the fsync syscall as a
	// child span. Cleared before tickets wake.
	fsyncSpan atomic.Pointer[telemetry.Span]
}

// maxCommitBatch caps how many commits one WAL fsync may cover.
const maxCommitBatch = 64

// Open opens (creating if missing) a durable Database stored in the file at
// path, with its write-ahead log at path + ".wal". Opening an existing file
// skips bulk-loading entirely: trees re-attach to their pages, and point
// sets and obstacle polygons are recovered by scanning leaves (a rectangle
// is its obstacle-tree leaf, any other polygon is also a run of vertex-tree
// leaves). Any transactions committed to the WAL but not yet checkpointed —
// a crash between WAL fsync and write-back — are replayed first (page
// images onto the data file, and the catalog state the last of them logged),
// so the database reopens at the last acknowledged mutation.
//
// A Database from Open behaves like one from NewDatabase, except that every
// mutator (InsertPoints, DeletePoints, AddObstacles, RemoveObstacles,
// AddDataset) is durable before it returns: the mutation's dirty pages and
// catalog state are staged to a commit queue, and a committer batches
// queued commits from concurrent mutators into one WAL write and one fsync
// (group commit; see mutate and drainQueue).
// Close checkpoints and releases the files; Checkpoint bounds the WAL and
// recovery time.
//
// For an existing file the page size recorded in it wins; Options.PageSize
// must then be zero or agree.
//
// A database file admits one live handle at a time: Open takes an
// exclusive flock on it (released by Close, or automatically when the
// process dies), and a second Open — same process or another — fails with
// an error wrapping pagefile.ErrFileLocked.
func Open(path string, opts Options) (*Database, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	fs, sb, created, err := pagefile.OpenFileStorage(path, opts.PageSize)
	if err != nil {
		return nil, fmt.Errorf("obstacles: opening %s: %w", path, err)
	}
	opts.PageSize = sb.PageSize
	opts = opts.withDefaults()
	// The chaos injector instruments the data file directly and wraps the
	// WAL handle (see load), so one injector programs faults across the
	// whole durable path.
	fs.SetInjector(opts.Chaos)

	ld, err := load(path, fs, sb, opts, math.MaxUint64, 0)
	if err != nil {
		fs.Close()
		return nil, fmt.Errorf("obstacles: opening %s: %w", path, err)
	}
	db := &Database{
		opts:     opts,
		engine:   core.NewEngine(ld.obstSet, core.DefaultEngineOptions()),
		obstSet:  ld.obstSet,
		datasets: ld.datasets,
	}
	db.tel = newDBMetrics(db)
	db.gen.Store(ld.rs.state.Generation)
	db.initVersions()
	seq := max(sb.Seq, ld.rs.lastSeq)
	db.store = &durableStore{
		path:           path,
		fs:             fs,
		tx:             ld.tx,
		autoCheckpoint: opts.WALCheckpointBytes,
		super:          sb,
		seq:            seq,
		logged:         ld.rs.logged,
		leaderTok:      make(chan struct{}, 1),
		autoRecover:    opts.AutoRecover,
		degradedCh:     make(chan struct{}, 1),
	}
	db.store.log.Store(ld.log)
	db.store.durableSeq = seq
	db.store.tel = db.tel
	db.installWALHook(ld.log)
	if created || ld.rs.replayed > 0 || sb.State.Root == pagefile.InvalidPage {
		// A fresh file checkpoints the empty state so a crash right after
		// Open reopens it; a replayed file finishes recovery with a full
		// checkpoint, writing the replayed state as a fresh state blob and
		// truncating the log.
		db.updateMu.Lock()
		err := db.checkpointLocked()
		db.updateMu.Unlock()
		if err != nil {
			ld.log.Close()
			fs.Close()
			return nil, err
		}
	}
	if opts.AutoRecover {
		db.startRecovery()
	}
	return db, nil
}

// loaded is the durable state one load step rebuilt: the open WAL, what redo
// reconstructed from it, and the obstacle set and datasets re-attached over a
// fresh transactional overlay.
type loaded struct {
	log      *wal.Log
	rs       *redoState
	tx       *pagefile.TxStorage
	obstSet  *core.ObstacleSet
	datasets map[string]*core.PointSet
}

// load is the step Open and in-place recovery share: open the WAL at
// path + ".wal" (behind the Options.Chaos injector when one is armed), redo
// its commits up to maxSeq onto fs, start a new TxStorage, create or attach
// the obstacle set, attach the datasets, and size every tree's buffer. The
// rebuilt obstacle set's generation is at least genFloor. On error the WAL
// is closed again; fs stays open either way.
func load(path string, fs *pagefile.FileStorage, sb pagefile.Superblock, opts Options, maxSeq, genFloor uint64) (ld *loaded, err error) {
	wf, wsize, err := wal.OpenOSFile(path + ".wal")
	if err != nil {
		return nil, fmt.Errorf("opening WAL: %w", err)
	}
	if opts.Chaos != nil {
		wf = &faultWALFile{f: wf, inj: opts.Chaos}
	}
	log := wal.NewLog(wf, wsize)
	defer func() {
		if err != nil {
			log.Close()
		}
	}()
	ld = &loaded{log: log}
	if ld.rs, err = redo(fs, log, sb, maxSeq); err != nil {
		return nil, err
	}
	ld.tx = pagefile.NewTxStorage(fs)
	topts := rtree.Options{PageSize: sb.PageSize, Storage: ld.tx}

	// A file that never checkpointed has no obstacle record: its obstacle
	// set starts as two empty trees.
	metas, idBound, gen := []*catalog.TreeMeta{nil, nil}, int64(0), genFloor
	if o := ld.rs.state.Obstacles; o != nil {
		metas, idBound, gen = []*catalog.TreeMeta{&o.Tree, &o.Verts}, o.IDBound, max(gen, o.Generation)
	}
	trees := make([]*rtree.Tree, len(metas))
	for i, m := range metas {
		if trees[i], err = openTree(topts, m); err != nil {
			return nil, fmt.Errorf("opening obstacle trees: %w", err)
		}
	}
	if ld.obstSet, err = core.AttachObstacleSet(trees[0], trees[1], idBound, gen); err != nil {
		return nil, err
	}
	sizeBuffer(opts.BufferFraction, trees...)
	if ld.datasets, err = attachDatasets(topts, ld.rs.state, opts.BufferFraction); err != nil {
		return nil, err
	}
	return ld, nil
}

// redoState is the durable state redo reconstructs from the data file and
// the WAL.
type redoState struct {
	// state is the catalog of the last replayed commit, or the checkpoint's
	// when no commit above it was replayed (empty for a file that never
	// checkpointed).
	state *catalog.State
	// logged is the set of pages with images in the WAL.
	logged map[pagefile.PageID]struct{}
	// replayed counts the WAL transactions applied; lastSeq is the sequence
	// number of the last one (zero when none).
	replayed int
	lastSeq  uint64
}

// redo is the recovery pass shared by Open and in-place recovery. It applies
// every committed page image to the data file (Replay truncates the torn
// tail past the last commit record), reads the checkpoint catalog sb points
// at, takes the catalog state logged by the last group above sb.Seq in its
// place, and installs that state's allocation state. Groups at or below
// sb.Seq are already in the blob: a crash between a checkpoint's superblock
// write and its WAL truncation leaves exactly that overlap, and checkpoints
// run with the queue drained, so a group never straddles the boundary.
// Transactions above maxSeq are skipped: in-place recovery passes the last
// acknowledged sequence number so commits whose callers were told they
// failed are not resurrected.
func redo(fs *pagefile.FileStorage, log *wal.Log, sb pagefile.Superblock, maxSeq uint64) (*redoState, error) {
	var last []byte // the catalog record of the last group above sb.Seq
	rs := &redoState{state: &catalog.State{}, logged: make(map[pagefile.PageID]struct{})}
	err := log.Replay(func(tx wal.Tx) error {
		if tx.Seq > maxSeq {
			return nil
		}
		for _, p := range tx.Pages {
			if len(p.Data) != sb.PageSize {
				return fmt.Errorf("wal page %d has %d bytes, page size is %d", p.ID, len(p.Data), sb.PageSize)
			}
			if err := fs.WritePage(pagefile.PageID(p.ID), p.Data); err != nil {
				return err
			}
			rs.logged[pagefile.PageID(p.ID)] = struct{}{}
		}
		if n := len(tx.Deltas); tx.Seq > sb.Seq && n > 0 {
			last = append(last[:0], tx.Deltas[n-1]...)
		}
		rs.replayed++
		rs.lastSeq = tx.Seq
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("replaying WAL: %w", err)
	}

	// Read the checkpoint catalog even when a commit supersedes it: its
	// chain is retired by the next checkpoint, so it must be intact. A root
	// of zero means the file was created but never checkpointed.
	if sb.State.Root != pagefile.InvalidPage {
		blob, err := catalog.ReadBlob(fs, sb.State)
		if err != nil {
			return nil, fmt.Errorf("reading state catalog: %w", err)
		}
		if rs.state, err = catalog.DecodeState(blob); err != nil {
			return nil, err
		}
	}
	if last != nil {
		if rs.state, err = catalog.DecodeState(last); err != nil {
			return nil, fmt.Errorf("decoding the catalog of commit %d: %w", rs.lastSeq, err)
		}
	}
	fs.SetAllocState(rs.state.Next, rs.state.PageFree)
	return rs, nil
}

// openTree re-attaches the tree m locates, or makes an empty one when m is
// nil.
func openTree(topts rtree.Options, m *catalog.TreeMeta) (*rtree.Tree, error) {
	if m == nil {
		return rtree.New(topts)
	}
	return rtree.Attach(topts, m.Root, m.Height, m.Size)
}

// attachDatasets re-attaches every dataset the recovered catalog names to its
// tree pages, rebuilding the point sets by scanning leaves.
func attachDatasets(topts rtree.Options, state *catalog.State, bufferFraction float64) (map[string]*core.PointSet, error) {
	sets := make(map[string]*core.PointSet, len(state.Datasets))
	for _, ds := range state.Datasets {
		tree, err := openTree(topts, &ds.Tree)
		if err != nil {
			return nil, fmt.Errorf("attaching dataset %q: %w", ds.Name, err)
		}
		set, err := core.AttachPointSet(tree, ds.IDBound)
		if err != nil {
			return nil, fmt.Errorf("recovering dataset %q: %w", ds.Name, err)
		}
		sizeBuffer(bufferFraction, tree)
		sets[ds.Name] = set
	}
	return sets, nil
}

// installWALHook makes the log report every commit-path fsync's syscall
// latency straight into the histogram (checkpoint truncation is not hooked:
// Reset syncs directly and is accounted under checkpoint duration), and into
// the batch leader's trace when one is in flight. Called at Open and again
// by recovery for each fresh log.
func (db *Database) installWALHook(log *wal.Log) {
	log.SetSyncHook(func(d time.Duration) {
		db.tel.fsyncSeconds.ObserveDuration(d)
		db.store.fsyncSpan.Load().ChildDur("fsync", time.Now().Add(-d), d)
	})
}

// Persistent reports whether the database is backed by a durable file.
func (db *Database) Persistent() bool { return db.store != nil }

// PersistStats returns the durable backend's current state; the zero value
// for an in-memory database. Process-lifetime counts (commits, fsyncs,
// checkpoints) are on /metrics.
func (db *Database) PersistStats() PersistStats {
	s := db.store
	if s == nil {
		return PersistStats{}
	}
	db.updateMu.RLock()
	out := PersistStats{
		Path:              s.path,
		WALBytes:          s.log.Load().Size(),
		FilePages:         s.fs.NumPages(),
		PendingPages:      s.tx.PendingPages(),
		LastCheckpointErr: s.lastCheckpointErr,
	}
	db.updateMu.RUnlock()
	s.cmu.Lock()
	out.Seq = s.durableSeq
	s.cmu.Unlock()
	return out
}

// Checkpoint writes every committed page back to the data file, rewrites
// the state blob, fsyncs, and truncates the write-ahead log, bounding
// recovery time and WAL size. Obstacles cost it nothing beyond their dirty
// tree pages: their polygons live in the trees, and the state blob carries
// only the obstacle record. It is a no-op on an in-memory database. A
// failed checkpoint leaves the database fully usable: the WAL still covers
// everything, and the checkpoint can simply be retried.
func (db *Database) Checkpoint() error {
	if db.store == nil {
		return nil
	}
	db.updateMu.Lock()
	defer db.updateMu.Unlock()
	return db.checkpointLocked()
}

// Close checkpoints (when healthy) and releases the data file and WAL. It
// is a no-op on an in-memory database. After Close, mutators fail with
// ErrDatabaseClosed and query behavior is undefined.
func (db *Database) Close() error {
	s := db.store
	if s == nil {
		return nil
	}
	// Signal the recovery supervisor before taking the update lock — it may
	// be mid-attempt holding it — and join it only after releasing the lock
	// (a supervisor blocked on updateMu must get in, see closed, and exit).
	db.stopRecovery()
	firstErr, closed := db.closeStore()
	if closed && db.recoverDone != nil {
		<-db.recoverDone
	}
	return firstErr
}

// closeStore runs the locked part of Close; closed reports whether this call
// did the work (false when another Close already had).
func (db *Database) closeStore() (error, bool) {
	s := db.store
	db.updateMu.Lock()
	defer db.updateMu.Unlock()
	if s.closed {
		return nil, false
	}
	// Drain the commit queue even on a poisoned handle so no mutator stays
	// parked on a ticket; on a healthy handle the checkpoint below drains
	// it anyway before touching the WAL.
	db.flushCommitsLocked()
	var firstErr error
	if s.brokenErr() == nil {
		firstErr = db.checkpointLocked()
	}
	if err := s.log.Load().Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.fs.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.closed = true
	return firstErr, true
}

// brokenErr returns the poison error, if any.
func (s *durableStore) brokenErr() error {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.broken
}

// awaitCommit is the parked half of the commit protocol (see mutate): called
// after the update lock is released, it waits on the staged ticket until a
// committer has made the commit durable (sharing the fsync with every other
// commit in the batch), then runs the auto-checkpoint if the WAL crossed its
// threshold.
func (db *Database) awaitCommit(tk *commitTicket) error {
	start := time.Now()
	err := db.store.awaitTicket(tk)
	db.tel.ackSeconds.ObserveDuration(time.Since(start))
	if sp := tk.span; sp != nil {
		sp.ChildDur("park", start, time.Since(start))
		// A rider's commit was made durable under another goroutine's
		// trace: link it, so the flight recorder can be followed from the
		// waiter to the fsync that covered it.
		if lt := tk.leaderTrace; lt != sp.Trace().ID() {
			sp.AddLink(lt)
		}
	}
	if err != nil {
		return err
	}
	db.maybeAutoCheckpoint(tk.span)
	return nil
}

// stageCommitLocked builds the commit for everything the current mutation
// changed — flushing tree buffers, capturing the dirty page images, and
// encoding the catalog state of the version the mutation just published —
// assigns it the next sequence number, and enqueues it. Callers hold the
// updateMu write side, which is what orders staging: queue order equals
// sequence order equals WAL order.
func (db *Database) stageCommitLocked(sp *telemetry.Span) (*commitTicket, error) {
	s := db.store
	if s.closed {
		return nil, ErrDatabaseClosed
	}
	if err := s.brokenErr(); err != nil {
		return nil, s.degraded(err)
	}
	stageStart := time.Now()
	if err := db.flushTreeBuffers(); err != nil {
		s.poison(err)
		return nil, s.degraded(err)
	}
	writes := s.tx.CaptureDirty()
	pages := make([]wal.Page, len(writes))
	for i, w := range writes {
		pages[i] = wal.Page{ID: uint32(w.ID), Data: w.Data}
		s.logged[w.ID] = struct{}{}
	}
	next, free := s.fs.AllocState()
	s.seq++
	tk := &commitTicket{
		tx:   wal.BatchTx{Seq: s.seq, Pages: pages, Delta: catalog.EncodeState(db.published().catalogState(next, free))},
		done: make(chan struct{}),
		span: sp,
	}
	s.tel.stageSeconds.ObserveDuration(time.Since(stageStart))
	sp.ChildDur("stage", stageStart, time.Since(stageStart))
	s.qmu.Lock()
	s.queue = append(s.queue, tk)
	s.qmu.Unlock()
	return tk, nil
}

// catalogState is v's catalog record with the allocation state next, free:
// the one record every commit logs and every checkpoint and backup writes.
// Commits and checkpoints take the published version under the updateMu
// write side, where it is the live state. Datasets are sorted by name, so
// equal states encode to equal bytes.
func (v *dbVersion) catalogState(next pagefile.PageID, free []pagefile.PageID) *catalog.State {
	st := &catalog.State{Generation: v.gen, Next: next, PageFree: free, Obstacles: obstacleMeta(v.obst)}
	for name, ps := range v.datasets {
		st.Datasets = append(st.Datasets, datasetMeta(name, ps))
	}
	sort.Slice(st.Datasets, func(i, j int) bool { return st.Datasets[i].Name < st.Datasets[j].Name })
	return st
}

// treeMeta is the catalog record locating one tree.
func treeMeta(t *rtree.Tree) catalog.TreeMeta {
	return catalog.TreeMeta{Root: t.Root(), Height: t.Height(), Size: t.Len()}
}

// datasetMeta is the catalog record locating one dataset's tree.
func datasetMeta(name string, ps *core.PointSet) catalog.DatasetMeta {
	return catalog.DatasetMeta{Name: name, Tree: treeMeta(ps.Tree()), IDBound: ps.IDBound()}
}

// obstacleMeta is the catalog record locating an obstacle set.
func obstacleMeta(o *core.ObstacleSet) *catalog.ObstacleMeta {
	trees := o.Trees()
	return &catalog.ObstacleMeta{
		Tree:       treeMeta(trees[0]),
		Verts:      treeMeta(trees[1]),
		IDBound:    o.IDBound(),
		Generation: o.Generation(),
	}
}

// awaitTicket parks until the ticket's commit is durable. The caller holds
// no locks. Leadership is elected among the waiters themselves (and the
// checkpoint path): whoever wins the token drains the queue — writing one
// multi-transaction WAL batch per fsync — and wakes every ticket it
// covered, so a mutator never fsyncs alone while others wait behind it.
func (s *durableStore) awaitTicket(tk *commitTicket) error {
	for {
		select {
		case <-tk.done:
			return tk.err
		case s.leaderTok <- struct{}{}:
			s.drainQueue(true, tk)
			<-s.leaderTok
		}
	}
}

// takeBatch moves up to maxCommitBatch-len(batch) queued tickets onto batch.
func (s *durableStore) takeBatch(batch []*commitTicket) []*commitTicket {
	s.qmu.Lock()
	take := maxCommitBatch - len(batch)
	if take > len(s.queue) {
		take = len(s.queue)
	}
	if take > 0 {
		batch = append(batch, s.queue[:take]...)
		s.queue = s.queue[take:]
	}
	if len(s.queue) == 0 {
		s.queue = nil
	}
	s.qmu.Unlock()
	return batch
}

// drainQueue empties the commit queue in batches of at most maxCommitBatch,
// writing and fsyncing each. Callers hold the leader token.
//
// With wait=true the committer absorbs imminent arrivals before fsyncing:
// the mutators a batch acknowledgment wakes re-stage their next commits
// within tens of microseconds, and fsyncing before they land pays one fsync
// per straggler — the failure mode that makes naive group commit degrade
// back to fsync-per-commit. The committer therefore polls the queue until
// it quiesces (one poll window passes with no new arrival — every mutator
// in its commit cycle is now parked in this batch), bounded by half the
// measured fsync cost (or by maxDelay, when a test forces a window): spending
// a fraction of an fsync of latency to share the whole fsync is a win. The
// wait is gated on observed contention — a lone writer (batch of one
// following a batch of one) never waits at all. The checkpoint path drains
// with wait=false.
func (s *durableStore) drainQueue(wait bool, lead *commitTicket) {
	for {
		batch := s.takeBatch(nil)
		if len(batch) == 0 {
			return
		}
		// Wait when contention is evident (this or the previous batch had
		// company) or when a test forced a fixed delay — on a lightly
		// scheduled box the fsync syscall may monopolize the only CPU, so
		// overlap alone cannot always bootstrap batching, and the yield-polls
		// below are what hand waiting mutators the CPU.
		contended := len(batch) > 1 || s.lastBatch.Load() > 1 || s.maxDelay > 0
		if wait && contended && len(batch) < maxCommitBatch {
			budget := s.maxDelay
			if budget == 0 {
				budget = time.Duration(s.fsyncEWMA.Load()) * time.Microsecond / 2
			}
			// Yield-poll rather than sleep: time.Sleep has millisecond
			// granularity on some kernels, while Gosched hands the CPU
			// straight to the re-staging mutators we are waiting for.
			// Quiesce = several consecutive yields with no arrival.
			idle := 0
			for deadline := time.Now().Add(budget); idle < 4 && len(batch) < maxCommitBatch && time.Now().Before(deadline); {
				runtime.Gosched()
				before := len(batch)
				batch = s.takeBatch(batch)
				if len(batch) == before {
					idle++
				} else {
					idle = 0
				}
			}
		}
		s.writeBatch(batch, lead)
	}
}

// writeBatch appends the batch to the WAL as one commit group — shared
// commit record, page images deduplicated across members — fsyncs once,
// then wakes every ticket. On failure nothing in the batch is
// acknowledged: the handle poisons (once — the first error is kept) and
// every ticket in the batch reports the poison error.
func (s *durableStore) writeBatch(batch []*commitTicket, lead *commitTicket) {
	// The WAL append (and the fsync inside it) is the leader goroutine's
	// work; it lands on the leader's span, and every ticket is stamped with
	// the leader's trace id so riders can link it.
	var leadSp *telemetry.Span
	if lead != nil {
		leadSp = lead.span
	}
	err := s.brokenErr()
	if err == nil {
		txs := make([]wal.BatchTx, len(batch))
		for i, tk := range batch {
			txs[i] = tk.tx
		}
		start := time.Now()
		if leadSp != nil {
			s.fsyncSpan.Store(leadSp)
		}
		err = s.log.Load().AppendGroup(txs)
		s.fsyncSpan.Store(nil)
		if leadSp != nil {
			leadSp.ChildDur("wal-append", start, time.Since(start))
			leadSp.SetAttr("batch_size", len(batch))
		}
		// EWMA of the write+fsync cost, the adaptive top-up budget.
		cost := time.Since(start).Microseconds()
		s.fsyncEWMA.Store((3*s.fsyncEWMA.Load() + cost) / 4)
	}
	s.lastBatch.Store(int64(len(batch)))
	if err == nil {
		s.tel.commits.Add(uint64(len(batch)))
		s.tel.fsyncs.Inc()
		if len(batch) > 1 {
			s.tel.groupCommits.Inc()
		}
		s.tel.batchSize.Observe(float64(len(batch)))
	} else {
		s.tel.commitFailures.Inc()
	}
	s.cmu.Lock()
	if err == nil {
		s.durableSeq = batch[len(batch)-1].tx.Seq
	} else {
		s.poisonLocked(err)
		err = &DegradedError{Cause: s.broken, Recovery: s.recoveryStatsLocked()}
	}
	s.cmu.Unlock()
	for _, tk := range batch {
		tk.err = err
		tk.leaderTrace = leadSp.Trace().ID()
		close(tk.done)
	}
}

// poison marks the handle broken with the first error that made the
// in-memory state unrecoverable, and wakes the recovery supervisor.
func (s *durableStore) poison(err error) {
	s.cmu.Lock()
	s.poisonLocked(err)
	s.cmu.Unlock()
}

// poisonLocked is poison for callers holding s.cmu. Only the first error is
// kept.
func (s *durableStore) poisonLocked(err error) {
	if s.broken == nil {
		s.broken = err
		select {
		case s.degradedCh <- struct{}{}:
		default:
		}
	}
}

// flushCommitsLocked drains the commit queue and waits out any in-flight
// batch, so the WAL is quiescent and every staged commit is resolved.
// Callers hold the updateMu write side, which keeps the queue empty after
// the flush (no mutator can stage).
func (db *Database) flushCommitsLocked() {
	s := db.store
	s.leaderTok <- struct{}{}
	s.drainQueue(false, nil)
	<-s.leaderTok
}

// maybeAutoCheckpoint checkpoints when the WAL has crossed the configured
// threshold. Called by mutators after their commit is acknowledged; the
// first of a woken batch to take the update lock does the work and the rest
// see an empty WAL and skip. Checkpoint errors never fail the mutator that
// triggered them (its mutation is already durable); they surface via
// PersistStats.LastCheckpointErr.
func (db *Database) maybeAutoCheckpoint(sp *telemetry.Span) {
	s := db.store
	if s.autoCheckpoint <= 0 || s.log.Load().Size() < s.autoCheckpoint {
		return
	}
	db.updateMu.Lock()
	defer db.updateMu.Unlock()
	if s.closed || s.log.Load().Size() < s.autoCheckpoint {
		return
	}
	start := time.Now()
	s.lastCheckpointErr = db.checkpointLocked()
	sp.ChildDur("checkpoint", start, time.Since(start))
}

// checkpointLocked folds the WAL into the data file: every committed page
// image is written back, the state blob is rewritten from the live state,
// the superblock is updated, and the WAL is truncated. Callers hold the
// updateMu write side. The protocol, ordered so that a crash at any point
// recovers (old superblock + old blob + WAL before the new superblock is
// durable; new superblock + new blob after):
//
//  1. drain the commit queue, so every staged commit is durable and the
//     WAL is quiescent;
//  2. write the new state blob through the transactional overlay into
//     freshly allocated pages — never pages of the old chain, and never
//     pages with images in the live WAL (shadow paging: the old catalog
//     must stay readable until the new superblock is durable, and a
//     replayed page image must never land on a live blob page);
//  3. apply the overlay to the data file and fsync it;
//  4. write the new superblock (sequence = last committed) and fsync;
//  5. truncate the WAL;
//  6. release the old chain pages to the free list.
//
// A failure before step 4 is harmless and retryable — the freshly
// allocated chain is rolled back, the WAL still covers everything. A
// failed WAL truncation (step 5) leaves the checkpoint in force; replay
// ignores the catalog records at or below its sequence number and
// re-applies page images, which is idempotent.
func (db *Database) checkpointLocked() error {
	s := db.store
	if s.closed {
		return ErrDatabaseClosed
	}
	ckptStart := time.Now()
	db.flushCommitsLocked()
	if err := s.brokenErr(); err != nil {
		return s.degraded(err)
	}
	return db.foldWALLocked(ckptStart)
}

// foldWALLocked is steps 2-6 of checkpointLocked, for callers that hold the
// updateMu write side over a quiescent WAL. It does not ask whether the
// handle is poisoned: recovery runs it as its durability probe while every
// observer still reads degraded.
func (db *Database) foldWALLocked(ckptStart time.Time) error {
	s := db.store
	pageSize := s.fs.PageSize()

	// held collects allocated-but-unusable pages (their ids have images in
	// the live WAL); they stay free across the checkpoint.
	var held, newStatePages []pagefile.PageID
	allocClean := func() (pagefile.PageID, error) {
		for {
			id, err := s.tx.Allocate()
			if err != nil {
				return pagefile.InvalidPage, err
			}
			if _, bad := s.logged[id]; !bad {
				return id, nil
			}
			held = append(held, id)
		}
	}
	fail := func(err error) error {
		// Roll back this checkpoint's allocations so retries do not leak
		// pages: nothing references the fresh chain yet.
		for _, id := range held {
			_ = s.tx.Free(id)
		}
		for _, id := range newStatePages {
			_ = s.tx.Free(id)
		}
		return err
	}

	// Walk the old chain up front: it is retired (freed) only after the new
	// superblock is durable, and its pages are excluded from the new chain by
	// construction (they are still allocated here).
	retired, err := catalog.BlobChain(s.tx, s.super.State)
	if err != nil {
		return fmt.Errorf("obstacles: checkpoint reading old state chain: %w", err)
	}

	// The state blob contains the full page free list — including the
	// held pages and the chain being retired, which are free in the
	// post-checkpoint world — and storing the blob itself allocates pages,
	// shrinking that list; grow the chain until the encoding fits. Each
	// allocation shrinks the encoded list or leaves it unchanged (frontier
	// growth, or a held page moving between two encoded sets), so the need
	// is non-increasing and this converges. The last encoding follows the
	// last allocation, so its frontier is the file's.
	var data []byte
	for {
		next, free := s.fs.AllocState()
		free = append(append(free, held...), retired...)
		data = catalog.EncodeState(db.published().catalogState(next, free))
		need := catalog.BlobPages(pageSize, len(data))
		if need <= len(newStatePages) {
			break
		}
		for len(newStatePages) < need {
			id, err := allocClean()
			if err != nil {
				return fail(err)
			}
			newStatePages = append(newStatePages, id)
		}
	}
	stateRef, err := catalog.WriteBlob(s.tx, newStatePages, data)
	if err != nil {
		return fail(fmt.Errorf("obstacles: checkpoint state blob: %w", err))
	}

	sb := pagefile.Superblock{PageSize: pageSize, Seq: s.seq, State: stateRef}
	if err := s.tx.Apply(); err != nil {
		return fail(fmt.Errorf("obstacles: checkpoint write-back: %w", err))
	}
	if err := s.fs.Sync(); err != nil {
		return fail(fmt.Errorf("obstacles: checkpoint data sync: %w", err))
	}
	if err := s.fs.WriteSuperblock(sb); err != nil {
		return fail(fmt.Errorf("obstacles: checkpoint superblock: %w", err))
	}
	if err := s.fs.Sync(); err != nil {
		return fail(fmt.Errorf("obstacles: checkpoint superblock sync: %w", err))
	}

	// Point of no return: the superblock references the new blob. Retire
	// the old chain and release the held pages; from here a failure to
	// truncate the WAL is retryable and replay stays correct (catalog
	// records at or below sb.Seq are ignored, page images are idempotent and
	// the new chain avoided every logged page).
	s.super = sb
	for _, id := range retired {
		_ = s.tx.Free(id)
	}
	for _, id := range held {
		_ = s.tx.Free(id)
	}
	if err := s.log.Load().Reset(); err != nil {
		return fmt.Errorf("obstacles: truncating WAL: %w", err)
	}
	s.logged = make(map[pagefile.PageID]struct{})
	s.lastCheckpointErr = nil
	s.tel.checkpoints.Inc()
	s.tel.checkpointSeconds.ObserveDuration(time.Since(ckptStart))
	return nil
}

// flushTreeBuffers pushes every tree's dirty buffer frames into the
// transactional overlay so the commit captures them.
func (db *Database) flushTreeBuffers() error {
	for _, t := range db.trees() {
		if err := t.PageFile().Flush(); err != nil {
			return err
		}
	}
	return nil
}
