package obstacles

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/pagefile"
	"repro/internal/wal"
)

// wpt encodes (worker, op) into a unique point, far from the test obstacles
// so inventory queries stay cheap.
func wpt(w, i int) Point { return Pt(500+float64(w)*2, 500+float64(i)*0.25) }

// setupPts are the deterministic initial entities of the churn tests.
func setupPts(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(float64(i), float64(i%7)+100)
	}
	return pts
}

// inventory queries every entity of dataset P and returns the set of their
// locations (one NN query with k = len covers the whole dataset).
func inventory(t *testing.T, db *Database) map[Point]bool {
	t.Helper()
	n, err := db.DatasetLen("P")
	if err != nil {
		t.Fatal(err)
	}
	nn, err := db.NearestNeighbors(ctx, "P", Pt(300, 300), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != n {
		t.Fatalf("inventory: %d of %d entities surfaced", len(nn), n)
	}
	set := make(map[Point]bool, n)
	for _, nb := range nn {
		if set[nb.Point] {
			t.Fatalf("inventory: duplicate point %v", nb.Point)
		}
		set[nb.Point] = true
	}
	return set
}

// openAbsorbing opens a durable database whose committer absorbs stragglers
// for up to window before each fsync even when no contention has been
// observed yet, so a test gets multi-commit batches deterministically instead
// of depending on commits happening to overlap an fsync. window must be set
// before the first mutator runs.
func openAbsorbing(path string, opts Options, window time.Duration) (*Database, error) {
	db, err := Open(path, opts)
	if err == nil {
		db.store.maxDelay = window
	}
	return db, err
}

// batched reports whether a scrape shows group commit at work: an fsync
// covered two or more commits, and some batch landed above the le="1"
// bucket.
func batched(m map[string]float64) bool {
	return m["obstacles_group_commits_total"] > 0 &&
		m["obstacles_commit_batch_size_count"] > m[`obstacles_commit_batch_size_bucket{le="1"}`]
}

// TestDurableGroupCommitBatches pins the headline behavior: N concurrent
// mutators commit durably with far fewer fsyncs than commits, and every
// acknowledged insert survives a clean close and reopen.
func TestDurableGroupCommitBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.obs")
	db, err := openAbsorbing(path, DefaultOptions(), 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddObstacleRects(R(200, 200, 240, 240)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", setupPts(20)); err != nil {
		t.Fatal(err)
	}
	base := scrape(t, db)["obstacles_commits_total"]

	const workers, per = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := db.InsertPoints("P", wpt(w, i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	m := scrape(t, db)
	commits, fsyncs := m["obstacles_commits_total"], m["obstacles_wal_fsyncs_total"]
	if got := commits - base; got != workers*per {
		t.Fatalf("commits advanced by %v, want %d", got, workers*per)
	}
	if fsyncs == 0 || fsyncs >= commits {
		t.Fatalf("%v fsyncs for %v commits, want fewer fsyncs than commits under %d concurrent writers", fsyncs, commits, workers)
	}
	if !batched(m) {
		t.Fatalf("no batching observed: %v group commits, %v of %v batches of one",
			m["obstacles_group_commits_total"], m[`obstacles_commit_batch_size_bucket{le="1"}`], m["obstacles_commit_batch_size_count"])
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	inv := inventory(t, back)
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			if !inv[wpt(w, i)] {
				t.Fatalf("acknowledged insert (%d,%d) lost after reopen", w, i)
			}
		}
	}
}

// TestCrashRecoveryBatchedCommits is the group-commit analogue of the
// WAL-boundary crash test: concurrent mutators produce multi-commit fsync
// batches, the handle is "killed", and the WAL is cut at every transaction
// boundary — including boundaries inside a batch — plus torn mid-record
// offsets. Every cut must reopen to a state where (a) the recovered commits
// are exactly a prefix of the commit sequence, (b) each worker's surviving
// inserts form a prefix of that worker's acknowledged ops, and (c) at the
// full-WAL cut every acknowledged commit is present — an acknowledged
// commit is never lost and an unacknowledged suffix never appears.
func TestCrashRecoveryBatchedCommits(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batch.obs")
	opts := DefaultOptions()
	opts.WALCheckpointBytes = -1 // the test owns every WAL boundary
	db, err := openAbsorbing(path, opts, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddObstacleRects(R(200, 200, 240, 240), R(250, 250, 280, 290)); err != nil {
		t.Fatal(err)
	}
	const nInit = 30
	if err := db.AddDataset("P", setupPts(nInit)); err != nil {
		t.Fatal(err)
	}

	const workers, per = 4, 15
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := db.InsertPoints("P", wpt(w, i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if !batched(scrape(t, db)) {
		t.Fatal("churn produced no multi-commit batch; the test would not exercise batched recovery")
	}
	crashDB(db) // abandon without checkpoint: data file stays at the post-create image

	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	walFull, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}

	// Parse the WAL's group boundaries: each transaction is one fsync
	// group whose delta count is the number of member commits, and whose
	// End offset is an acknowledgment boundary a crash can land on.
	wcopy := filepath.Join(t.TempDir(), "parse.wal")
	if err := os.WriteFile(wcopy, walFull, 0o644); err != nil {
		t.Fatal(err)
	}
	wl, err := wal.Open(wcopy)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	var commitsThrough []int // cumulative member commits through group i
	grouped := false
	lastSeq := uint64(0)
	total := 0
	if err := wl.Replay(func(tx wal.Tx) error {
		if tx.Seq <= lastSeq {
			return fmt.Errorf("non-increasing group seq %d after %d", tx.Seq, lastSeq)
		}
		if int(tx.Seq-lastSeq) != len(tx.Deltas) {
			return fmt.Errorf("group ending at seq %d spans %d seqs but carries %d deltas", tx.Seq, tx.Seq-lastSeq, len(tx.Deltas))
		}
		lastSeq = tx.Seq
		if len(tx.Deltas) > 1 {
			grouped = true
		}
		total += len(tx.Deltas)
		ends = append(ends, tx.End)
		commitsThrough = append(commitsThrough, total)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wl.Close()
	wantTxs := 2 + workers*per // obstacle add + dataset + one commit per insert
	if total != wantTxs {
		t.Fatalf("WAL holds %d commits, want %d", total, wantTxs)
	}
	if !grouped {
		t.Fatal("no multi-commit group in the WAL despite batching stats; nothing to exercise")
	}

	reopenAt := func(label string, walPrefix []byte) *Database {
		t.Helper()
		cdir := t.TempDir()
		cpath := filepath.Join(cdir, "crash.obs")
		if err := os.WriteFile(cpath, base, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cpath+".wal", walPrefix, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := Open(cpath, Options{})
		if err != nil {
			t.Fatalf("%s: reopen after crash: %v", label, err)
		}
		return back
	}

	checkAt := func(label string, k int, back *Database) {
		t.Helper()
		defer back.Close()
		wantObst := 0
		if k >= 1 {
			wantObst = 2
		}
		if n := back.NumObstacles(); n != wantObst {
			t.Fatalf("%s: %d obstacles, want %d", label, n, wantObst)
		}
		if k < 2 {
			if back.HasDataset("P") {
				t.Fatalf("%s: dataset P exists before its commit", label)
			}
			return
		}
		if n, err := back.DatasetLen("P"); err != nil || n != nInit+(k-2) {
			t.Fatalf("%s: DatasetLen = %d (%v), want %d", label, n, err, nInit+(k-2))
		}
		inv := inventory(t, back)
		for i := 0; i < nInit; i++ {
			if !inv[setupPts(nInit)[i]] {
				t.Fatalf("%s: initial point %d lost", label, i)
			}
		}
		// Each worker's recovered inserts must be a prefix of its op
		// sequence: a later insert surviving while an earlier one is lost
		// would mean replay surfaced a suffix past a gap.
		recovered := 0
		for w := 0; w < workers; w++ {
			m := 0
			for i := 0; i < per; i++ {
				if inv[wpt(w, i)] {
					if i != m {
						t.Fatalf("%s: worker %d op %d recovered but op %d lost", label, w, i, m)
					}
					m++
				}
			}
			recovered += m
		}
		if recovered != k-2 {
			t.Fatalf("%s: %d worker inserts recovered, want %d", label, recovered, k-2)
		}
	}

	// Every group boundary, plus a cut before anything committed. The
	// final boundary covers the full WAL: every acknowledged commit.
	checkAt("empty cut", 0, reopenAt("empty cut", nil))
	for i, end := range ends {
		label := fmt.Sprintf("group %d/%d (%d commits)", i+1, len(ends), commitsThrough[i])
		checkAt(label, commitsThrough[i], reopenAt(label, walFull[:end]))
	}
	// Torn cuts inside a group — including inside multi-commit groups —
	// must discard the group whole and recover the previous boundary: an
	// unacknowledged suffix never appears, even partially.
	for _, i := range []int{1, len(ends) / 2, len(ends) - 1} {
		cut := ends[i] - 3
		if i > 0 && cut <= ends[i-1] {
			continue
		}
		prev := 0
		if i > 0 {
			prev = commitsThrough[i-1]
		}
		label := fmt.Sprintf("torn cut inside group %d", i+1)
		checkAt(label, prev, reopenAt(label, walFull[:cut]))
	}
}

// TestDurableCommitterFsyncFault injects a failure into the committer's
// fsync under concurrent mutators: every mutator parked on the failed batch
// (and every later mutation) must report ErrDegraded; the handle must
// poison exactly once — all later errors cite the first failed fsync, and
// no further fsyncs are attempted; and reopening at the durable WAL length
// must recover every acknowledged insert and none of the failed ones.
func TestDurableCommitterFsyncFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fault.obs")
	// Create cleanly, then reopen with the fault wrapper.
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddObstacleRects(R(200, 200, 240, 240)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("P", setupPts(10)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Fsyncs 1..12 succeed and the 13th fails; the handle poisons on it, so
	// no later fsync is ever attempted.
	const okSyncs = 12
	errSync := errors.New("injected sync fault")
	inj := pagefile.NewInjector(pagefile.FaultRule{Op: pagefile.OpWALSync, After: okSyncs, Count: 1, Err: errSync})
	opts := DefaultOptions()
	opts.WALCheckpointBytes = -1
	opts.Chaos = inj
	db, err = openAbsorbing(path, opts, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}

	const workers, per = 4, 30
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked []Point
		fails []error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := wpt(w, i)
				_, err := db.InsertPoints("P", p)
				mu.Lock()
				if err != nil {
					fails = append(fails, err)
				} else {
					acked = append(acked, p)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(fails) == 0 {
		t.Fatal("no mutator saw the injected fsync fault")
	}
	if len(acked) == 0 {
		t.Fatal("fault fired before any commit was acknowledged; raise okSyncs")
	}
	for _, err := range fails {
		if !errors.Is(err, ErrDegraded) || !errors.Is(err, errSync) {
			t.Fatalf("parked mutator error = %v, want ErrDegraded citing the injected fault", err)
		}
	}

	// Poisoned exactly once: the fault fired on the 13th fsync, it is the
	// error every later mutation reports, and no further fsyncs are attempted.
	if got, ops := inj.Injected(pagefile.OpWALSync), inj.Ops(pagefile.OpWALSync); got != 1 || ops != okSyncs+1 {
		t.Fatalf("fault fired %d times over %d fsyncs, want once, on fsync %d", got, ops, okSyncs+1)
	}
	if _, err := db.InsertPoints("P", Pt(1, 1)); !errors.Is(err, ErrDegraded) || !errors.Is(err, errSync) {
		t.Fatalf("post-poison mutation error = %v, want ErrDegraded citing the injected fault", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.InsertPoints("P", Pt(2, 2)); !errors.Is(err, ErrDegraded) {
			t.Fatalf("mutation %d after poison: %v", i, err)
		}
	}
	if got := inj.Ops(pagefile.OpWALSync); got != okSyncs+1 {
		t.Fatalf("poisoned handle still attempted fsyncs: %d -> %d", okSyncs+1, got)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("checkpoint after poison: %v", err)
	}

	// Crash at the durable boundary: truncate the WAL to its acknowledged
	// length (what a power loss at the fault would have preserved at most)
	// and reopen. Exactly the acknowledged inserts must be recovered.
	durable := db.PersistStats().WALBytes
	crashDB(db)
	raw, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) < durable {
		t.Fatalf("WAL file %d bytes, durable boundary %d", len(raw), durable)
	}
	if err := os.WriteFile(path+".wal", raw[:durable], 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if n, err := back.DatasetLen("P"); err != nil || n != 10+len(acked) {
		t.Fatalf("recovered DatasetLen = %d (%v), want %d acknowledged", n, err, 10+len(acked))
	}
	inv := inventory(t, back)
	for _, p := range acked {
		if !inv[p] {
			t.Fatalf("acknowledged insert %v lost", p)
		}
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			p := wpt(w, i)
			ok := false
			for _, a := range acked {
				if a == p {
					ok = true
					break
				}
			}
			if !ok && inv[p] {
				t.Fatalf("unacknowledged insert %v surfaced after recovery", p)
			}
		}
	}
}

// TestDurableDeltaBytesIndependentOfObstacles pins that the WAL bytes a
// commit costs do not scale with the obstacle population. An older protocol
// rewrote a blob of every obstacle polygon on every obstacle mutation (~76
// bytes per rectangle — >150 KB at 2000 obstacles). The catalog state each
// commit logs holds one fixed-size obstacle record, however many obstacles
// there are.
func TestDurableDeltaBytesIndependentOfObstacles(t *testing.T) {
	growth := func(nObst int) (pointIns, obstAdd int64) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "delta.obs")
		opts := DefaultOptions()
		opts.WALCheckpointBytes = -1
		db, err := Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rects := make([]Rect, nObst)
		for i := range rects {
			x := float64(i%100) * 10
			y := float64(i/100) * 10
			rects[i] = R(x+1, y+1, x+8, y+8)
		}
		if _, err := db.AddObstacleRects(rects...); err != nil {
			t.Fatal(err)
		}
		if err := db.AddDataset("P", setupPts(500)); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		before := db.PersistStats().WALBytes
		if before != 0 {
			t.Fatalf("WAL not empty after checkpoint: %d", before)
		}
		if _, err := db.InsertPoints("P", Pt(5000, 5000)); err != nil {
			t.Fatal(err)
		}
		pointIns = db.PersistStats().WALBytes
		if _, err := db.AddObstacleRects(R(2000, 2000, 2010, 2010)); err != nil {
			t.Fatal(err)
		}
		obstAdd = db.PersistStats().WALBytes - pointIns
		return pointIns, obstAdd
	}

	smallPt, smallObst := growth(100)
	bigPt, bigObst := growth(2000)
	// Point inserts touch the same P tree either way: identical cost, and
	// no full-catalog rewrite rides along.
	if d := bigPt - smallPt; d < -1024 || d > 1024 {
		t.Fatalf("point-insert WAL bytes scale with |O|: %d at 100 obstacles, %d at 2000", smallPt, bigPt)
	}
	// An obstacle add logs its tree path and the obstacle record — a few
	// pages regardless of |O|. The old blob rewrite alone would be >150 KB
	// at 2000 obstacles.
	if bigObst > 32<<10 {
		t.Fatalf("obstacle-add commit cost %d WAL bytes at 2000 obstacles; catalog rewrite is back", bigObst)
	}
	if d := bigObst - smallObst; d > 16<<10 {
		t.Fatalf("obstacle-add WAL bytes scale with |O|: %d at 100, %d at 2000", smallObst, bigObst)
	}
}

// TestDurableMultiWriterChurn is the race-mode stress: concurrent writers
// insert and delete against a durable database while readers query, with a
// small auto-checkpoint threshold so checkpoints interleave with group
// commits; the final state must survive close and reopen exactly.
func TestDurableMultiWriterChurn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mwchurn.obs")
	opts := DefaultOptions()
	opts.WALCheckpointBytes = 32 << 10
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddObstacleRects(R(200, 200, 240, 240), R(260, 210, 300, 260)); err != nil {
		t.Fatal(err)
	}
	const nInit = 20
	if err := db.AddDataset("P", setupPts(nInit)); err != nil {
		t.Fatal(err)
	}

	const workers, per = 4, 40
	live := make([]map[Point]int64, workers) // per-worker surviving points
	var writers, readers sync.WaitGroup
	errs := make(chan error, workers+2)
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := Pt(float64((g*37+i*11)%600), float64((g*53+i*7)%600))
				if _, err := db.NearestNeighbors(ctx, "P", q, 3); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for w := 0; w < workers; w++ {
		live[w] = make(map[Point]int64)
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			var order []Point
			for i := 0; i < per; i++ {
				p := wpt(w, i)
				ids, err := db.InsertPoints("P", p)
				if err != nil {
					errs <- err
					return
				}
				live[w][p] = ids[0]
				order = append(order, p)
				if i%3 == 2 { // delete the oldest surviving own point
					victim := order[0]
					order = order[1:]
					if err := db.DeletePoints("P", live[w][victim]); err != nil {
						errs <- err
						return
					}
					delete(live[w], victim)
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if got := scrape(t, db)["obstacles_commits_total"]; got == 0 {
		t.Fatal("no commits recorded")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	want := nInit
	for w := 0; w < workers; w++ {
		want += len(live[w])
	}
	if n, err := back.DatasetLen("P"); err != nil || n != want {
		t.Fatalf("reopened DatasetLen = %d (%v), want %d", n, err, want)
	}
	inv := inventory(t, back)
	for w := 0; w < workers; w++ {
		for p := range live[w] {
			if !inv[p] {
				t.Fatalf("surviving point %v of worker %d lost", p, w)
			}
		}
		for i := 0; i < per; i++ {
			p := wpt(w, i)
			if _, alive := live[w][p]; !alive && inv[p] {
				t.Fatalf("deleted point %v of worker %d resurrected", p, w)
			}
		}
	}
}
