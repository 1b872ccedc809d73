package obstacles

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/pagefile"
)

// chaosWorld builds a small deterministic durable database for fault drills:
// a handful of obstacles and a P dataset of n points.
func chaosWorld(t *testing.T, db *Database, n int) ([]Rect, []Point) {
	t.Helper()
	rects := []Rect{
		R(100, 100, 220, 200), R(400, 320, 520, 430),
		R(700, 80, 780, 260), R(250, 600, 430, 700),
	}
	if _, err := db.AddObstacleRects(rects...); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	pts := make([]Point, 0, n)
	for len(pts) < n {
		p := Pt(rng.Float64()*1000, rng.Float64()*1000)
		if in, err := db.InsideObstacle(p); err != nil {
			t.Fatal(err)
		} else if in {
			continue
		}
		pts = append(pts, p)
	}
	if err := db.AddDataset("P", pts); err != nil {
		t.Fatal(err)
	}
	return rects, pts
}

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sameNeighbors compares two result sets id-for-id (the comparison is within
// one handle, so ids are stable).
func sameNeighbors(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Distance-want[i].Distance) > 1e-9 {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestChaosTransientFaultAutoRecovers is the full self-healing loop in one
// process: a WAL fsync fault poisons the store into degraded mode, reads
// (including a pre-fault snapshot) keep answering the last published
// generation, the recovery supervisor heals the handle in place, and the
// write path resumes — no reopen, and the failed commit is not resurrected.
func TestChaosTransientFaultAutoRecovers(t *testing.T) {
	inj := pagefile.NewInjector()
	opts := DefaultOptions()
	opts.Chaos = inj
	opts.AutoRecover = true
	opts.RecoverBackoff = 5 * time.Millisecond
	path := filepath.Join(t.TempDir(), "chaos.obs")
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, pts := chaosWorld(t, db, 40)

	q := Pt(0, 0)
	ref, err := db.NearestNeighbors(ctx, "P", q, 10)
	if err != nil {
		t.Fatal(err)
	}
	refDist, err := db.ObstructedDistance(ctx, q, Pt(990, 990))
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	defer snap.Close()

	// One WAL fsync fails: the commit that hits it degrades the handle.
	inj.Add(pagefile.FaultRule{Op: pagefile.OpWALSync, Count: 1})
	_, err = db.InsertPoints("P", Pt(901, 901))
	if err == nil {
		t.Fatal("insert during WAL fault reported success")
	}
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("insert during WAL fault: %v, want *DegradedError", err)
	}
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, pagefile.ErrInjectedFault) {
		t.Fatalf("DegradedError does not unwrap to ErrDegraded and its cause: %v", err)
	}
	if !de.Recovery.Degraded || !de.Recovery.AutoRecover || de.Recovery.Cause == "" {
		t.Fatalf("DegradedError carries stale stats: %+v", de.Recovery)
	}

	// Degraded reads serve the pre-fault generation exactly; so does the
	// pinned snapshot. (Degraded() may already be false if the supervisor
	// won the race, so assert on data, not on the flag.)
	got, err := db.NearestNeighbors(ctx, "P", q, 10)
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	sameNeighbors(t, "degraded nearest", got, ref)
	if d, err := db.ObstructedDistance(ctx, q, Pt(990, 990)); err != nil || d != refDist {
		t.Fatalf("degraded distance = %v (%v), want %v", d, err, refDist)
	}
	sgot, err := snap.NearestNeighbors(ctx, "P", q, 10)
	if err != nil {
		t.Fatalf("snapshot read while degraded: %v", err)
	}
	sameNeighbors(t, "snapshot nearest", sgot, ref)

	// The supervisor heals the handle in place and mutations resume.
	waitUntil(t, 10*time.Second, "auto-recovery", func() bool {
		return !db.Degraded()
	})
	if _, err := db.InsertPoints("P", Pt(903, 903)); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	rs := db.RecoveryStats()
	if rs.Degraded || rs.Recoveries < 1 || rs.Attempts < 1 {
		t.Fatalf("recovery stats after heal: %+v", rs)
	}

	// The pinned snapshot is still valid after the in-place swap.
	sgot, err = snap.NearestNeighbors(ctx, "P", q, 10)
	if err != nil {
		t.Fatalf("snapshot read after recovery: %v", err)
	}
	sameNeighbors(t, "snapshot nearest post-recovery", sgot, ref)

	// Exactly the acknowledged mutations survive: the faulted insert is
	// gone, the post-recovery one is present — in this handle and across a
	// clean reopen.
	want := len(pts) + 1
	if n, err := db.DatasetLen("P"); err != nil || n != want {
		t.Fatalf("live DatasetLen = %d (%v), want %d", n, err, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if n, err := back.DatasetLen("P"); err != nil || n != want {
		t.Fatalf("reopened DatasetLen = %d (%v), want %d", n, err, want)
	}
}

// TestChaosPermanentFaultStaysDegraded pins the supervisor against a fault
// that never clears: attempts keep failing with accurate stats and the
// handle stays degraded (reads fine, mutations fail fast) — until the
// device "heals" (rules cleared), at which point recovery succeeds.
func TestChaosPermanentFaultStaysDegraded(t *testing.T) {
	inj := pagefile.NewInjector()
	opts := DefaultOptions()
	opts.Chaos = inj
	opts.AutoRecover = true
	opts.RecoverBackoff = 2 * time.Millisecond // retries capped at 60 × 2ms = 120ms
	path := filepath.Join(t.TempDir(), "permfault.obs")
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, pts := chaosWorld(t, db, 25)
	q := Pt(0, 0)
	ref, err := db.NearestNeighbors(ctx, "P", q, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Every data-file fsync fails from here on — commits poison the handle
	// and every recovery attempt dies on its durability probe.
	inj.Add(pagefile.FaultRule{Op: pagefile.OpDataSync})
	inj.Add(pagefile.FaultRule{Op: pagefile.OpWALSync})
	if _, err := db.InsertPoints("P", Pt(902, 902)); err == nil {
		t.Fatal("insert during permanent fault reported success")
	}

	// From the first fault until the device heals, no observer may read
	// healthy — not even between a recovery attempt's swap and its failed
	// durability probe.
	stopWatch, watchDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watchDone)
		for i := 0; ; i++ {
			select {
			case <-stopWatch:
				return
			default:
			}
			if !db.Degraded() {
				t.Error("Degraded() read false under a permanent fault")
				return
			}
			if rs := db.RecoveryStats(); !rs.Degraded || rs.Cause == "" || rs.Recoveries != 0 {
				t.Errorf("RecoveryStats read healthy under a permanent fault: %+v", rs)
				return
			}
			if i%64 == 0 { // the gate takes the update lock recovery holds
				if _, err := db.InsertPoints("P", Pt(903, 903)); !errors.Is(err, ErrDegraded) {
					t.Errorf("mutation gate under a permanent fault: %v, want ErrDegraded", err)
					return
				}
			}
			runtime.Gosched()
		}
	}()

	// The supervisor retries with backoff; watch several attempts fail.
	waitUntil(t, 10*time.Second, "10 failed recovery attempts", func() bool {
		return db.RecoveryStats().Attempts >= 10
	})
	rs := db.RecoveryStats()
	if !rs.Degraded || rs.Recoveries != 0 {
		t.Fatalf("still-broken stats: %+v", rs)
	}
	if rs.Cause == "" || rs.LastError == "" {
		t.Fatalf("stats missing cause/last error: %+v", rs)
	}
	if !db.Degraded() {
		t.Fatal("handle not degraded under permanent fault")
	}
	got, err := db.NearestNeighbors(ctx, "P", q, 8)
	if err != nil {
		t.Fatalf("degraded read under permanent fault: %v", err)
	}
	sameNeighbors(t, "degraded nearest", got, ref)
	if _, err := db.InsertPoints("P", Pt(904, 904)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation under permanent fault: %v, want ErrDegraded", err)
	}

	// Device healed: the next scheduled attempt succeeds.
	close(stopWatch)
	<-watchDone
	inj.Clear()
	waitUntil(t, 10*time.Second, "recovery after heal", func() bool {
		return !db.Degraded()
	})
	if _, err := db.InsertPoints("P", Pt(905, 905)); err != nil {
		t.Fatalf("insert after heal: %v", err)
	}
	if n, err := db.DatasetLen("P"); err != nil || n != len(pts)+1 {
		t.Fatalf("DatasetLen = %d (%v), want %d", n, err, len(pts)+1)
	}
}

// TestChaosTornWALWriteManualRecover drives the manual (no supervisor)
// path: a torn WAL append degrades the handle, Recover() heals it in place,
// and the half-written record is discarded by replay, not resurrected.
func TestChaosTornWALWriteManualRecover(t *testing.T) {
	inj := pagefile.NewInjector()
	opts := DefaultOptions()
	opts.Chaos = inj
	path := filepath.Join(t.TempDir(), "torn.obs")
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, pts := chaosWorld(t, db, 20)

	// The next WAL append tears after 10 bytes; the commit fails.
	inj.Add(pagefile.FaultRule{Op: pagefile.OpWALWrite, Count: 1, Torn: 10})
	if _, err := db.InsertPoints("P", Pt(906, 906)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert during torn write: %v, want ErrDegraded", err)
	}
	if !db.Degraded() {
		t.Fatal("handle not degraded after torn WAL write")
	}
	rs := db.RecoveryStats()
	if !rs.Degraded || rs.AutoRecover {
		t.Fatalf("stats: %+v", rs)
	}

	if err := db.Recover(); err != nil {
		t.Fatalf("manual recover: %v", err)
	}
	if db.Degraded() {
		t.Fatal("still degraded after successful Recover")
	}
	if _, err := db.InsertPoints("P", Pt(907, 907)); err != nil {
		t.Fatalf("insert after recover: %v", err)
	}
	want := len(pts) + 1
	if n, err := db.DatasetLen("P"); err != nil || n != want {
		t.Fatalf("DatasetLen = %d (%v), want %d", n, err, want)
	}
	// And the on-disk image agrees after a clean reopen.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if n, err := back.DatasetLen("P"); err != nil || n != want {
		t.Fatalf("reopened DatasetLen = %d (%v), want %d", n, err, want)
	}
}

// TestChaosRecoverIdempotentWhenHealthy: Recover on a healthy handle is a
// cheap no-op, and on a closed one reports ErrDatabaseClosed.
func TestChaosRecoverIdempotentWhenHealthy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "healthy.obs")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	chaosWorld(t, db, 5)
	if err := db.Recover(); err != nil {
		t.Fatalf("recover on healthy handle: %v", err)
	}
	if got := db.RecoveryStats(); got.Attempts != 0 || got.Degraded {
		t.Fatalf("healthy no-op recover mutated stats: %+v", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("recover on closed handle: %v, want ErrDatabaseClosed", err)
	}
}

// TestScrubDetectsCorruption flips bits in one live and one free page on
// disk: Scrub reports the live page as corrupt (restore from backup), and
// quarantines the free one so the allocator can never hand it out.
func TestScrubDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scrub.obs")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, pts := chaosWorld(t, db, 30)
	// Churn so COW retires pages onto the free list, then checkpoint to
	// land everything (and the free list) on disk.
	for i := 0; i < 10; i++ {
		if _, err := db.InsertPoints("P", Pt(float64(i)*7+31, float64(i)*11+17)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	rep, err := db.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Scanned == 0 {
		t.Fatalf("clean scrub baseline: %+v", rep)
	}

	// A live page: any node of the obstacle tree.
	db.mu.RLock()
	livePages, err := db.obstSet.Tree().Pages(nil)
	db.mu.RUnlock()
	if err != nil || len(livePages) == 0 {
		t.Fatalf("obstacle tree pages: %v (%d)", err, len(livePages))
	}
	livePage := livePages[0]
	// A free page, from the allocator's own ledger.
	_, free := db.store.fs.AllocState()
	if len(free) == 0 {
		t.Fatal("no free pages after churn + checkpoint")
	}
	freePage := free[0]
	if err := db.store.fs.CorruptPage(livePage); err != nil {
		t.Fatal(err)
	}
	if err := db.store.fs.CorruptPage(freePage); err != nil {
		t.Fatal(err)
	}

	rep, err = db.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatalf("scrub missed the corruption: %+v", rep)
	}
	foundLive := false
	for _, id := range rep.CorruptLive {
		if id == livePage {
			foundLive = true
		}
	}
	if !foundLive {
		t.Fatalf("corrupt live page %d not reported: %+v", livePage, rep)
	}
	foundFree := false
	for _, id := range rep.Quarantined {
		if id == freePage {
			foundFree = true
		}
	}
	if !foundFree {
		t.Fatalf("corrupt free page %d not quarantined: %+v", freePage, rep)
	}
	if got := db.store.fs.Quarantined(); got < 1 {
		t.Fatalf("Quarantined() = %d, want >= 1", got)
	}

	// The dataset remains fully queryable: its pages were not touched.
	if n, err := db.DatasetLen("P"); err != nil || n != len(pts)+10 {
		t.Fatalf("DatasetLen after scrub = %d (%v), want %d", n, err, len(pts)+10)
	}
}

// TestScrubOnInMemoryDatabase: scrubbing an in-memory database is a typed
// error, same contract as Backup.
func TestScrubOnInMemoryDatabase(t *testing.T) {
	db, err := NewDatabaseFromRects([]Rect{R(0, 0, 10, 10)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Scrub(ctx); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("in-memory scrub: %v, want ErrNotPersistent", err)
	}
}
