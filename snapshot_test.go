package obstacles

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// snapshotAnswers is the bundle of query results used to check that a
// pinned generation keeps answering identically, down to the last bit.
type snapshotAnswers struct {
	rng   []Neighbor
	nn    []Neighbor
	pairs []Pair
	dist  float64
	strm  []Neighbor
	n     int
	obst  int
}

type snapshotReader interface {
	Range(ctx context.Context, dataset string, q Point, radius float64, opts ...QueryOption) ([]Neighbor, error)
	NearestNeighbors(ctx context.Context, dataset string, q Point, k int, opts ...QueryOption) ([]Neighbor, error)
	ClosestPairs(ctx context.Context, dataset1, dataset2 string, k int, opts ...QueryOption) ([]Pair, error)
	ObstructedDistance(ctx context.Context, a, b Point, opts ...QueryOption) (float64, error)
	DatasetLen(name string) (int, error)
	NumObstacles() int
}

func readAnswers(t *testing.T, r snapshotReader, nearest func() ([]Neighbor, error)) snapshotAnswers {
	t.Helper()
	var a snapshotAnswers
	var err error
	if a.rng, err = r.Range(ctx, "P", Pt(2, 2), 140); err != nil {
		t.Fatal(err)
	}
	if a.nn, err = r.NearestNeighbors(ctx, "P", Pt(98, 50), 6); err != nil {
		t.Fatal(err)
	}
	if a.pairs, err = r.ClosestPairs(ctx, "P", "T", 5); err != nil {
		t.Fatal(err)
	}
	if a.dist, err = r.ObstructedDistance(ctx, Pt(0, 0), Pt(100, 100)); err != nil {
		t.Fatal(err)
	}
	if a.strm, err = nearest(); err != nil {
		t.Fatal(err)
	}
	if a.n, err = r.DatasetLen("P"); err != nil {
		t.Fatal(err)
	}
	a.obst = r.NumObstacles()
	return a
}

func snapshotNearest(s *Snapshot, limit int) func() ([]Neighbor, error) {
	return func() ([]Neighbor, error) {
		var out []Neighbor
		for nb, err := range s.Nearest(ctx, "P", Pt(50, 2), WithLimit(limit)) {
			if err != nil {
				return nil, err
			}
			out = append(out, nb)
		}
		return out, nil
	}
}

// churn applies n random point and obstacle mutations, heavy enough to
// rewrite most tree pages several times over.
func churn(t *testing.T, db *Database, rng *rand.Rand, n int) {
	t.Helper()
	var ptIDs, obstIDs []int64
	for op := 0; op < n; op++ {
		switch rng.Intn(4) {
		case 0:
			ids, err := db.InsertPoints("P", Pt(rng.Float64()*200, rng.Float64()*200))
			if err != nil {
				t.Fatal(err)
			}
			ptIDs = append(ptIDs, ids...)
		case 1:
			if len(ptIDs) == 0 {
				continue
			}
			i := rng.Intn(len(ptIDs))
			if err := db.DeletePoints("P", ptIDs[i]); err != nil {
				t.Fatal(err)
			}
			ptIDs = append(ptIDs[:i], ptIDs[i+1:]...)
		case 2:
			// Tiny obstacles in a far-off band so they never overlap the
			// fixed scene (overlap is allowed but keeps geometry simple).
			x := 300 + rng.Float64()*500
			y := 300 + rng.Float64()*500
			ids, err := db.AddObstacleRects(R(x, y, x+1, y+1))
			if err != nil {
				t.Fatal(err)
			}
			obstIDs = append(obstIDs, ids...)
		case 3:
			if len(obstIDs) == 0 {
				continue
			}
			i := rng.Intn(len(obstIDs))
			if err := db.RemoveObstacles(obstIDs[i]); err != nil {
				t.Fatal(err)
			}
			obstIDs = append(obstIDs[:i], obstIDs[i+1:]...)
		}
	}
}

func seedSnapshotDB(t *testing.T, db *Database) {
	t.Helper()
	var p, q []Point
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		p = append(p, Pt(rng.Float64()*200, rng.Float64()*200))
	}
	for i := 0; i < 30; i++ {
		q = append(q, Pt(rng.Float64()*200, rng.Float64()*200))
	}
	if err := db.AddDataset("P", p); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("T", q); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPinnedAnswersStable is the tentpole's core guarantee: a
// pinned snapshot keeps answering byte-identically across heavy mutation of
// the live database — same results, same distances, same order.
func TestSnapshotPinnedAnswersStable(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	seedSnapshotDB(t, db)

	s := db.Snapshot()
	defer s.Close()
	want := readAnswers(t, s, snapshotNearest(s, 10))

	rng := rand.New(rand.NewSource(11))
	churn(t, db, rng, 400)

	got := readAnswers(t, s, snapshotNearest(s, 10))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned snapshot's answers changed under churn:\n got %+v\nwant %+v", got, want)
	}
	if n, _ := db.DatasetLen("P"); n == want.n && db.NumObstacles() == want.obst {
		t.Fatal("churn was a no-op; the test tests nothing")
	}

	// The live handle moved on.
	if db.gen.Load() == s.Generation() {
		t.Fatal("database generation did not advance")
	}

	// Closing retires the handle.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Range(ctx, "P", Pt(0, 0), 10); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("Range on closed snapshot: %v, want ErrSnapshotClosed", err)
	}
	if _, err := s.DatasetLen("P"); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("DatasetLen on closed snapshot: %v, want ErrSnapshotClosed", err)
	}
	for _, err := range s.Nearest(ctx, "P", Pt(0, 0)) {
		if !errors.Is(err, ErrSnapshotClosed) {
			t.Fatalf("Nearest on closed snapshot: %v, want ErrSnapshotClosed", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotChurnStress races pinned readers against a heavy mutator:
// several goroutines repeatedly re-ask their snapshot and demand
// byte-identical answers while hundreds of mutations commit. Run under
// -race this is the MVCC read-path soundness check.
func TestSnapshotChurnStress(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	seedSnapshotDB(t, db)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.Snapshot()
			defer s.Close()
			want := readAnswers(t, s, snapshotNearest(s, 8))
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := readAnswers(t, s, snapshotNearest(s, 8))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: snapshot answers drifted under churn", g)
					return
				}
			}
		}(g)
	}
	// Unpinned one-shot verbs ride along: they must never error, whatever
	// generation they land on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.NearestNeighbors(ctx, "P", Pt(float64(i%200), 3), 3); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(23))
	churn(t, db, rng, 300)
	close(stop)
	wg.Wait()
}

// TestWritersDoNotWaitForReaders pins the lock-structure change: open
// snapshots and mid-flight streams hold no lock a mutator needs, so writes
// commit promptly however many readers are open.
func TestWritersDoNotWaitForReaders(t *testing.T) {
	db := cityDB(t, DefaultOptions())
	seedSnapshotDB(t, db)

	s := db.Snapshot()
	defer s.Close()
	next, stop := iterPull(db.Nearest(ctx, "P", Pt(9, 9)))
	defer stop()
	if _, _, ok := next(); !ok {
		t.Fatal("stream yielded nothing")
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := db.InsertPoints("P", Pt(1, 1)); err != nil {
				done <- err
				return
			}
			if _, err := db.AddObstacleRects(R(400+float64(i), 400, 400.5+float64(i), 400.5)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("mutations blocked behind open readers")
	}

	m := scrape(t, db)
	if got := m["obstacles_snapshots_open"]; got != 1 {
		t.Errorf("obstacles_snapshots_open = %v, want 1", got)
	}
	if m["obstacles_cow_page_copies_total"] == 0 {
		t.Error("obstacles_cow_page_copies_total = 0 after 100 mutations")
	}
	if m["obstacles_snapshot_pinned_pages"] == 0 {
		t.Error("obstacles_snapshot_pinned_pages = 0 with a snapshot pinned across heavy churn")
	}
	stop()
	for { // drain so the stream goroutine releases its pin before we check
		if _, _, ok := next(); !ok {
			break
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m = scrape(t, db)
	if got := m["obstacles_snapshots_open"]; got != 0 {
		t.Errorf("obstacles_snapshots_open after close = %v, want 0", got)
	}
	if got := m["obstacles_snapshot_pinned_pages"]; got != 0 {
		t.Errorf("obstacles_snapshot_pinned_pages after all readers closed = %v, want 0", got)
	}
}

// TestSnapshotSurvivesCheckpoints: a checkpoint must not free or rewrite
// pages a pinned snapshot can still read — its frees are deferred through
// the version table — so a snapshot taken on a durable database answers
// identically across interleaved mutations and checkpoints, and the file
// reopens cleanly afterwards.
func TestSnapshotSurvivesCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.obs")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seedSnapshotDB(t, db)
	if _, err := db.AddObstacleRects(R(40, 40, 60, 60)); err != nil {
		t.Fatal(err)
	}

	s := db.Snapshot()
	want := readAnswers(t, s, snapshotNearest(s, 10))

	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 8; round++ {
		churn(t, db, rng, 40)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		got := readAnswers(t, s, snapshotNearest(s, 10))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: checkpoint disturbed a pinned snapshot", round)
		}
	}
	liveN, err := db.DatasetLen("P")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, err := re.DatasetLen("P"); err != nil || n != liveN {
		t.Fatalf("reopened DatasetLen = %d, %v; want %d", n, err, liveN)
	}
	if err := re.obstSet.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBackupUnderChurn: a backup taken from a live, churning database is a
// complete database file answering exactly like the snapshot that produced
// it.
func TestBackupUnderChurn(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.obs")
	db, err := Open(path, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedSnapshotDB(t, db)
	if _, err := db.AddObstacleRects(R(40, 40, 60, 60)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-stop:
				return
			default:
			}
			churn(t, db, rng, 10)
		}
	}()

	s := db.Snapshot()
	defer s.Close()
	want := readAnswers(t, s, snapshotNearest(s, 10))
	bpath := filepath.Join(dir, "backup.obs")
	if err := s.Backup(ctx, bpath); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if _, err := os.Stat(bpath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	bdb, err := Open(bpath, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer bdb.Close()
	if err := bdb.obstSet.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := readAnswers(t, bdb, func() ([]Neighbor, error) {
		var out []Neighbor
		for nb, err := range bdb.Nearest(ctx, "P", Pt(50, 2), WithLimit(10)) {
			if err != nil {
				return nil, err
			}
			out = append(out, nb)
		}
		return out, nil
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("backup answers differ from the snapshot that produced it:\n got %+v\nwant %+v", got, want)
	}

	// The reopened backup is a fully working database: it accepts writes.
	if _, err := bdb.InsertPoints("P", Pt(1, 2)); err != nil {
		t.Fatal(err)
	}

	// Backup of an in-memory database is refused, not mangled.
	mem := cityDB(t, DefaultOptions())
	if err := mem.Backup(ctx, filepath.Join(dir, "mem.obs")); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("in-memory Backup: %v, want ErrNotPersistent", err)
	}
}

// iterPull adapts a Seq2 to a pull-style next/stop pair (iter.Pull2 without
// the import ceremony elsewhere in the tests).
func iterPull(seq func(func(Neighbor, error) bool)) (func() (Neighbor, error, bool), func()) {
	ch := make(chan struct {
		nb  Neighbor
		err error
	})
	stopCh := make(chan struct{})
	go func() {
		defer close(ch)
		seq(func(nb Neighbor, err error) bool {
			select {
			case ch <- struct {
				nb  Neighbor
				err error
			}{nb, err}:
				return true
			case <-stopCh:
				return false
			}
		})
	}()
	var once sync.Once
	stop := func() { once.Do(func() { close(stopCh) }) }
	next := func() (Neighbor, error, bool) {
		v, ok := <-ch
		return v.nb, v.err, ok
	}
	return next, stop
}
