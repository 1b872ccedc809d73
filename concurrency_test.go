package obstacles

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// stressDB builds a mid-sized street-grid scene with two datasets, the
// shared fixture for the concurrency tests.
func stressDB(t testing.TB) *Database {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var rects []Rect
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if rng.Intn(5) == 0 {
				continue
			}
			x, y := float64(i)*30, float64(j)*30
			rects = append(rects, R(x+4, y+4, x+26, y+26))
		}
	}
	db, err := NewDatabaseFromRects(rects, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	shops := make([]Point, 150)
	for i := range shops {
		r := rects[rng.Intn(len(rects))]
		shops[i] = Pt(r.MinX, r.MinY+rng.Float64()*(r.MaxY-r.MinY))
	}
	depots := make([]Point, 30)
	for i := range depots {
		r := rects[rng.Intn(len(rects))]
		depots[i] = Pt(r.MinX+rng.Float64()*(r.MaxX-r.MinX), r.MaxY)
	}
	if err := db.AddDataset("shops", shops); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDataset("depots", depots); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestConcurrentMixedWorkload runs mixed Range/NN/join/cluster/batch queries
// from 16 goroutines over one shared Database and asserts every result
// matches the single-threaded baseline. Run under -race this is the
// concurrency-safety acceptance test of the API redesign.
func TestConcurrentMixedWorkload(t *testing.T) {
	db := stressDB(t)
	bg := context.Background()

	queryPts := []Point{Pt(0, 0), Pt(90, 90), Pt(181, 61), Pt(270, 330), Pt(2, 182)}

	// Single-threaded baselines, computed before any concurrency.
	type baseline struct {
		ranges  [][]Neighbor
		nns     [][]Neighbor
		join    []Pair
		cps     []Pair
		batch   [][]float64
		cluster *Clustering
	}
	var base baseline
	for _, q := range queryPts {
		r, err := db.Range(bg, "shops", q, 70)
		if err != nil {
			t.Fatal(err)
		}
		base.ranges = append(base.ranges, r)
		nn, err := db.NearestNeighbors(bg, "shops", q, 8)
		if err != nil {
			t.Fatal(err)
		}
		base.nns = append(base.nns, nn)
		bd, err := db.ObstructedDistances(bg, q, queryPts)
		if err != nil {
			t.Fatal(err)
		}
		base.batch = append(base.batch, bd)
	}
	var err error
	base.join, err = db.DistanceJoin(bg, "shops", "depots", 45)
	if err != nil {
		t.Fatal(err)
	}
	base.cps, err = db.ClosestPairs(bg, "shops", "depots", 6)
	if err != nil {
		t.Fatal(err)
	}
	base.cluster, err = db.Cluster(bg, "depots", ClusterOptions{Algorithm: DBSCAN, Eps: 60, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const itersPer = 6
	errCh := make(chan error, goroutines*itersPer)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < itersPer; i++ {
				qi := (g + i) % len(queryPts)
				q := queryPts[qi]
				var qs QueryStats
				switch (g + i) % 6 {
				case 0:
					got, err := db.Range(bg, "shops", q, 70, WithStats(&qs))
					if err != nil {
						errCh <- err
						continue
					}
					if !neighborsEqual(got, base.ranges[qi]) {
						errCh <- fmt.Errorf("g%d: range(%v) diverged from baseline", g, q)
					}
				case 1:
					got, err := db.NearestNeighbors(bg, "shops", q, 8, WithStats(&qs))
					if err != nil {
						errCh <- err
						continue
					}
					if !neighborsEqual(got, base.nns[qi]) {
						errCh <- fmt.Errorf("g%d: nn(%v) diverged from baseline", g, q)
					}
				case 2:
					got, err := db.DistanceJoin(bg, "shops", "depots", 45, WithStats(&qs))
					if err != nil {
						errCh <- err
						continue
					}
					if !pairsEqual(got, base.join) {
						errCh <- fmt.Errorf("g%d: join diverged from baseline", g)
					}
				case 3:
					got, err := db.ClosestPairs(bg, "shops", "depots", 6, WithStats(&qs))
					if err != nil {
						errCh <- err
						continue
					}
					if !pairsEqual(got, base.cps) {
						errCh <- fmt.Errorf("g%d: closest pairs diverged from baseline", g)
					}
				case 4:
					got, err := db.ObstructedDistances(bg, q, queryPts, WithStats(&qs))
					if err != nil {
						errCh <- err
						continue
					}
					if !distsEqual(got, base.batch[qi]) {
						errCh <- fmt.Errorf("g%d: batch(%v) diverged from baseline", g, q)
					}
				case 5:
					got, err := db.Cluster(bg, "depots", ClusterOptions{Algorithm: DBSCAN, Eps: 60, MinPts: 3}, WithStats(&qs))
					if err != nil {
						errCh <- err
						continue
					}
					if !reflect.DeepEqual(got.Assignments, base.cluster.Assignments) {
						errCh <- fmt.Errorf("g%d: clustering diverged from baseline", g)
					}
				}
				switch {
				case (g+i)%6 == 4:
					// A batch answered on a warm cached graph reads no tree
					// page (its buried checks come from the graph), but it
					// always searches.
					if qs.SettledNodes == 0 {
						errCh <- fmt.Errorf("g%d iter %d: batch stats recorded no search", g, i)
					}
				case qs.LogicalReads == 0:
					errCh <- fmt.Errorf("g%d iter %d: per-query stats recorded no tree reads", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// neighborsEqual compares results allowing reordering among equal distances.
func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func distsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsInf(a[i], 1) && math.IsInf(b[i], 1)) {
			return false
		}
	}
	return true
}

// TestConcurrentDistancesShareCachedGraph: concurrent ObstructedDistance
// calls from one source share the graph cache's warm graph — 24 requests
// cost at most two graph builds, not 24 — and answer bit for bit what a
// database without a graph cache computes. The source sits on a street
// obstacle's edge, so the ring of targets holds detours and buried points;
// every detour stays within the cache's reuse radius.
func TestConcurrentDistancesShareCachedGraph(t *testing.T) {
	world := dataset.Generate(dataset.DefaultConfig(7, 60))
	open := func(cached bool) *Database {
		db, err := NewDatabaseFromRects(world.Rects, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			db.engine.EnableGraphCache(0)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	db, uncached := open(true), open(false)
	bg := context.Background()
	src := world.Entities(world.EntityRand(1), 1)[0]

	const N = 24
	targets := make([]Point, N)
	for i := range targets {
		a, r := 2*math.Pi*float64(i)/N, 100+50*float64(i%3)
		targets[i] = Pt(src.X+r*math.Cos(a), src.Y+r*math.Sin(a))
	}
	want := make([]float64, N)
	detours := 0
	for i, tgt := range targets {
		d, err := uncached.ObstructedDistance(bg, src, tgt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
		if d > src.Dist(tgt) && !math.IsInf(d, 1) {
			detours++
		}
	}
	if detours == 0 {
		t.Fatal("no target needs a detour: the scene tests nothing")
	}

	before := scrape(t, db)["obstacles_query_graph_builds_total"]
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]float64, N)
	errs := make([]error, N)
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = db.ObstructedDistance(bg, src, targets[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range targets {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("request %d to %v: cached %v, uncached %v", i, targets[i], got[i], want[i])
		}
	}
	if builds := scrape(t, db)["obstacles_query_graph_builds_total"] - before; builds > 2 {
		t.Fatalf("%v graph builds for %d concurrent same-source distances, want <= 2", builds, N)
	}
}

// TestConcurrentAddDataset exercises AddDataset racing queries on other
// datasets.
func TestConcurrentAddDataset(t *testing.T) {
	db := stressDB(t)
	bg := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				name := fmt.Sprintf("extra%d", g)
				if err := db.AddDataset(name, []Point{Pt(1, 1), Pt(2, 2)}); err != nil {
					errCh <- err
				}
				if n, err := db.DatasetLen(name); err != nil || n != 2 {
					errCh <- fmt.Errorf("DatasetLen(%s) = %d, %v", name, n, err)
				}
			} else {
				for i := 0; i < 4; i++ {
					if _, err := db.NearestNeighbors(bg, "shops", Pt(90, 90), 3); err != nil {
						errCh <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Duplicate insertion still rejected after the dust settles.
	if err := db.AddDataset("extra0", nil); err == nil {
		t.Error("duplicate dataset accepted")
	}
}

// TestHasDatasetMeansReadable: once HasDataset reports a dataset, a read
// verb finds it. A reader waits for each name in turn while a writer adds
// them one by one, and queries the name as soon as HasDataset says yes; the
// answer must never be ErrUnknownDataset. Run it under -race.
func TestHasDatasetMeansReadable(t *testing.T) {
	db, err := NewDatabaseFromRects([]Rect{R(10, 10, 20, 20)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 3000
	added := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := db.AddDataset(fmt.Sprintf("D%d", i), []Point{Pt(1, 1)}); err != nil {
				added <- err
				return
			}
		}
		added <- nil
	}()
	// The writer may finish between a poll and the select, so a nil from
	// added means every name is in: re-check instead of failing.
	done := false
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("D%d", i)
		for !db.HasDataset(name) {
			if done {
				t.Fatalf("the writer finished, but HasDataset(%q) is false", name)
			}
			select {
			case err := <-added:
				if err != nil {
					t.Fatalf("the writer stopped before adding %s: %v", name, err)
				}
				done = true
			default:
			}
		}
		if _, err := db.NearestNeighbors(ctx, name, Pt(0, 0), 1); err != nil {
			t.Fatalf("HasDataset(%q) is true, but a query on it fails: %v", name, err)
		}
	}
	if !done {
		if err := <-added; err != nil {
			t.Fatal(err)
		}
	}
}

// TestContextCancellation verifies every query verb notices a canceled
// context and returns ctx.Err() promptly.
func TestContextCancellation(t *testing.T) {
	db := stressDB(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel() // cancel up front: every verb must notice immediately

	checks := []struct {
		name string
		call func(ctx context.Context) error
	}{
		{"Range", func(ctx context.Context) error {
			_, err := db.Range(ctx, "shops", Pt(90, 90), 100)
			return err
		}},
		{"NearestNeighbors", func(ctx context.Context) error {
			_, err := db.NearestNeighbors(ctx, "shops", Pt(90, 90), 5)
			return err
		}},
		{"DistanceJoin", func(ctx context.Context) error {
			_, err := db.DistanceJoin(ctx, "shops", "depots", 50)
			return err
		}},
		{"ClosestPairs", func(ctx context.Context) error {
			_, err := db.ClosestPairs(ctx, "shops", "depots", 4)
			return err
		}},
		{"ObstructedDistance", func(ctx context.Context) error {
			_, err := db.ObstructedDistance(ctx, Pt(0, 0), Pt(300, 300))
			return err
		}},
		{"ObstructedPath", func(ctx context.Context) error {
			_, _, err := db.ObstructedPath(ctx, Pt(0, 0), Pt(300, 300))
			return err
		}},
		{"ObstructedDistances", func(ctx context.Context) error {
			_, err := db.ObstructedDistances(ctx, Pt(0, 0), []Point{Pt(300, 300), Pt(10, 10)})
			return err
		}},
		{"DistanceMatrix", func(ctx context.Context) error {
			_, err := db.DistanceMatrix(ctx, []Point{Pt(0, 0), Pt(90, 90), Pt(300, 300)})
			return err
		}},
		{"Cluster", func(ctx context.Context) error {
			_, err := db.Cluster(ctx, "depots", ClusterOptions{Algorithm: DBSCAN, Eps: 60, MinPts: 3})
			return err
		}},
		// The streams are capped for the live-context sanity pass; a canceled
		// context must still surface before the first element.
		{"Nearest", func(ctx context.Context) error {
			for _, err := range db.Nearest(ctx, "shops", Pt(90, 90), WithLimit(3)) {
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"Closest", func(ctx context.Context) error {
			for _, err := range db.Closest(ctx, "shops", "depots", WithLimit(3)) {
				if err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, c := range checks {
		if err := c.call(canceled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with canceled ctx: err = %v, want context.Canceled", c.name, err)
		}
		// Sanity: the same call succeeds with a live context.
		if err := c.call(context.Background()); err != nil {
			t.Errorf("%s with live ctx: %v", c.name, err)
		}
	}
}

// TestContextDeadlineMidQuery cancels a clustering job mid-flight and
// checks it aborts promptly rather than running to completion.
func TestContextDeadlineMidQuery(t *testing.T) {
	db := stressDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// The full matrix over every shop is the most expensive job here.
		_, err := db.DistanceMatrix(ctx, allShopPoints(t, db))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// Either the job finished before the cancel landed (tiny scene) or
		// it must report the cancellation.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-flight cancel: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled job did not return within 30s")
	}
}

func allShopPoints(t testing.TB, db *Database) []Point {
	t.Helper()
	n, err := db.DatasetLen("shops")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Point, 0, n)
	for nb, err := range db.Nearest(context.Background(), "shops", Pt(0, 0)) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, nb.Point)
	}
	return out
}

// TestQueryOptions covers WithStats, WithLimit, WithFilter, WithPairFilter
// and the Seq2 iterators.
func TestQueryOptions(t *testing.T) {
	db := stressDB(t)
	bg := context.Background()
	q := Pt(90, 90)

	full, err := db.Range(bg, "shops", q, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 4 {
		t.Fatalf("fixture too sparse: %d in range", len(full))
	}

	var qs QueryStats
	limited, err := db.Range(bg, "shops", q, 100, WithLimit(3), WithStats(&qs))
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 3 || !neighborsEqual(limited, full[:3]) {
		t.Errorf("WithLimit(3) = %v, want prefix of %v", limited, full[:3])
	}
	if qs.LogicalReads == 0 || qs.Elapsed <= 0 || qs.Results != len(full) {
		t.Errorf("stats not recorded: %+v", qs)
	}

	pred := func(nb Neighbor) bool { return nb.ID%2 == 0 }
	filtered, err := db.Range(bg, "shops", q, 100, WithFilter(pred))
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range filtered {
		if nb.ID%2 != 0 {
			t.Errorf("filter leaked %v", nb)
		}
	}

	// Filtered kNN must equal taking the filtered prefix of the full
	// ordering.
	kf, err := db.NearestNeighbors(bg, "shops", q, 4, WithFilter(pred))
	if err != nil {
		t.Fatal(err)
	}
	var want []Neighbor
	for nb, err := range db.Nearest(bg, "shops", q, WithFilter(pred), WithLimit(4)) {
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, nb)
	}
	if !neighborsEqual(kf, want) {
		t.Errorf("filtered kNN %v != filtered stream %v", kf, want)
	}

	// Filtered paths report Results like the one-shot paths do.
	var fqs QueryStats
	if _, err := db.NearestNeighbors(bg, "shops", q, 4, WithFilter(pred), WithStats(&fqs)); err != nil {
		t.Fatal(err)
	}
	if fqs.Results != len(kf) || fqs.GraphNodes == 0 {
		t.Errorf("filtered kNN stats incomplete: %+v", fqs)
	}

	// Pair filter on closest pairs vs the filtered Closest stream.
	ppred := func(p Pair) bool { return p.ID2%2 == 0 }
	cpf, err := db.ClosestPairs(bg, "shops", "depots", 3, WithPairFilter(ppred))
	if err != nil {
		t.Fatal(err)
	}
	var wantPairs []Pair
	for p, err := range db.Closest(bg, "shops", "depots", WithPairFilter(ppred), WithLimit(3)) {
		if err != nil {
			t.Fatal(err)
		}
		wantPairs = append(wantPairs, p)
	}
	if !pairsEqual(cpf, wantPairs) {
		t.Errorf("filtered CP %v != filtered stream %v", cpf, wantPairs)
	}

	// Stats from a broken-out-of sequence are still written.
	var seqStats QueryStats
	for range db.Nearest(bg, "shops", q, WithStats(&seqStats)) {
		break
	}
	if seqStats.LogicalReads == 0 {
		t.Error("sequence stats not recorded after break")
	}

	// The pair verbs report their engine-level counters too, not just I/O.
	var dqs QueryStats
	if _, err := db.ObstructedDistance(bg, Pt(0, 0), Pt(300, 300), WithStats(&dqs)); err != nil {
		t.Fatal(err)
	}
	if dqs.DistComputations != 1 || dqs.GraphNodes == 0 || dqs.Results != 1 {
		t.Errorf("ObstructedDistance stats incomplete: %+v", dqs)
	}
}

// TestSeqMatchesBatchVerbs checks the Seq2 forms agree with the one-shot
// verbs.
func TestSeqMatchesBatchVerbs(t *testing.T) {
	db := stressDB(t)
	bg := context.Background()
	q := Pt(181, 61)

	nn, err := db.NearestNeighbors(bg, "shops", q, 10)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Neighbor
	for nb, err := range db.Nearest(bg, "shops", q, WithLimit(10)) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, nb)
	}
	if !neighborsEqual(nn, streamed) {
		t.Errorf("Nearest stream %v != NearestNeighbors %v", streamed, nn)
	}

	cps, err := db.ClosestPairs(bg, "shops", "depots", 5)
	if err != nil {
		t.Fatal(err)
	}
	var streamedPairs []Pair
	for p, err := range db.Closest(bg, "shops", "depots", WithLimit(5)) {
		if err != nil {
			t.Fatal(err)
		}
		streamedPairs = append(streamedPairs, p)
	}
	if !pairsEqual(cps, streamedPairs) {
		t.Errorf("Closest stream %v != ClosestPairs %v", streamedPairs, cps)
	}
}

// TestPerQueryStatsIsolation runs two queries of very different cost
// concurrently many times and checks the cheap query's stats never absorb
// the expensive query's work — the property the global counters cannot
// provide.
func TestPerQueryStatsIsolation(t *testing.T) {
	db := stressDB(t)
	bg := context.Background()
	for round := 0; round < 10; round++ {
		var wg sync.WaitGroup
		var cheap, costly QueryStats
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := db.Range(bg, "shops", Pt(90, 90), 20, WithStats(&cheap)); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := db.DistanceJoin(bg, "shops", "depots", 60, WithStats(&costly)); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if cheap.LogicalReads == 0 || costly.LogicalReads == 0 {
			t.Fatalf("stats missing: cheap=%+v costly=%+v", cheap, costly)
		}
		if cheap.LogicalReads >= costly.LogicalReads {
			t.Fatalf("round %d: cheap range absorbed join work: %d >= %d",
				round, cheap.LogicalReads, costly.LogicalReads)
		}
	}
}
